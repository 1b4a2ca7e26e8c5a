#include "net/ip.hpp"

#include <cstdio>

namespace vpscope::net {

IpAddr IpAddr::v4_from_u32(std::uint32_t host_order) {
  return v4(static_cast<std::uint8_t>(host_order >> 24),
            static_cast<std::uint8_t>(host_order >> 16),
            static_cast<std::uint8_t>(host_order >> 8),
            static_cast<std::uint8_t>(host_order));
}

std::uint32_t IpAddr::as_v4_u32() const {
  return static_cast<std::uint32_t>(bytes[0]) << 24 |
         static_cast<std::uint32_t>(bytes[1]) << 16 |
         static_cast<std::uint32_t>(bytes[2]) << 8 | bytes[3];
}

std::string IpAddr::to_string() const {
  char buf[64];
  if (!is_v6) {
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", bytes[0], bytes[1],
                  bytes[2], bytes[3]);
    return buf;
  }
  std::string out;
  for (int i = 0; i < 16; i += 2) {
    if (i) out += ':';
    std::snprintf(buf, sizeof(buf), "%02x%02x", bytes[static_cast<std::size_t>(i)],
                  bytes[static_cast<std::size_t>(i + 1)]);
    out += buf;
  }
  return out;
}

std::uint16_t internet_checksum(ByteView data, std::uint32_t seed) {
  std::uint32_t sum = seed;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

Bytes Ipv4Header::serialize(ByteView payload) const {
  Writer w;
  w.u8(0x45);  // version 4, IHL 5 (no IP options)
  w.u8(dscp_ecn);
  const std::uint16_t len =
      total_length ? total_length
                   : static_cast<std::uint16_t>(kMinSize + payload.size());
  w.u16(len);
  w.u16(identification);
  w.u16(dont_fragment ? 0x4000 : 0x0000);
  w.u8(ttl);
  w.u8(protocol);
  w.u16(0);  // checksum placeholder
  w.raw(ByteView{src.bytes.data(), 4});
  w.raw(ByteView{dst.bytes.data(), 4});

  Bytes out = std::move(w).take();
  const std::uint16_t csum = internet_checksum(ByteView{out});
  out[10] = static_cast<std::uint8_t>(csum >> 8);
  out[11] = static_cast<std::uint8_t>(csum);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<Ipv4Header> Ipv4Header::parse(ByteView datagram,
                                            std::size_t* header_len) {
  std::optional<Ipv4Header> h(std::in_place);
  if (!parse_into(datagram, *h, header_len)) h.reset();
  return h;
}

Bytes Ipv6Header::serialize(ByteView payload) const {
  Writer w;
  w.u32(std::uint32_t{6} << 28 |
        static_cast<std::uint32_t>(traffic_class) << 20 |
        (flow_label & 0xfffff));
  w.u16(payload_length ? payload_length
                       : static_cast<std::uint16_t>(payload.size()));
  w.u8(next_header);
  w.u8(hop_limit);
  w.raw(ByteView{src.bytes.data(), 16});
  w.raw(ByteView{dst.bytes.data(), 16});
  Bytes out = std::move(w).take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<Ipv6Header> Ipv6Header::parse(ByteView datagram,
                                            std::size_t* header_len) {
  std::optional<Ipv6Header> h(std::in_place);
  if (!parse_into(datagram, *h, header_len)) h.reset();
  return h;
}

}  // namespace vpscope::net
