#include "net/udp.hpp"

namespace vpscope::net {

Bytes UdpHeader::serialize(ByteView payload) const {
  Writer w;
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(static_cast<std::uint16_t>(kSize + payload.size()));
  w.u16(0);  // checksum
  w.raw(payload);
  return std::move(w).take();
}

bool UdpHeader::parse_into(ByteView datagram, UdpHeader& out,
                           std::size_t* header_len) {
  if (datagram.size() < kSize) return false;
  const std::uint8_t* p = datagram.data();
  const std::uint16_t len = static_cast<std::uint16_t>(p[4] << 8 | p[5]);
  if (len < kSize || datagram.size() < len) return false;
  out.src_port = static_cast<std::uint16_t>(p[0] << 8 | p[1]);
  out.dst_port = static_cast<std::uint16_t>(p[2] << 8 | p[3]);
  if (header_len) *header_len = kSize;
  return true;
}

std::optional<UdpHeader> UdpHeader::parse(ByteView datagram,
                                          std::size_t* header_len) {
  std::optional<UdpHeader> h(std::in_place);
  if (!parse_into(datagram, *h, header_len)) h.reset();
  return h;
}

}  // namespace vpscope::net
