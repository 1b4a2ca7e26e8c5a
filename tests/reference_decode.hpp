// The packet decoder as it stood before the in-place rewrite, kept as the
// reference the decode oracle test compares net::decode_into against: the
// optional-returning IPv4/IPv6/UDP/TCP header parsers and decode(), copied
// with only their types renamed into this namespace. It reports the
// captured length as an IPv6 datagram's size; the oracle adjusts that one
// field to the IPv6 payload_length rule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ip.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "util/bytes.hpp"

namespace vpscope::reference {

using net::IpAddr;
using net::kProtoTcp;
using net::kProtoUdp;
using net::TcpFlags;

struct Ipv4Header {
  static constexpr std::size_t kMinSize = 20;

  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kProtoTcp;
  IpAddr src;
  IpAddr dst;

  static std::optional<Ipv4Header> parse(ByteView datagram,
                                         std::size_t* header_len) {
    if (datagram.size() < kMinSize) return std::nullopt;
    const std::uint8_t version_ihl = datagram[0];
    if (version_ihl >> 4 != 4) return std::nullopt;
    const std::size_t ihl = (version_ihl & 0x0f) * std::size_t{4};
    if (ihl < kMinSize || datagram.size() < ihl) return std::nullopt;

    Ipv4Header h;
    h.dscp_ecn = datagram[1];
    h.total_length =
        static_cast<std::uint16_t>(datagram[2] << 8 | datagram[3]);
    h.identification =
        static_cast<std::uint16_t>(datagram[4] << 8 | datagram[5]);
    h.dont_fragment = (datagram[6] & 0x40) != 0;
    h.ttl = datagram[8];
    h.protocol = datagram[9];
    for (int i = 0; i < 4; ++i) {
      h.src.bytes[static_cast<std::size_t>(i)] = datagram[static_cast<std::size_t>(12 + i)];
      h.dst.bytes[static_cast<std::size_t>(i)] = datagram[static_cast<std::size_t>(16 + i)];
    }
    if (header_len) *header_len = ihl;
    return h;
  }
};

struct Ipv6Header {
  static constexpr std::size_t kSize = 40;

  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;
  std::uint8_t next_header = kProtoTcp;
  std::uint8_t hop_limit = 64;
  IpAddr src;
  IpAddr dst;

  static std::optional<Ipv6Header> parse(ByteView datagram,
                                         std::size_t* header_len) {
    if (datagram.size() < kSize) return std::nullopt;
    if (datagram[0] >> 4 != 6) return std::nullopt;
    Ipv6Header h;
    h.traffic_class =
        static_cast<std::uint8_t>((datagram[0] & 0x0f) << 4 | datagram[1] >> 4);
    h.flow_label = static_cast<std::uint32_t>(datagram[1] & 0x0f) << 16 |
                   static_cast<std::uint32_t>(datagram[2]) << 8 | datagram[3];
    h.next_header = datagram[6];
    h.hop_limit = datagram[7];
    h.src.is_v6 = h.dst.is_v6 = true;
    for (int i = 0; i < 16; ++i) {
      h.src.bytes[static_cast<std::size_t>(i)] = datagram[static_cast<std::size_t>(8 + i)];
      h.dst.bytes[static_cast<std::size_t>(i)] = datagram[static_cast<std::size_t>(24 + i)];
    }
    if (header_len) *header_len = kSize;
    return h;
  }
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  static std::optional<UdpHeader> parse(ByteView datagram,
                                        std::size_t* header_len) {
    if (datagram.size() < kSize) return std::nullopt;
    UdpHeader h;
    h.src_port = static_cast<std::uint16_t>(datagram[0] << 8 | datagram[1]);
    h.dst_port = static_cast<std::uint16_t>(datagram[2] << 8 | datagram[3]);
    const std::uint16_t len =
        static_cast<std::uint16_t>(datagram[4] << 8 | datagram[5]);
    if (len < kSize || datagram.size() < len) return std::nullopt;
    if (header_len) *header_len = kSize;
    return h;
  }
};

struct TcpOptions {
  std::optional<std::uint16_t> mss;
  std::optional<std::uint8_t> window_scale;
  bool sack_permitted = false;
  bool timestamps = false;
  std::uint32_t ts_value = 0;
  std::vector<std::uint8_t> kind_order;
};

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 0;
  TcpOptions options;

  static std::optional<TcpHeader> parse(ByteView segment,
                                        std::size_t* header_len) {
    constexpr std::uint8_t kOptEol = 0;
    constexpr std::uint8_t kOptNop = 1;
    constexpr std::uint8_t kOptMss = 2;
    constexpr std::uint8_t kOptWScale = 3;
    constexpr std::uint8_t kOptSackPerm = 4;
    constexpr std::uint8_t kOptTimestamps = 8;

    if (segment.size() < kMinSize) return std::nullopt;
    Reader r(segment);
    TcpHeader h;
    h.src_port = r.u16();
    h.dst_port = r.u16();
    h.seq = r.u32();
    h.ack = r.u32();
    const std::uint8_t data_offset = r.u8() >> 4;
    h.flags = TcpFlags::from_byte(r.u8());
    h.window = r.u16();
    r.skip(4);  // checksum + urgent pointer

    const std::size_t hlen = data_offset * std::size_t{4};
    if (hlen < kMinSize || segment.size() < hlen) return std::nullopt;

    Reader opts(segment.subspan(kMinSize, hlen - kMinSize));
    while (opts.remaining() > 0) {
      const std::uint8_t kind = opts.u8();
      if (kind == kOptEol) break;
      h.options.kind_order.push_back(kind);
      if (kind == kOptNop) continue;
      const std::uint8_t len = opts.u8();
      if (len < 2 || !opts.ok()) return std::nullopt;
      const std::size_t body_len = len - std::size_t{2};
      ByteView body = opts.view(body_len);
      if (!opts.ok()) return std::nullopt;
      switch (kind) {
        case kOptMss:
          if (body.size() == 2)
            h.options.mss = static_cast<std::uint16_t>(body[0] << 8 | body[1]);
          break;
        case kOptWScale:
          if (body.size() == 1) h.options.window_scale = body[0];
          break;
        case kOptSackPerm:
          h.options.sack_permitted = true;
          break;
        case kOptTimestamps:
          if (body.size() == 8) {
            h.options.timestamps = true;
            h.options.ts_value = static_cast<std::uint32_t>(body[0]) << 24 |
                                 static_cast<std::uint32_t>(body[1]) << 16 |
                                 static_cast<std::uint32_t>(body[2]) << 8 |
                                 body[3];
          }
          break;
        default:
          break;
      }
    }

    if (header_len) *header_len = hlen;
    return h;
  }
};

struct DecodedPacket {
  std::uint64_t timestamp_us = 0;
  bool is_v6 = false;
  std::uint8_t ttl = 0;
  IpAddr src, dst;
  std::uint8_t protocol = 0;
  std::size_t ip_packet_size = 0;

  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  ByteView payload;
};

inline std::optional<DecodedPacket> decode(const net::Packet& packet) {
  const ByteView raw{packet.data};
  if (raw.empty()) return std::nullopt;

  DecodedPacket out;
  out.timestamp_us = packet.timestamp_us;
  out.ip_packet_size = raw.size();

  std::size_t ip_hlen = 0;
  const int version = raw[0] >> 4;
  if (version == 4) {
    const auto v4 = Ipv4Header::parse(raw, &ip_hlen);
    if (!v4) return std::nullopt;
    out.ttl = v4->ttl;
    out.src = v4->src;
    out.dst = v4->dst;
    out.protocol = v4->protocol;
    out.ip_packet_size = std::max<std::size_t>(raw.size(), v4->total_length);
  } else if (version == 6) {
    const auto v6 = Ipv6Header::parse(raw, &ip_hlen);
    if (!v6) return std::nullopt;
    out.is_v6 = true;
    out.ttl = v6->hop_limit;
    out.src = v6->src;
    out.dst = v6->dst;
    out.protocol = v6->next_header;
  } else {
    return std::nullopt;
  }

  const ByteView transport = raw.subspan(ip_hlen);
  std::size_t t_hlen = 0;
  if (out.protocol == kProtoTcp) {
    out.tcp = TcpHeader::parse(transport, &t_hlen);
    if (!out.tcp) return std::nullopt;
  } else if (out.protocol == kProtoUdp) {
    out.udp = UdpHeader::parse(transport, &t_hlen);
    if (!out.udp) return std::nullopt;
  } else {
    return std::nullopt;
  }
  out.payload = transport.subspan(t_hlen);
  return out;
}

}  // namespace vpscope::reference
