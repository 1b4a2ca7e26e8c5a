// IPv4 / IPv6 header structures with parse/serialize and the internet
// checksum. Only the fields the classification pipeline and synthesizer care
// about are modeled as first-class members; everything else is carried with
// correct wire encoding.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace vpscope::net {

/// IP protocol numbers used in this codebase.
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;

/// An IPv4 or IPv6 address. IPv4 addresses occupy the first 4 bytes.
struct IpAddr {
  std::array<std::uint8_t, 16> bytes{};
  bool is_v6 = false;

  static IpAddr v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                   std::uint8_t d) {
    IpAddr addr;
    addr.bytes[0] = a;
    addr.bytes[1] = b;
    addr.bytes[2] = c;
    addr.bytes[3] = d;
    return addr;
  }

  static IpAddr v4_from_u32(std::uint32_t host_order);

  std::uint32_t as_v4_u32() const;
  std::string to_string() const;

  /// The address bytes as two native-order 64-bit words, so equality (on
  /// every flow lookup) is two word compares.
  std::array<std::uint64_t, 2> words() const {
    std::array<std::uint64_t, 2> w;
    std::memcpy(w.data(), bytes.data(), sizeof w);
    return w;
  }

  bool operator==(const IpAddr& other) const {
    const auto a = words();
    const auto b = other.words();
    return ((a[0] ^ b[0]) | (a[1] ^ b[1])) == 0 && is_v6 == other.is_v6;
  }
  auto operator<=>(const IpAddr&) const = default;
};

/// RFC 1071 internet checksum over a byte view (with optional seed for
/// pseudo-header folding).
std::uint16_t internet_checksum(ByteView data, std::uint32_t seed = 0);

struct Ipv4Header {
  static constexpr std::size_t kMinSize = 20;

  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;  // filled by serialize when 0
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kProtoTcp;
  IpAddr src;
  IpAddr dst;

  /// Serializes header + payload with computed checksum and total length.
  Bytes serialize(ByteView payload) const;

  /// Parses the header into `out`; false when the datagram is not IPv4,
  /// shorter than 20 bytes, or its IHL is below 5 words or beyond the
  /// capture. On success `header_len` reports where the payload begins.
  /// The one IPv4 parser: net::decode_into calls it in place, parse()
  /// wraps it.
  static bool parse_into(ByteView datagram, Ipv4Header& out,
                         std::size_t* header_len);
  static std::optional<Ipv4Header> parse(ByteView datagram,
                                         std::size_t* header_len);
};

struct Ipv6Header {
  static constexpr std::size_t kSize = 40;

  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;
  /// Bytes after the fixed header; filled by serialize when 0. A capture
  /// may truncate the datagram while this field keeps the original size.
  std::uint16_t payload_length = 0;
  std::uint8_t next_header = kProtoTcp;
  std::uint8_t hop_limit = 64;  // plays the TTL role for the t2 attribute
  IpAddr src;
  IpAddr dst;

  Bytes serialize(ByteView payload) const;

  /// Parses the fixed header into `out`; false when the datagram is not
  /// IPv6 or shorter than 40 bytes. Extension headers are not walked:
  /// `header_len` is always 40. net::decode_into calls it in place,
  /// parse() wraps it.
  static bool parse_into(ByteView datagram, Ipv6Header& out,
                         std::size_t* header_len);
  static std::optional<Ipv6Header> parse(ByteView datagram,
                                         std::size_t* header_len);
};

// The two IP parsers are inline so decode_into's local header folds into
// the fields it copies out; out of line they cost a third of a decode.

inline bool Ipv4Header::parse_into(ByteView datagram, Ipv4Header& h,
                                   std::size_t* header_len) {
  if (datagram.size() < kMinSize) return false;
  const std::uint8_t* p = datagram.data();
  if (p[0] >> 4 != 4) return false;
  const std::size_t ihl = (p[0] & 0x0f) * std::size_t{4};
  if (ihl < kMinSize || datagram.size() < ihl) return false;

  h.dscp_ecn = p[1];
  h.total_length = static_cast<std::uint16_t>(p[2] << 8 | p[3]);
  h.identification = static_cast<std::uint16_t>(p[4] << 8 | p[5]);
  h.dont_fragment = (p[6] & 0x40) != 0;
  h.ttl = p[8];
  h.protocol = p[9];
  h.src = IpAddr{};
  h.dst = IpAddr{};
  std::memcpy(h.src.bytes.data(), p + 12, 4);
  std::memcpy(h.dst.bytes.data(), p + 16, 4);
  if (header_len) *header_len = ihl;
  return true;
}

inline bool Ipv6Header::parse_into(ByteView datagram, Ipv6Header& h,
                                   std::size_t* header_len) {
  if (datagram.size() < kSize) return false;
  const std::uint8_t* p = datagram.data();
  if (p[0] >> 4 != 6) return false;
  h.traffic_class = static_cast<std::uint8_t>((p[0] & 0x0f) << 4 | p[1] >> 4);
  h.flow_label = static_cast<std::uint32_t>(p[1] & 0x0f) << 16 |
                 static_cast<std::uint32_t>(p[2]) << 8 | p[3];
  h.payload_length = static_cast<std::uint16_t>(p[4] << 8 | p[5]);
  h.next_header = p[6];
  h.hop_limit = p[7];
  h.src.is_v6 = h.dst.is_v6 = true;
  std::memcpy(h.src.bytes.data(), p + 8, 16);
  std::memcpy(h.dst.bytes.data(), p + 24, 16);
  if (header_len) *header_len = kSize;
  return true;
}

}  // namespace vpscope::net
