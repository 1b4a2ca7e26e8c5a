// UDP datagram header (QUIC's carrier).
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.hpp"

namespace vpscope::net {

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  /// Serializes header + payload. Checksum left zero (legal for IPv4 UDP and
  /// conventional at capture points with checksum offload).
  Bytes serialize(ByteView payload) const;

  /// Parses the header into `out`; false when the datagram is shorter than
  /// 8 bytes or than its own length field. net::decode_into calls it in
  /// place, parse() wraps it.
  static bool parse_into(ByteView datagram, UdpHeader& out,
                         std::size_t* header_len);
  static std::optional<UdpHeader> parse(ByteView datagram,
                                        std::size_t* header_len);
};

}  // namespace vpscope::net
