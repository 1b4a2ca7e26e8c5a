// TCP segment header with full option parsing. The SYN of the three-way
// handshake carries the transport-layer fingerprint surface the paper's
// attributes t3..t14 are extracted from (flags, window, MSS, window scale,
// SACK-permitted).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>

#include "util/bytes.hpp"

namespace vpscope::net {

struct TcpFlags {
  bool cwr = false;
  bool ece = false;
  bool urg = false;
  bool ack = false;
  bool psh = false;
  bool rst = false;
  bool syn = false;
  bool fin = false;

  std::uint8_t to_byte() const;
  static TcpFlags from_byte(std::uint8_t b);
};

/// The on-wire option kind sequence of one header, held in a fixed list:
/// every option takes at least its kind byte and a header carries at most
/// 40 option bytes, so 40 entries always suffice and parsing never
/// allocates.
class TcpOptionKinds {
 public:
  static constexpr std::size_t kCapacity = 40;
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;

  TcpOptionKinds() = default;
  TcpOptionKinds(std::initializer_list<std::uint8_t> kinds) {
    assign(ByteView{kinds.begin(), kinds.size()});
  }

  /// Replaces the list with the first kCapacity entries of `kinds`.
  void assign(ByteView kinds) {
    size_ = 0;
    for (const std::uint8_t k : kinds) push_back(k);
  }
  /// Appends `kind`; a full list ignores it (unreachable from the parser).
  void push_back(std::uint8_t kind) {
    if (size_ < kCapacity) kinds_[size_++] = kind;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return kinds_.data(); }
  const_iterator end() const { return kinds_.data() + size_; }

  friend bool operator==(const TcpOptionKinds& a, ByteView b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::array<std::uint8_t, kCapacity> kinds_{};
  std::uint8_t size_ = 0;
};

/// Parsed TCP options relevant to platform fingerprinting. `kind_order`
/// preserves the raw on-wire option kind sequence (another stack signature,
/// kept for completeness and used by the Fan-2019 baseline).
struct TcpOptions {
  std::optional<std::uint16_t> mss;
  std::optional<std::uint8_t> window_scale;
  bool sack_permitted = false;
  bool timestamps = false;
  std::uint32_t ts_value = 0;
  TcpOptionKinds kind_order;
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

  /// Serializes header (with options, padded to a 4-byte boundary) followed
  /// by payload. The checksum field is left zero: the synthesizer operates
  /// above a capture point where TCP checksum offload makes zero checksums
  /// the norm, and the parser never validates them.
  Bytes serialize(ByteView payload) const;

  /// Parses a header into `out`, which must be freshly constructed (its
  /// option list empty). Returns false on truncation or malformed options;
  /// on success `header_len` reports where the payload begins. The one TCP
  /// parser: net::decode_into calls it in place, parse() wraps it.
  static bool parse_into(ByteView segment, TcpHeader& out,
                         std::size_t* header_len);
  static std::optional<TcpHeader> parse(ByteView segment,
                                        std::size_t* header_len);
};

}  // namespace vpscope::net
