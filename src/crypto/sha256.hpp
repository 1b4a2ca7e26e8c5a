// SHA-256 (FIPS 180-4) — the hash underpinning HKDF and the TLS 1.3 /
// QUIC v1 Initial key schedule. Streaming interface plus one-shot helper,
// and HMAC-SHA256 keyed once into its two pad states. The compression runs
// on SHA-NI when the CPU has it, else on the portable kernel (kernels.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "util/bytes.hpp"

namespace vpscope::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;
  /// The eight working words between compressions.
  using State = std::array<std::uint32_t, 8>;

  Sha256();

  void update(ByteView data);
  Digest finish();

  static Digest digest(ByteView data);

 private:
  friend class HmacSha256;
  /// Resumes a hash whose first `total_len` bytes (whole blocks) left
  /// `state`.
  Sha256(const State& state, std::uint64_t total_len)
      : state_(state), buffer_{}, total_len_(total_len) {}

  State state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;  // always < kBlockSize between calls
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104) under one key, held as the two SHA-256 states
/// after the inner (key ^ ipad) and outer (key ^ opad) blocks. Keying costs
/// those two compressions once. A MAC whose message fits one padded block
/// (at most kOneBlockMessage bytes, as every MAC of the QUIC Initial key
/// schedule does) then costs exactly one inner and one outer compression;
/// a longer one streams its inner blocks. Copyable, no heap.
class HmacSha256 {
 public:
  /// The longest message whose SHA-256 padding fits the same block.
  static constexpr std::size_t kOneBlockMessage = Sha256::kBlockSize - 9;

  explicit HmacSha256(ByteView key);

  /// MAC of the concatenation of `parts`.
  Sha256::Digest mac(std::initializer_list<ByteView> parts) const;

 private:
  Sha256::State inner_;
  Sha256::State outer_;
};

/// One-shot HMAC-SHA256: HmacSha256(key).mac({data}).
Sha256::Digest hmac_sha256(ByteView key, ByteView data);

}  // namespace vpscope::crypto
