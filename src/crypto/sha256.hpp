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

  Sha256();

  void update(ByteView data);
  Digest finish();

  static Digest digest(ByteView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;  // always < kBlockSize between calls
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104) under one key, held as the SHA-256 states after
/// the inner (key ^ ipad) and outer (key ^ opad) blocks. Keying costs those
/// two compressions once; each MAC then costs only the message's inner
/// compressions plus one outer compression. Copyable, no heap.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);

  /// MAC of the concatenation of `parts`.
  Sha256::Digest mac(std::initializer_list<ByteView> parts) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// One-shot HMAC-SHA256: HmacSha256(key).mac({data}).
Sha256::Digest hmac_sha256(ByteView key, ByteView data);

}  // namespace vpscope::crypto
