// AES-128 block cipher (FIPS 197) with the two modes QUIC v1 Initial
// protection needs: AES-128-GCM AEAD for the packet payload (RFC 9001 §5.3)
// and raw single-block ECB encryption for header protection mask generation
// (RFC 9001 §5.4.3).
//
// Each primitive has a portable kernel and an x86 kernel (kernels.hpp),
// chosen once from the CPU probe: the key schedule runs on AESKEYGENASSIST
// or on S-box lookups, the AES block and CTR mode on AES-NI (8 CTR blocks
// in flight) or on S-box lookups, GHASH on PCLMULQDQ (8 blocks per
// reduction, H^1..H^8 computed per key) or on Shoup's 4-bit per-key
// tables. The
// portable kernels index tables with key- and data-dependent values, so
// they are not constant-time. That does not matter here: Initial keys
// derive from the DCID every on-path observer sees (RFC 9001 §5.2), so
// there is no secret for a cache or timing side channel to leak. All
// kernels are byte-exact AES/GHASH, validated against FIPS/NIST/RFC
// vectors and against each other in the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>

#include "crypto/kernels.hpp"
#include "util/bytes.hpp"

namespace vpscope::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;

  explicit Aes128(ByteView key);

  /// Encrypts exactly one 16-byte block in place.
  void encrypt_block(std::uint8_t block[kBlockSize]) const;

  /// Convenience: encrypts a 16-byte block and returns the ciphertext.
  std::array<std::uint8_t, kBlockSize> encrypt_block(
      const std::array<std::uint8_t, kBlockSize>& block) const;

  const kernels::AesRoundKeys& round_keys() const { return round_keys_; }

 private:
  kernels::AesRoundKeys round_keys_;
};

/// AES-128-GCM authenticated encryption (NIST SP 800-38D) with a 12-byte
/// nonce and 16-byte tag, the parameters TLS 1.3 / QUIC v1 use.
class Aes128Gcm {
 public:
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;
  /// What the GHASH kernel the CPU probe picks needs of H: its powers for
  /// PCLMULQDQ, Shoup's table for the portable kernel.
  using GhashKey = std::variant<kernels::GhashPowers, kernels::GhashTable>;

  explicit Aes128Gcm(ByteView key);

  /// Returns ciphertext || tag. Throws std::invalid_argument unless the
  /// nonce is 12 bytes.
  Bytes seal(ByteView nonce, ByteView aad, ByteView plaintext) const;

  /// Input is ciphertext || tag. Checks the tag before any decryption; on
  /// success writes the plaintext to the first ciphertext-size bytes of
  /// `out` and returns true. Returns false, with nothing written to `out`,
  /// when the input is shorter than the tag or the tag does not verify.
  /// Throws std::invalid_argument unless the nonce is 12 bytes, or when
  /// `out` is smaller than the ciphertext.
  bool open_into(ByteView nonce, ByteView aad, ByteView ciphertext_and_tag,
                 std::span<std::uint8_t> out) const;

  /// open_into a new buffer: the plaintext, or nullopt if the tag does not
  /// verify.
  std::optional<Bytes> open(ByteView nonce, ByteView aad,
                            ByteView ciphertext_and_tag) const;

 private:
  /// GHASH over aad and ciphertext, masked with E(J0): the tag.
  kernels::Block tag(const kernels::Block& j0, ByteView aad,
                     ByteView ciphertext) const;
  void ghash(kernels::Block& y, ByteView data) const;
  /// out = in ^ the CTR keystream starting at counter J0 + 1; `in` and
  /// `out` may be the same buffer.
  void ctr_xor(const kernels::Block& j0, const std::uint8_t* in,
               std::uint8_t* out, std::size_t size) const;

  Aes128 aes_;
  GhashKey ghash_key_;  // from the GHASH subkey H = AES_K(0^128)
};

}  // namespace vpscope::crypto
