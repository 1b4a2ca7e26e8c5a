// AES-128 block cipher (FIPS 197) with the two modes QUIC v1 Initial
// protection needs: AES-128-GCM AEAD for the packet payload (RFC 9001 §5.3)
// and raw single-block ECB encryption for header protection mask generation
// (RFC 9001 §5.4.3).
//
// Each primitive has a portable kernel and an x86 kernel (kernels.hpp),
// chosen once from the CPU probe: the AES block runs on AES-NI or on S-box
// lookups, GHASH on PCLMULQDQ or on Shoup's 4-bit per-key tables. The
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

 private:
  kernels::AesRoundKeys round_keys_;
};

/// AES-128-GCM authenticated encryption (NIST SP 800-38D) with a 12-byte
/// nonce and 16-byte tag, the parameters TLS 1.3 / QUIC v1 use.
class Aes128Gcm {
 public:
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  explicit Aes128Gcm(ByteView key);

  /// Returns ciphertext || tag. Throws std::invalid_argument unless the
  /// nonce is 12 bytes.
  Bytes seal(ByteView nonce, ByteView aad, ByteView plaintext) const;

  /// Input is ciphertext || tag; returns plaintext, or nullopt if the tag
  /// does not verify. The tag is checked before anything is decrypted.
  /// Throws std::invalid_argument unless the nonce is 12 bytes.
  std::optional<Bytes> open(ByteView nonce, ByteView aad,
                            ByteView ciphertext_and_tag) const;

 private:
  /// GHASH over aad and ciphertext, masked with E(J0): the tag.
  kernels::Block tag(const kernels::Block& j0, ByteView aad,
                     ByteView ciphertext) const;
  void ghash(kernels::Block& y, ByteView data) const;
  /// XORs the CTR keystream starting at counter J0 + 1 into `data`.
  void ctr_xor(const kernels::Block& j0, std::uint8_t* data,
               std::size_t size) const;

  Aes128 aes_;
  kernels::Block h_;  // GHASH subkey = AES_K(0^128)
  bool clmul_ = false;
  kernels::GhashTable table_;  // filled only when clmul_ is false
};

}  // namespace vpscope::crypto
