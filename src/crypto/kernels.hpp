// The primitives under QUIC Initial protection — the AES-128 key schedule,
// block and CTR mode, GHASH and the SHA-256 compression — each with one
// portable kernel and one x86 kernel (AES-NI, PCLMULQDQ, SHA-NI). The x86
// CTR and GHASH kernels keep 8 blocks in flight: CTR runs 8 independent
// AES pipelines, GHASH multiplies 8 blocks by H^8..H^1 and reduces once.
// The classes in aes.hpp and sha256.hpp pick a kernel once from
// util/cpu_features.hpp; tests call the kernels here directly to check each
// x86 kernel against its portable twin and both GHASH kernels against a
// bit-serial reference.
//
// Every kernel is byte-exact with the others, so the choice never changes a
// result, only its cost.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define VPSCOPE_CRYPTO_X86 1
#else
#define VPSCOPE_CRYPTO_X86 0
#endif

namespace vpscope::crypto::kernels {

using Block = std::array<std::uint8_t, 16>;

/// Expanded AES-128 key: 11 round keys of 16 bytes in FIPS 197 byte order.
using AesRoundKeys = std::array<std::uint8_t, 176>;

/// Shoup's 4-bit table for one GHASH subkey H: entry i holds the product
/// of H and the 4-bit polynomial i, as (high, low) 64-bit halves.
struct GhashTable {
  std::array<std::uint64_t, 16> hi{};
  std::array<std::uint64_t, 16> lo{};
};

/// H^1..H^8 for the aggregated x86 GHASH: powers[i] = H^(i+1), each with
/// its bytes reversed into the kernel's register order.
using GhashPowers = std::array<Block, 8>;

/// The AES-128 key schedule (FIPS 197 §5.2), shared by both block kernels.
/// Throws std::invalid_argument unless the key is 16 bytes.
AesRoundKeys aes128_expand_key(ByteView key);

/// AES-128 encryption of one block in place.
void aes128_encrypt_portable(const AesRoundKeys& round_keys, Block& block);
/// AES-128 CTR: out = in ^ E(counter), E(inc32(counter)), ... with inc32
/// the big-endian increment of the last 4 bytes mod 2^32. `in` and `out`
/// are `size` bytes and may be the same buffer; a partial last block is
/// neither read nor written past `size`. One block at a time.
void aes128_ctr_xor_portable(const AesRoundKeys& round_keys,
                             const Block& counter, const std::uint8_t* in,
                             std::uint8_t* out, std::size_t size);

/// GHASH absorb: for each 16-byte block X of `data` (the last one zero
/// padded), y = (y ^ X) * H in GF(2^128).
GhashTable ghash_table(const Block& h);
void ghash_portable(const GhashTable& table, Block& y, ByteView data);

/// SHA-256 compression of `blocks` consecutive 64-byte blocks into `state`.
void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t blocks);

#if VPSCOPE_CRYPTO_X86
// Require cpu_features().aes.
/// The same schedule from AESKEYGENASSIST; throws like aes128_expand_key.
AesRoundKeys aes128_expand_key_aesni(ByteView key);
void aes128_encrypt_aesni(const AesRoundKeys& round_keys, Block& block);
/// The CTR above with 8 blocks in flight.
void aes128_ctr_xor_aesni(const AesRoundKeys& round_keys, const Block& counter,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t size);
// Require cpu_features().pclmul and .ssse3.
GhashPowers ghash_powers_pclmul(const Block& h);
/// The GHASH absorb above with one reduction per 8 blocks and a one-block
/// tail.
void ghash_pclmul(const GhashPowers& powers, Block& y, ByteView data);
// Require cpu_features().sha and .sse41.
void sha256_compress_shani(std::array<std::uint32_t, 8>& state,
                           const std::uint8_t* data, std::size_t blocks);
#endif

}  // namespace vpscope::crypto::kernels
