#include "crypto/aes.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/cpu_features.hpp"

#if VPSCOPE_CRYPTO_X86
#include <immintrin.h>
#endif

namespace vpscope::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

}  // namespace

namespace kernels {

AesRoundKeys aes128_expand_key(ByteView key) {
  if (key.size() != 16) throw std::invalid_argument("AES-128 key size");
  // Words are big-endian (the first key byte on top), so RotWord is a left
  // rotate and Rcon lands in the top byte.
  const auto sub_word = [](std::uint32_t w) {
    return static_cast<std::uint32_t>(kSbox[w >> 24]) << 24 |
           static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16 |
           static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8 |
           kSbox[w & 0xff];
  };
  std::uint32_t w[44];
  for (std::size_t i = 0; i < 4; ++i)
    w[i] = static_cast<std::uint32_t>(key[4 * i]) << 24 |
           static_cast<std::uint32_t>(key[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(key[4 * i + 2]) << 8 | key[4 * i + 3];
  for (std::size_t i = 4; i < 44; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % 4 == 0)
      temp = sub_word(temp << 8 | temp >> 24) ^
             static_cast<std::uint32_t>(kRcon[i / 4 - 1]) << 24;
    w[i] = w[i - 4] ^ temp;
  }
  AesRoundKeys rk;
  for (std::size_t i = 0; i < 44; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      rk[4 * i + j] = static_cast<std::uint8_t>(w[i] >> (24 - 8 * j));
  return rk;
}

void aes128_encrypt_portable(const AesRoundKeys& round_keys, Block& block) {
  auto add_round_key = [&](std::size_t round) {
    for (std::size_t i = 0; i < 16; ++i) block[i] ^= round_keys[round * 16 + i];
  };
  auto sub_bytes = [&] {
    for (auto& b : block) b = kSbox[b];
  };
  auto shift_rows = [&] {
    std::uint8_t t;
    // row 1: rotate left by 1
    t = block[1];
    block[1] = block[5];
    block[5] = block[9];
    block[9] = block[13];
    block[13] = t;
    // row 2: rotate left by 2
    std::swap(block[2], block[10]);
    std::swap(block[6], block[14]);
    // row 3: rotate left by 3
    t = block[15];
    block[15] = block[11];
    block[11] = block[7];
    block[7] = block[3];
    block[3] = t;
  };
  auto mix_columns = [&] {
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint8_t* col = block.data() + c * 4;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
      col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
      col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
      col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (std::size_t round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
}

void aes128_ctr_xor_portable(const AesRoundKeys& round_keys,
                             const Block& counter, const std::uint8_t* in,
                             std::uint8_t* out, std::size_t size) {
  Block block = counter;
  std::uint32_t count = static_cast<std::uint32_t>(counter[12]) << 24 |
                        static_cast<std::uint32_t>(counter[13]) << 16 |
                        static_cast<std::uint32_t>(counter[14]) << 8 |
                        counter[15];
  for (std::size_t pos = 0; pos < size; pos += 16, ++count) {
    for (int i = 0; i < 4; ++i)
      block[12 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(count >> (24 - 8 * i));
    Block keystream = block;
    aes128_encrypt_portable(round_keys, keystream);
    const std::size_t take = std::min<std::size_t>(16, size - pos);
    for (std::size_t i = 0; i < take; ++i)
      out[pos + i] = in[pos + i] ^ keystream[i];
  }
}

#if VPSCOPE_CRYPTO_X86

namespace {

/// One FIPS 197 key-expansion step: `assist` is AESKEYGENASSIST of the
/// previous round key, whose top word holds SubWord(RotWord(w3)) ^ Rcon.
__attribute__((target("aes,sse2"))) inline __m128i expand_step(
    __m128i key, __m128i assist) {
  assist = _mm_shuffle_epi32(assist, _MM_SHUFFLE(3, 3, 3, 3));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

}  // namespace

__attribute__((target("aes,sse2"))) AesRoundKeys aes128_expand_key_aesni(
    ByteView key) {
  if (key.size() != 16) throw std::invalid_argument("AES-128 key size");
  __m128i rk[11];
  rk[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data()));
  // The round constant is an immediate operand, hence one line per round.
  rk[1] = expand_step(rk[0], _mm_aeskeygenassist_si128(rk[0], 0x01));
  rk[2] = expand_step(rk[1], _mm_aeskeygenassist_si128(rk[1], 0x02));
  rk[3] = expand_step(rk[2], _mm_aeskeygenassist_si128(rk[2], 0x04));
  rk[4] = expand_step(rk[3], _mm_aeskeygenassist_si128(rk[3], 0x08));
  rk[5] = expand_step(rk[4], _mm_aeskeygenassist_si128(rk[4], 0x10));
  rk[6] = expand_step(rk[5], _mm_aeskeygenassist_si128(rk[5], 0x20));
  rk[7] = expand_step(rk[6], _mm_aeskeygenassist_si128(rk[6], 0x40));
  rk[8] = expand_step(rk[7], _mm_aeskeygenassist_si128(rk[7], 0x80));
  rk[9] = expand_step(rk[8], _mm_aeskeygenassist_si128(rk[8], 0x1b));
  rk[10] = expand_step(rk[9], _mm_aeskeygenassist_si128(rk[9], 0x36));
  AesRoundKeys out;
  for (int i = 0; i < 11; ++i)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + 16 * i), rk[i]);
  return out;
}

// The FIPS 197 round-key bytes are already in the state layout AESENC
// takes, so either key schedule feeds these kernels unchanged.
__attribute__((target("aes,sse2"))) void aes128_encrypt_aesni(
    const AesRoundKeys& round_keys, Block& block) {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys.data());
  __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block.data()));
  b = _mm_xor_si128(b, _mm_loadu_si128(rk));
  for (int round = 1; round < 10; ++round)
    b = _mm_aesenc_si128(b, _mm_loadu_si128(rk + round));
  b = _mm_aesenclast_si128(b, _mm_loadu_si128(rk + 10));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block.data()), b);
}

__attribute__((target("aes,sse2"))) void aes128_ctr_xor_aesni(
    const AesRoundKeys& round_keys, const Block& counter,
    const std::uint8_t* in, std::uint8_t* out, std::size_t size) {
  __m128i rk[11];
  for (int i = 0; i < 11; ++i)
    rk[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys.data() + 16 * i));
  // The counter block as four little-endian lanes: the first three hold
  // the nonce bytes, the last the byte-swapped big-endian count.
  std::int32_t nonce[3];
  std::memcpy(nonce, counter.data(), sizeof(nonce));
  std::uint32_t count = static_cast<std::uint32_t>(counter[12]) << 24 |
                        static_cast<std::uint32_t>(counter[13]) << 16 |
                        static_cast<std::uint32_t>(counter[14]) << 8 |
                        counter[15];
  const auto counter_block = [&](std::uint32_t c) {
    return _mm_set_epi32(static_cast<std::int32_t>(__builtin_bswap32(c)),
                         nonce[2], nonce[1], nonce[0]);
  };
  const auto* src = reinterpret_cast<const __m128i*>(in);
  auto* dst = reinterpret_cast<__m128i*>(out);
  std::size_t pos = 0;
  for (; pos + 128 <= size; pos += 128, count += 8, src += 8, dst += 8) {
    __m128i b[8];
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i)
      b[i] = _mm_xor_si128(counter_block(count + static_cast<std::uint32_t>(i)),
                           rk[0]);
    for (int round = 1; round < 10; ++round) {
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) b[i] = _mm_aesenc_si128(b[i], rk[round]);
    }
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i)
      _mm_storeu_si128(dst + i,
                       _mm_xor_si128(_mm_loadu_si128(src + i),
                                     _mm_aesenclast_si128(b[i], rk[10])));
  }
  for (; pos < size; pos += 16, ++count, ++src, ++dst) {
    __m128i b = _mm_xor_si128(counter_block(count), rk[0]);
    for (int round = 1; round < 10; ++round) b = _mm_aesenc_si128(b, rk[round]);
    b = _mm_aesenclast_si128(b, rk[10]);
    if (size - pos >= 16) {
      _mm_storeu_si128(dst, _mm_xor_si128(_mm_loadu_si128(src), b));
    } else {
      // A partial tail goes through a stack block, never past `size`.
      Block tail{};
      std::memcpy(tail.data(), in + pos, size - pos);
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(tail.data()),
          _mm_xor_si128(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(tail.data())),
              b));
      std::memcpy(out + pos, tail.data(), size - pos);
    }
  }
}

#endif

}  // namespace kernels

namespace {

using KeyExpansion = kernels::AesRoundKeys (*)(ByteView);
using AesBlockKernel = void (*)(const kernels::AesRoundKeys&, kernels::Block&);

KeyExpansion key_expansion() {
#if VPSCOPE_CRYPTO_X86
  if (cpu_features().aes) return kernels::aes128_expand_key_aesni;
#endif
  return kernels::aes128_expand_key;
}

kernels::AesRoundKeys expand_key(ByteView key) {
  static const KeyExpansion kernel = key_expansion();
  return kernel(key);
}

AesBlockKernel aes_block_kernel() {
#if VPSCOPE_CRYPTO_X86
  if (cpu_features().aes) return kernels::aes128_encrypt_aesni;
#endif
  return kernels::aes128_encrypt_portable;
}

void aes_encrypt(const kernels::AesRoundKeys& round_keys,
                 kernels::Block& block) {
  static const AesBlockKernel kernel = aes_block_kernel();
  kernel(round_keys, block);
}

using CtrKernel = void (*)(const kernels::AesRoundKeys&,
                           const kernels::Block&, const std::uint8_t*,
                           std::uint8_t*, std::size_t);

CtrKernel ctr_kernel() {
#if VPSCOPE_CRYPTO_X86
  if (cpu_features().aes) return kernels::aes128_ctr_xor_aesni;
#endif
  return kernels::aes128_ctr_xor_portable;
}

void aes_ctr_xor(const kernels::AesRoundKeys& round_keys,
                 const kernels::Block& counter, const std::uint8_t* in,
                 std::uint8_t* out, std::size_t size) {
  static const CtrKernel kernel = ctr_kernel();
  kernel(round_keys, counter, in, out, size);
}

/// The GHASH key material for the kernel the CPU probe picks: H^1..H^8 for
/// PCLMULQDQ, Shoup's table otherwise.
Aes128Gcm::GhashKey ghash_key(const kernels::Block& h) {
#if VPSCOPE_CRYPTO_X86
  static const bool clmul = cpu_features().pclmul && cpu_features().ssse3;
  if (clmul) return kernels::ghash_powers_pclmul(h);
#endif
  return kernels::ghash_table(h);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 3; i >= 0; --i, v >>= 8) p[i] = static_cast<std::uint8_t>(v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8) p[i] = static_cast<std::uint8_t>(v);
}

/// J0 = nonce || 0x00000001 for 96-bit nonces.
kernels::Block counter_block(ByteView nonce) {
  if (nonce.size() != Aes128Gcm::kNonceSize)
    throw std::invalid_argument("GCM nonce must be 12 bytes");
  kernels::Block j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;
  return j0;
}

}  // namespace

Aes128::Aes128(ByteView key) : round_keys_(expand_key(key)) {}

void Aes128::encrypt_block(std::uint8_t block[kBlockSize]) const {
  kernels::Block b;
  std::memcpy(b.data(), block, kBlockSize);
  aes_encrypt(round_keys_, b);
  std::memcpy(block, b.data(), kBlockSize);
}

std::array<std::uint8_t, Aes128::kBlockSize> Aes128::encrypt_block(
    const std::array<std::uint8_t, kBlockSize>& block) const {
  kernels::Block out = block;
  aes_encrypt(round_keys_, out);
  return out;
}

Aes128Gcm::Aes128Gcm(ByteView key)
    : aes_(key), ghash_key_(ghash_key(aes_.encrypt_block(kernels::Block{}))) {}

void Aes128Gcm::ghash(kernels::Block& y, ByteView data) const {
#if VPSCOPE_CRYPTO_X86
  if (const auto* powers = std::get_if<kernels::GhashPowers>(&ghash_key_))
    return kernels::ghash_pclmul(*powers, y, data);
#endif
  kernels::ghash_portable(std::get<kernels::GhashTable>(ghash_key_), y, data);
}

kernels::Block Aes128Gcm::tag(const kernels::Block& j0, ByteView aad,
                              ByteView ciphertext) const {
  kernels::Block s{};
  ghash(s, aad);
  ghash(s, ciphertext);
  kernels::Block lengths;
  store_be64(lengths.data(), static_cast<std::uint64_t>(aad.size()) * 8);
  store_be64(lengths.data() + 8,
             static_cast<std::uint64_t>(ciphertext.size()) * 8);
  ghash(s, lengths);
  const kernels::Block mask = aes_.encrypt_block(j0);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] ^= mask[i];
  return s;
}

void Aes128Gcm::ctr_xor(const kernels::Block& j0, const std::uint8_t* in,
                        std::uint8_t* out, std::size_t size) const {
  kernels::Block counter = j0;
  store_be32(counter.data() + 12, 2);
  aes_ctr_xor(aes_.round_keys(), counter, in, out, size);
}

Bytes Aes128Gcm::seal(ByteView nonce, ByteView aad, ByteView plaintext) const {
  const kernels::Block j0 = counter_block(nonce);
  Bytes out(plaintext.size() + kTagSize);
  ctr_xor(j0, plaintext.data(), out.data(), plaintext.size());
  const kernels::Block t = tag(j0, aad, ByteView{out.data(), plaintext.size()});
  std::copy(t.begin(), t.end(),
            out.begin() + static_cast<std::ptrdiff_t>(plaintext.size()));
  return out;
}

bool Aes128Gcm::open_into(ByteView nonce, ByteView aad,
                          ByteView ciphertext_and_tag,
                          std::span<std::uint8_t> out) const {
  const kernels::Block j0 = counter_block(nonce);
  if (ciphertext_and_tag.size() < kTagSize) return false;
  const ByteView ciphertext =
      ciphertext_and_tag.first(ciphertext_and_tag.size() - kTagSize);
  const ByteView received = ciphertext_and_tag.last(kTagSize);
  if (out.size() < ciphertext.size())
    throw std::invalid_argument("GCM open_into: output smaller than input");

  const kernels::Block expected = tag(j0, aad, ciphertext);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < kTagSize; ++i)
    diff |= static_cast<std::uint8_t>(received[i] ^ expected[i]);
  if (diff != 0) return false;

  ctr_xor(j0, ciphertext.data(), out.data(), ciphertext.size());
  return true;
}

std::optional<Bytes> Aes128Gcm::open(ByteView nonce, ByteView aad,
                                     ByteView ciphertext_and_tag) const {
  Bytes plaintext(ciphertext_and_tag.size() < kTagSize
                      ? 0
                      : ciphertext_and_tag.size() - kTagSize);
  if (!open_into(nonce, aad, ciphertext_and_tag, plaintext))
    return std::nullopt;
  return plaintext;
}

}  // namespace vpscope::crypto
