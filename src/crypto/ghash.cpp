// GHASH kernels (NIST SP 800-38D §6.4). GCM numbers the bits of a block
// from the most significant bit of byte 0 (coefficient of x^0) to the least
// significant bit of byte 15 (x^127), so multiplying by x is a right shift,
// and a bit shifted past x^127 folds back as R = 0xe1 || 0^120.
#include <algorithm>
#include <cstring>

#include "crypto/kernels.hpp"

#if VPSCOPE_CRYPTO_X86
#include <immintrin.h>
#endif

namespace vpscope::crypto::kernels {

namespace {

constexpr std::uint64_t kR = 0xe1ULL << 56;

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | p[i];
  return v;
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8) p[i] = static_cast<std::uint8_t>(v);
}

/// Reduction for a 4-bit right shift: entry r folds back the four bits r
/// pushed past x^127 (bit 0 of r was x^127 and becomes x^131, bit 3 was
/// x^124 and becomes x^128), as a value for the high 64-bit half.
constexpr std::array<std::uint64_t, 16> kReduce4 = [] {
  std::array<std::uint64_t, 16> t{};
  for (unsigned r = 0; r < 16; ++r)
    for (unsigned bit = 0; bit < 4; ++bit)
      if (r >> bit & 1) t[r] ^= kR >> (3 - bit);
  return t;
}();

/// x = x * H, Horner's rule over the 32 nibbles from x^127 down to x^0:
/// z = z * x^4 + table[nibble].
void mul_h(const GhashTable& table, Block& x) {
  std::uint64_t hi = 0, lo = 0;
  const auto step = [&](unsigned nibble) {
    const unsigned carry = static_cast<unsigned>(lo & 0x0f);
    lo = (lo >> 4) | (hi << 60);
    hi = (hi >> 4) ^ kReduce4[carry] ^ table.hi[nibble];
    lo ^= table.lo[nibble];
  };
  for (int i = 15; i >= 0; --i) {
    step(x[static_cast<std::size_t>(i)] & 0x0fu);
    step(x[static_cast<std::size_t>(i)] >> 4);
  }
  store_be64(x.data(), hi);
  store_be64(x.data() + 8, lo);
}

}  // namespace

GhashTable ghash_table(const Block& h) {
  // The nibble's high bit is its lowest power: table[8] = H, table[4] =
  // H*x, table[2] = H*x^2, table[1] = H*x^3; the rest are XOR sums.
  GhashTable t;
  std::uint64_t hi = load_be64(h.data());
  std::uint64_t lo = load_be64(h.data() + 8);
  t.hi[8] = hi;
  t.lo[8] = lo;
  for (std::size_t i = 4; i > 0; i >>= 1) {
    const std::uint64_t carry = lo & 1;
    lo = (lo >> 1) | (hi << 63);
    hi = (hi >> 1) ^ (carry * kR);
    t.hi[i] = hi;
    t.lo[i] = lo;
  }
  for (std::size_t i = 2; i < 16; i <<= 1)
    for (std::size_t j = 1; j < i; ++j) {
      t.hi[i + j] = t.hi[i] ^ t.hi[j];
      t.lo[i + j] = t.lo[i] ^ t.lo[j];
    }
  return t;
}

void ghash_portable(const GhashTable& table, Block& y, ByteView data) {
  for (std::size_t pos = 0; pos < data.size(); pos += 16) {
    const std::size_t take = std::min<std::size_t>(16, data.size() - pos);
    for (std::size_t i = 0; i < take; ++i) y[i] ^= data[pos + i];
    mul_h(table, y);
  }
}

#if VPSCOPE_CRYPTO_X86

namespace {

/// Products for byte-reversed operands (Gueron & Kounavis, Intel white
/// paper "Carry-Less Multiplication and Its Usage for Computing the GCM
/// Mode", Algorithm 5): each pair adds its 256-bit carry-less product from
/// four PCLMULQDQs into (lo, mid, hi); reduce() then applies the one-bit
/// left shift for GCM's reflected bit order and the two-phase shift-and-XOR
/// reduction modulo x^128 + x^7 + x^2 + x + 1. Both steps are linear, so a
/// sum of products reduces once.
struct Product {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

__attribute__((target("pclmul,ssse3"))) inline void clmul_add(Product& p,
                                                              __m128i a,
                                                              __m128i b) {
  p.lo = _mm_xor_si128(p.lo, _mm_clmulepi64_si128(a, b, 0x00));
  p.hi = _mm_xor_si128(p.hi, _mm_clmulepi64_si128(a, b, 0x11));
  p.mid = _mm_xor_si128(p.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                             _mm_clmulepi64_si128(a, b, 0x01)));
}

__attribute__((target("pclmul,ssse3"))) inline __m128i reduce(
    const Product& p) {
  __m128i lo = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  __m128i hi = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));

  // [hi:lo] <<= 1 across all 256 bits.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));

  // Reduction, first phase: fold lo by x^63, x^62, x^57.
  __m128i fold = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i spill = _mm_srli_si128(fold, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(fold, 12));

  // Second phase: x^1, x^2, x^7 shifts of the folded value.
  fold = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), spill));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, fold));
}

__attribute__((target("pclmul,ssse3"))) inline __m128i clmul_mul(__m128i a,
                                                                 __m128i b) {
  Product p;
  clmul_add(p, a, b);
  return reduce(p);
}

__attribute__((target("ssse3"))) inline __m128i reverse_bytes(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

__attribute__((target("ssse3"))) inline __m128i load_reversed(
    const std::uint8_t* p) {
  return reverse_bytes(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

__attribute__((target("pclmul,ssse3"))) GhashPowers ghash_powers_pclmul(
    const Block& h) {
  GhashPowers powers;
  const __m128i h1 = load_reversed(h.data());
  __m128i hk = h1;
  for (std::size_t k = 0; k < powers.size(); ++k) {
    if (k > 0) hk = clmul_mul(hk, h1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(powers[k].data()), hk);
  }
  return powers;
}

__attribute__((target("pclmul,ssse3"))) void ghash_pclmul(
    const GhashPowers& powers, Block& y, ByteView data) {
  const auto power = [&](std::size_t k) {  // H^k
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(powers[k - 1].data()));
  };
  __m128i acc = load_reversed(y.data());
  std::size_t pos = 0;
  if (data.size() >= 128) {
    __m128i h[8];
    for (std::size_t k = 0; k < 8; ++k) h[k] = power(8 - k);
    // y' = (y ^ X0) H^8 ^ X1 H^7 ^ ... ^ X7 H^1, reduced once.
    for (; pos + 128 <= data.size(); pos += 128) {
      Product p;
      clmul_add(p, _mm_xor_si128(acc, load_reversed(data.data() + pos)), h[0]);
#pragma GCC unroll 7
      for (std::size_t k = 1; k < 8; ++k)
        clmul_add(p, load_reversed(data.data() + pos + 16 * k), h[k]);
      acc = reduce(p);
    }
  }
  const __m128i h1 = power(1);
  for (; pos + 16 <= data.size(); pos += 16)
    acc = clmul_mul(_mm_xor_si128(acc, load_reversed(data.data() + pos)), h1);
  if (pos < data.size()) {
    // A partial tail is copied, never loaded past the end of `data`.
    Block tail{};
    std::memcpy(tail.data(), data.data() + pos, data.size() - pos);
    acc = clmul_mul(_mm_xor_si128(acc, load_reversed(tail.data())), h1);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y.data()), reverse_bytes(acc));
}

#endif  // VPSCOPE_CRYPTO_X86

}  // namespace vpscope::crypto::kernels
