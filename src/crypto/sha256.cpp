#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/kernels.hpp"
#include "util/cpu_features.hpp"

#if VPSCOPE_CRYPTO_X86
#include <immintrin.h>
#endif

namespace vpscope::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace kernels {

void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[i * 4]) << 24 |
             static_cast<std::uint32_t>(data[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(data[i * 4 + 2]) << 8 |
             data[i * 4 + 3];
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if VPSCOPE_CRYPTO_X86
// SHA-NI keeps the working variables as two vectors, ABEF and CDGH (A and
// C in the top lane); SHA256RNDS2 runs two rounds from the low two lanes of
// W+K, and SHA256MSG1/MSG2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t blocks) {
  // Lanes are listed low to high.
  const __m128i big_endian =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i badc = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xb1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)),
      0x1b);
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);     // F E B A
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xf0);  // H G D C

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g % 4] holds W[4g .. 4g+3] for the group g being run. Fully
    // unrolled so msg[] stays in registers: as a loop it spills, and a
    // compression cost 96 ns instead of 58 ns on a Xeon with SHA-NI.
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& m = msg[g & 3];
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            big_endian);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]; m holds
        // W[t-16..t-13] on entry.
        m = _mm_sha256msg1_epu32(m, msg[(g + 1) & 3]);
        m = _mm_add_epi32(
            m, _mm_alignr_epi8(msg[(g + 3) & 3], msg[(g + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, msg[(g + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i abef_out = _mm_shuffle_epi32(abef, 0x1b);  // A B E F
  const __m128i ghcd = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(abef_out, ghcd, 0xf0));  // A B C D
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(ghcd, abef_out, 8));  // E F G H
}
#endif

}  // namespace kernels

namespace {

using CompressKernel = void (*)(std::array<std::uint32_t, 8>&,
                                const std::uint8_t*, std::size_t);

CompressKernel compress_kernel() {
#if VPSCOPE_CRYPTO_X86
  if (cpu_features().sha && cpu_features().sse41)
    return kernels::sha256_compress_shani;
#endif
  return kernels::sha256_compress_portable;
}

void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
              std::size_t blocks) {
  static const CompressKernel kernel = compress_kernel();
  kernel(state, data, blocks);
}

/// Finishes `block` as the last block of a hash: `used` message bytes, then
/// 0x80, zeros and the 64-bit big-endian bit length of `total_len` bytes.
/// Requires used <= HmacSha256::kOneBlockMessage.
void pad_last_block(std::array<std::uint8_t, Sha256::kBlockSize>& block,
                    std::size_t used, std::uint64_t total_len) {
  constexpr std::size_t kLengthAt = Sha256::kBlockSize - 8;
  block[used] = 0x80;
  std::memset(block.data() + used + 1, 0, kLengthAt - used - 1);
  const std::uint64_t bit_len = total_len * 8;
  for (std::size_t i = 0; i < 8; ++i)
    block[kLengthAt + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
}

/// FIPS 180-4 §5.3.3: H(0).
constexpr Sha256::State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                         0xa54ff53a, 0x510e527f, 0x9b05688c,
                                         0x1f83d9ab, 0x5be0cd19};

void store_state(const Sha256::State& state, std::uint8_t* out) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

}  // namespace

Sha256::Sha256() : state_(kInitialState), buffer_{} {}

void Sha256::update(ByteView data) {
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos = take;
    if (buffer_len_ < kBlockSize) return;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = (data.size() - pos) / kBlockSize;
  if (blocks > 0) {
    compress(state_, data.data() + pos, blocks);
    pos += blocks * kBlockSize;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

Sha256::Digest Sha256::finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length in the
  // last 8 bytes of a block — a second block when fewer than 9 bytes of
  // this one are free.
  constexpr std::size_t kLengthAt = kBlockSize - 8;
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kLengthAt) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kLengthAt - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i)
    buffer_[kLengthAt + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(state_, buffer_.data(), 1);

  Digest out;
  store_state(state_, out.data());
  return out;
}

Sha256::Digest Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

HmacSha256::HmacSha256(ByteView key) {
  std::array<std::uint8_t, Sha256::kBlockSize> pad{};
  if (key.size() > Sha256::kBlockSize) {
    const Sha256::Digest digest = Sha256::digest(key);
    std::copy(digest.begin(), digest.end(), pad.begin());
  } else {
    std::copy(key.begin(), key.end(), pad.begin());
  }
  for (auto& b : pad) b ^= 0x36;
  inner_ = kInitialState;
  compress(inner_, pad.data(), 1);
  for (auto& b : pad) b ^= 0x36 ^ 0x5c;
  outer_ = kInitialState;
  compress(outer_, pad.data(), 1);
}

Sha256::Digest HmacSha256::mac(std::initializer_list<ByteView> parts) const {
  std::size_t total = 0;
  for (const ByteView part : parts) total += part.size();
  std::array<std::uint8_t, Sha256::kBlockSize> block;
  if (total <= kOneBlockMessage) {
    // The key block precedes the message, so the inner hash is 64 + total
    // bytes long.
    std::size_t used = 0;
    for (const ByteView part : parts) {
      if (part.empty()) continue;
      std::memcpy(block.data() + used, part.data(), part.size());
      used += part.size();
    }
    pad_last_block(block, used, Sha256::kBlockSize + total);
    Sha256::State inner = inner_;
    compress(inner, block.data(), 1);
    store_state(inner, block.data());
  } else {
    Sha256 inner(inner_, Sha256::kBlockSize);
    for (const ByteView part : parts) inner.update(part);
    const Sha256::Digest digest = inner.finish();
    std::copy(digest.begin(), digest.end(), block.begin());
  }
  pad_last_block(block, Sha256::kDigestSize,
                 Sha256::kBlockSize + Sha256::kDigestSize);
  Sha256::State outer = outer_;
  compress(outer, block.data(), 1);
  Sha256::Digest out;
  store_state(outer, out.data());
  return out;
}

Sha256::Digest hmac_sha256(ByteView key, ByteView data) {
  return HmacSha256(key).mac({data});
}

}  // namespace vpscope::crypto
