// Crypto substrate validation against published test vectors:
// FIPS 180-4 (SHA-256), RFC 4231 (HMAC), RFC 5869 (HKDF), FIPS 197 (AES),
// NIST GCM vectors, RFC 1321 (MD5), and RFC 9001 Appendix A (the QUIC v1
// Initial key schedule, exercised here at the HKDF layer, and the header
// protection mask). The kernel oracle at the end checks every AES, GHASH
// and SHA-256 kernel this CPU can run against a reference: the portable
// GHASH and the aggregated PCLMULQDQ GHASH against a bit-serial GF(2^128)
// multiply, the AES-NI key schedule, block and 8-block CTR and SHA-NI
// against their portable twins. The one-block HMAC is checked against a
// streaming HMAC built from Sha256.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/kernels.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace vpscope::crypto {
namespace {

using kernels::Block;

ByteView sv(const std::string& s) {
  return ByteView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

[[maybe_unused]] std::string hex_of(ByteView b) { return to_hex(b); }

template <std::size_t N>
std::string hex_of(const std::array<std::uint8_t, N>& a) {
  return to_hex(ByteView{a.data(), a.size()});
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

Block random_block(Rng& rng) {
  Block out;
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

// ---- SHA-256 ----

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::digest(sv("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_of(Sha256::digest(
          sv("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(sv(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingBoundaries) {
  // 'a' x n at every padding edge: 55 is the longest message whose padding
  // fits its block, 56-63 spill the length field into a second block, 64
  // and 119/120 repeat that one block later. Digests from Python hashlib.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, expected] : cases)
    EXPECT_EQ(hex_of(Sha256::digest(sv(std::string(n, 'a')))), expected)
        << "n=" << n;
}

TEST(Sha256, StreamingSplitsMatchOneShot) {
  // Property: any split of the input yields the same digest.
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and at "
      "various block boundaries to stress buffering. 0123456789";
  const auto expected = Sha256::digest(sv(msg));
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(sv(msg.substr(0, split)));
    h.update(sv(msg.substr(split)));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

// ---- HMAC-SHA256 (RFC 4231) ----

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_of(hmac_sha256(key, sv("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(hex_of(hmac_sha256(sv("Jefe"), sv("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_of(hmac_sha256(
                key, sv("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

/// HMAC as RFC 2104 writes it, from two streaming hashes.
Sha256::Digest streaming_hmac(ByteView key, ByteView message) {
  std::array<std::uint8_t, Sha256::kBlockSize> pad{};
  if (key.size() > pad.size()) {
    const auto digest = Sha256::digest(key);
    std::copy(digest.begin(), digest.end(), pad.begin());
  } else {
    std::copy(key.begin(), key.end(), pad.begin());
  }
  Sha256 inner;
  for (auto& b : pad) b ^= 0x36;
  inner.update(pad);
  inner.update(message);
  const auto inner_digest = inner.finish();
  Sha256 outer;
  for (auto& b : pad) b ^= 0x36 ^ 0x5c;
  outer.update(pad);
  outer.update(inner_digest);
  return outer.finish();
}

TEST(HmacSha256, OneBlockMacMatchesStreamingForLengths0To200) {
  // Lengths up to kOneBlockMessage take the one-block path, longer ones
  // stream; both must equal the textbook construction, whole or in parts.
  Rng rng(0x686d6163);
  for (const std::size_t key_len : {0, 16, 32, 64, 65, 131}) {
    const Bytes key = random_bytes(rng, key_len);
    const HmacSha256 hmac(key);
    for (std::size_t n = 0; n <= 200; ++n) {
      const Bytes message = random_bytes(rng, n);
      const auto expected = streaming_hmac(key, message);
      ASSERT_EQ(hmac.mac({message}), expected)
          << "key length " << key_len << ", message length " << n;
      const std::size_t cut = n == 0 ? 0 : rng.uniform(0, n);
      const ByteView whole(message);
      ASSERT_EQ(hmac.mac({whole.first(cut), ByteView{}, whole.subspan(cut)}),
                expected)
          << "key length " << key_len << ", message length " << n
          << ", split at " << cut;
    }
  }
}

// ---- HKDF (RFC 5869) ----

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes prk = hkdf_extract({}, ikm);
  const Bytes okm = hkdf_expand(prk, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// ---- QUIC v1 Initial secrets (RFC 9001 Appendix A.1) ----

TEST(Hkdf, QuicV1InitialSecrets) {
  const Bytes dcid = from_hex("8394c8f03e515708");
  const Bytes salt = from_hex("38762cf7f55934b34d179ae6a4c80cadccbb7f0a");
  const Bytes initial_secret = hkdf_extract(salt, dcid);
  EXPECT_EQ(to_hex(initial_secret),
            "7db5df06e7a69e432496adedb00851923595221596ae2ae9fb8115c1e9ed0a44");

  const Bytes client_secret =
      hkdf_expand_label(initial_secret, "client in", {}, 32);
  EXPECT_EQ(to_hex(client_secret),
            "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea");

  EXPECT_EQ(to_hex(hkdf_expand_label(client_secret, "quic key", {}, 16)),
            "1f369613dd76d5467730efcbe3b1a22d");
  EXPECT_EQ(to_hex(hkdf_expand_label(client_secret, "quic iv", {}, 12)),
            "fa044b2f42a3fd3b46fb255c");
  EXPECT_EQ(to_hex(hkdf_expand_label(client_secret, "quic hp", {}, 16)),
            "9f50449e04a0e810283a1e9933adedd2");
}

// ---- AES-128 (FIPS 197 Appendix C.1) ----

TEST(Aes128, Fips197Vector) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, NistSp800_38aEcbVector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes block = from_hex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "3ad77bb40d7a3660a89ecaf32466ef97");
}

// ---- AES-128-GCM (NIST GCM spec test cases) ----

TEST(Aes128Gcm, NistCase1EmptyEverything) {
  const Bytes key(16, 0);
  const Bytes nonce(12, 0);
  Aes128Gcm gcm(key);
  const Bytes out = gcm.seal(nonce, {}, {});
  EXPECT_EQ(to_hex(out), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Aes128Gcm, NistCase2SingleBlock) {
  const Bytes key(16, 0);
  const Bytes nonce(12, 0);
  const Bytes plaintext(16, 0);
  Aes128Gcm gcm(key);
  const Bytes out = gcm.seal(nonce, {}, plaintext);
  EXPECT_EQ(to_hex(out),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Aes128Gcm, NistCase4WithAad) {
  const Bytes key = from_hex("feffe9928665731c6d6a8f9467308308");
  const Bytes nonce = from_hex("cafebabefacedbaddecaf888");
  const Bytes plaintext = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  Aes128Gcm gcm(key);
  const Bytes out = gcm.seal(nonce, aad, plaintext);
  EXPECT_EQ(to_hex(out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
  const auto opened = gcm.open(
      nonce, aad,
      from_hex("42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
               "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
               "5bc94fbc3221a5db94fae95ae7121a47"));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aes128Gcm, SealOpenRoundTrip) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes nonce = from_hex("101112131415161718191a1b");
  const Bytes aad = from_hex("feedface");
  Bytes plaintext;
  for (int i = 0; i < 333; ++i) plaintext.push_back(static_cast<std::uint8_t>(i));
  Aes128Gcm gcm(key);
  const Bytes sealed = gcm.seal(nonce, aad, plaintext);
  const auto opened = gcm.open(nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aes128Gcm, OpenRejectsTamperedCiphertext) {
  const Bytes key(16, 7);
  const Bytes nonce(12, 9);
  Aes128Gcm gcm(key);
  Bytes sealed = gcm.seal(nonce, {}, from_hex("00112233"));
  sealed[1] ^= 0x01;
  EXPECT_FALSE(gcm.open(nonce, {}, sealed).has_value());
}

TEST(Aes128Gcm, OpenRejectsTamperedAad) {
  const Bytes key(16, 7);
  const Bytes nonce(12, 9);
  Aes128Gcm gcm(key);
  const Bytes sealed = gcm.seal(nonce, from_hex("aa"), from_hex("00112233"));
  EXPECT_FALSE(gcm.open(nonce, from_hex("ab"), sealed).has_value());
}

TEST(Aes128Gcm, OpenRejectsShortInput) {
  const Bytes key(16, 7);
  const Bytes nonce(12, 9);
  Aes128Gcm gcm(key);
  EXPECT_FALSE(gcm.open(nonce, {}, from_hex("0011")).has_value());
}

TEST(Aes128Gcm, OpenRejectsWrongNonceSize) {
  const Bytes key(16, 7);
  Aes128Gcm gcm(key);
  const Bytes sealed = gcm.seal(Bytes(12, 9), {}, from_hex("00112233"));
  for (const std::size_t size : {0, 11, 13}) {
    const Bytes nonce(size, 9);
    EXPECT_THROW((void)gcm.open(nonce, {}, sealed), std::invalid_argument)
        << "nonce size " << size;
  }
}

struct GcmCase {
  const char* name;
  const char* key;
  const char* nonce;
  const char* aad;
  const char* plaintext;
  const char* ciphertext_and_tag;
};

/// NIST GCM specification test cases 1-4 (AES-128, 96-bit IV).
const GcmCase kNistGcmCases[] = {
    {"case 1", "00000000000000000000000000000000", "000000000000000000000000",
     "", "", "58e2fccefa7e3061367f1d57a4e7455a"},
    {"case 2", "00000000000000000000000000000000", "000000000000000000000000",
     "", "00000000000000000000000000000000",
     "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"},
    {"case 3", "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"case 4", "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
     "5bc94fbc3221a5db94fae95ae7121a47"},
};

TEST(Aes128Gcm, NistCases1To4ThroughSealOpenAndOpenInto) {
  for (const GcmCase& c : kNistGcmCases) {
    const Bytes key = from_hex(c.key);
    const Bytes nonce = from_hex(c.nonce);
    const Bytes aad = from_hex(c.aad);
    const Bytes plaintext = from_hex(c.plaintext);
    const Bytes sealed = from_hex(c.ciphertext_and_tag);
    const Aes128Gcm gcm(key);
    EXPECT_EQ(to_hex(gcm.seal(nonce, aad, plaintext)), c.ciphertext_and_tag)
        << c.name;
    const auto opened = gcm.open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value()) << c.name;
    EXPECT_EQ(*opened, plaintext) << c.name;
    Bytes out(plaintext.size() + 5, 0xa5);
    ASSERT_TRUE(gcm.open_into(nonce, aad, sealed, out)) << c.name;
    EXPECT_TRUE(std::equal(plaintext.begin(), plaintext.end(), out.begin()))
        << c.name;
    EXPECT_EQ(Bytes(out.end() - 5, out.end()), Bytes(5, 0xa5))
        << c.name << ": wrote past the plaintext";
  }
}

TEST(Aes128Gcm, OpenIntoLeavesOutputUntouchedOnBadTag) {
  Rng rng(0x6f70656e);
  const Bytes key = random_bytes(rng, 16);
  const Bytes nonce = random_bytes(rng, 12);
  const Bytes aad = random_bytes(rng, 21);
  const Aes128Gcm gcm(key);
  for (const std::size_t n : {0, 1, 15, 16, 17, 127, 128, 129, 1200}) {
    const Bytes sealed = gcm.seal(nonce, aad, random_bytes(rng, n));
    const Bytes canary(n + 16, 0xcc);
    // One flipped bit in the first byte (ciphertext, or the tag when the
    // plaintext is empty), in the tag's last byte, and in the AAD.
    for (const std::size_t flip : {std::size_t{0}, sealed.size() - 1}) {
      Bytes bad = sealed;
      bad[flip] ^= 0x01;
      Bytes out = canary;
      EXPECT_FALSE(gcm.open_into(nonce, aad, bad, out));
      EXPECT_EQ(out, canary) << "length " << n << ", flipped byte " << flip;
    }
    Bytes bad_aad = aad;
    bad_aad[3] ^= 0x80;
    Bytes out = canary;
    EXPECT_FALSE(gcm.open_into(nonce, bad_aad, sealed, out));
    EXPECT_EQ(out, canary) << "length " << n << ", flipped AAD bit";
  }
  // A short input fails without writing; a short output is a caller error.
  Bytes out(8, 0xcc);
  EXPECT_FALSE(gcm.open_into(nonce, aad, from_hex("0011"), out));
  EXPECT_EQ(out, Bytes(8, 0xcc));
  const Bytes sealed = gcm.seal(nonce, aad, Bytes(9, 1));
  EXPECT_THROW((void)gcm.open_into(nonce, aad, sealed, out),
               std::invalid_argument);
}

// ---- MD5 (RFC 1321 Appendix A.5) ----

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(hex_of(md5({})), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex_of(md5(sv("abc"))), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex_of(md5(sv("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex_of(md5(sv("abcdefghijklmnopqrstuvwxyz"))),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

// ---- Kernel oracle ----

/// The bit-serial GF(2^128) multiply of SP 800-38D Algorithm 1, the
/// reference every GHASH kernel is checked against.
Block gf128_mul(const Block& x, const Block& y) {
  Block z{};
  Block v = y;
  for (std::size_t i = 0; i < 128; ++i) {
    if ((x[i / 8] >> (7 - i % 8)) & 1)
      for (std::size_t j = 0; j < 16; ++j) z[j] ^= v[j];
    // v = v * x: a right shift in GCM's bit order, reduced by R = 0xe1...
    const bool lsb = v[15] & 1;
    for (std::size_t j = 15; j > 0; --j)
      v[j] = static_cast<std::uint8_t>((v[j] >> 1) | (v[j - 1] << 7));
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  return z;
}

void ghash_reference(const Block& h, Block& y, ByteView data) {
  for (std::size_t pos = 0; pos < data.size(); pos += 16) {
    for (std::size_t i = 0; i < 16 && pos + i < data.size(); ++i)
      y[i] ^= data[pos + i];
    y = gf128_mul(y, h);
  }
}

using GhashKernel = std::function<void(const Block& h, Block& y, ByteView)>;

/// GCM's use of GHASH: AAD, ciphertext, then the bit-length block.
Block gcm_ghash(const GhashKernel& kernel, const Block& h, Block y,
                ByteView aad, ByteView ciphertext) {
  kernel(h, y, aad);
  kernel(h, y, ciphertext);
  Block lengths{};
  const std::uint64_t bits[2] = {aad.size() * 8, ciphertext.size() * 8};
  for (std::size_t i = 0; i < 16; ++i)
    lengths[i] = static_cast<std::uint8_t>(bits[i / 8] >> (56 - 8 * (i % 8)));
  kernel(h, y, lengths);
  return y;
}

/// Every ciphertext length 0 to `max_length` (so every tail length mod 16,
/// and for the aggregated kernel every block count mod 8), with random H,
/// starting value, AAD length and bytes.
void expect_matches_bit_serial(const GhashKernel& kernel,
                               std::size_t max_length) {
  Rng rng(0x67686173);
  for (std::size_t n = 0; n <= max_length; ++n) {
    const Block h = random_block(rng);
    const Block y = random_block(rng);
    const Bytes aad = random_bytes(rng, rng.uniform(0, 200));
    const Bytes ciphertext = random_bytes(rng, n);
    ASSERT_EQ(gcm_ghash(kernel, h, y, aad, ciphertext),
              gcm_ghash(ghash_reference, h, y, aad, ciphertext))
        << "ciphertext length " << n << ", aad length " << aad.size();
  }
}

TEST(GhashKernel, PortableMatchesBitSerial) {
  expect_matches_bit_serial(
      [](const Block& h, Block& y, ByteView data) {
        kernels::ghash_portable(kernels::ghash_table(h), y, data);
      },
      300);
}

#if VPSCOPE_CRYPTO_X86
TEST(GhashKernel, PclmulMatchesBitSerial) {
  // The aggregated kernel: H^1..H^8 from ghash_powers_pclmul, 8 blocks per
  // reduction, then a one-block tail.
  if (!cpu_features().pclmul || !cpu_features().ssse3)
    GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_matches_bit_serial(
      [](const Block& h, Block& y, ByteView data) {
        kernels::ghash_pclmul(kernels::ghash_powers_pclmul(h), y, data);
      },
      2048);
}

TEST(AesKernel, AesniKeyExpansionMatchesPortable) {
  if (!cpu_features().aes) GTEST_SKIP() << "CPU lacks AES-NI";
  // FIPS 197 Appendix A.1: the last round key, w[40..43], for this key.
  const Bytes fips_key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto fips = kernels::aes128_expand_key_aesni(fips_key);
  EXPECT_EQ(to_hex(ByteView{fips.data() + 160, 16}),
            "d014f9a8c9ee2589e13f0cc8b6630ca6");
  EXPECT_EQ(fips, kernels::aes128_expand_key(fips_key));
  Rng rng(0x6b657973);
  for (int i = 0; i < 10'000; ++i) {
    const Bytes key = random_bytes(rng, 16);
    ASSERT_EQ(kernels::aes128_expand_key_aesni(key),
              kernels::aes128_expand_key(key))
        << "key " << to_hex(key);
  }
  EXPECT_THROW((void)kernels::aes128_expand_key_aesni(Bytes(15)),
               std::invalid_argument);
}

#endif

/// CTR one block at a time on the portable block kernel.
Bytes ctr_reference(const kernels::AesRoundKeys& round_keys, Block counter,
                    ByteView in) {
  Bytes out(in.begin(), in.end());
  for (std::size_t pos = 0; pos < in.size(); pos += 16) {
    Block keystream = counter;
    kernels::aes128_encrypt_portable(round_keys, keystream);
    for (std::size_t i = 0; i < 16 && pos + i < in.size(); ++i)
      out[pos + i] ^= keystream[i];
    for (std::size_t i = 15; i >= 12; --i)  // inc32
      if (++counter[i] != 0) break;
  }
  return out;
}

/// Checks one CTR kernel against ctr_reference: every length 0..max_len,
/// every other one starting at 0xfffffffa so inc32 wraps early, into a
/// buffer with a guard byte and in place.
template <class Kernel>
void expect_ctr_matches_reference(Kernel kernel, std::uint64_t seed,
                                  std::size_t max_len) {
  Rng rng(seed);
  for (std::size_t n = 0; n <= max_len; ++n) {
    const auto round_keys = kernels::aes128_expand_key(random_bytes(rng, 16));
    Block counter = random_block(rng);
    if (n % 2 == 0) {
      // Start at 0xfffffffa: inc32 wraps inside the first 8-block stride.
      counter[12] = counter[13] = counter[14] = 0xff;
      counter[15] = 0xfa;
    }
    const Bytes in = random_bytes(rng, n);
    const Bytes expected = ctr_reference(round_keys, counter, in);
    Bytes out(n + 1, 0xee);  // one guard byte past the output
    kernel(round_keys, counter, in.data(), out.data(), n);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
        << "length " << n << ", counter " << to_hex(counter);
    ASSERT_EQ(out[n], 0xee) << "wrote past length " << n;
    Bytes in_place = in;
    kernel(round_keys, counter, in_place.data(), in_place.data(), n);
    ASSERT_EQ(in_place, expected) << "in place, length " << n;
  }
}

TEST(AesKernel, PortableCtrMatchesOneBlockCtr) {
  expect_ctr_matches_reference(kernels::aes128_ctr_xor_portable, 0x70637472,
                               300);
}

#if VPSCOPE_CRYPTO_X86
TEST(AesKernel, EightBlockCtrMatchesOneBlockCtr) {
  if (!cpu_features().aes) GTEST_SKIP() << "CPU lacks AES-NI";
  expect_ctr_matches_reference(kernels::aes128_ctr_xor_aesni, 0x63747238,
                               2048);
}

TEST(AesKernel, AesniMatchesPortable) {
  if (!cpu_features().aes) GTEST_SKIP() << "CPU lacks AES-NI";
  Rng rng(0x6165736e69);
  for (int i = 0; i < 1000; ++i) {
    const auto round_keys = kernels::aes128_expand_key(random_bytes(rng, 16));
    Block portable = random_block(rng);
    Block aesni = portable;
    kernels::aes128_encrypt_portable(round_keys, portable);
    kernels::aes128_encrypt_aesni(round_keys, aesni);
    ASSERT_EQ(aesni, portable) << "case " << i;
  }
}

TEST(Sha256Kernel, ShaniMatchesPortable) {
  if (!cpu_features().sha || !cpu_features().sse41)
    GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(0x7368616e69);
  for (int i = 0; i < 500; ++i) {
    std::array<std::uint32_t, 8> portable;
    for (auto& word : portable) word = rng.next_u32();
    auto shani = portable;
    const std::size_t blocks = rng.uniform(1, 4);
    const Bytes data = random_bytes(rng, blocks * Sha256::kBlockSize);
    kernels::sha256_compress_portable(portable, data.data(), blocks);
    kernels::sha256_compress_shani(shani, data.data(), blocks);
    ASSERT_EQ(shani, portable) << "case " << i;
  }
}
#endif

TEST(AesKernel, Rfc9001HeaderProtectionMaskOnEachPath) {
  // RFC 9001 Appendix A.2: the client's hp key and first sample.
  using AesBlockKernel = void (*)(const kernels::AesRoundKeys&, Block&);
  std::vector<std::pair<const char*, AesBlockKernel>> paths = {
      {"portable", kernels::aes128_encrypt_portable}};
#if VPSCOPE_CRYPTO_X86
  if (cpu_features().aes) paths.emplace_back("aesni", kernels::aes128_encrypt_aesni);
#endif
  const auto round_keys =
      kernels::aes128_expand_key(from_hex("9f50449e04a0e810283a1e9933adedd2"));
  const Bytes sample = from_hex("d1b1c98dd7689fb8ec11d242b123dc9b");
  for (const auto& [name, kernel] : paths) {
    Block mask;
    std::copy(sample.begin(), sample.end(), mask.begin());
    kernel(round_keys, mask);
    EXPECT_EQ(to_hex(ByteView{mask.data(), 5}), "437b9aec36") << name;
  }
}

}  // namespace
}  // namespace vpscope::crypto
