#include <gtest/gtest.h>

#include "tls/client_hello.hpp"
#include "tls/constants.hpp"
#include "util/rng.hpp"

namespace vpscope::tls {
namespace {

ClientHello make_chrome_like() {
  ClientHello c;
  c.legacy_version = kVersion12;
  for (std::size_t i = 0; i < 32; ++i) c.random[i] = static_cast<std::uint8_t>(i);
  c.session_id = Bytes(32, 0x11);
  c.cipher_suites = {grease_value(2),
                     suite::kAes128GcmSha256,
                     suite::kAes256GcmSha384,
                     suite::kChaCha20Poly1305Sha256,
                     suite::kEcdheEcdsaAes128Gcm,
                     suite::kEcdheRsaAes128Gcm,
                     suite::kEcdheRsaAes256Gcm,
                     suite::kRsaAes128Gcm};
  c.add_server_name("www.youtube.com");
  c.add_extended_master_secret();
  c.add_renegotiation_info();
  c.add_supported_groups({grease_value(4), group::kX25519, group::kSecp256r1,
                          group::kSecp384r1});
  c.add_ec_point_formats({0});
  c.add_session_ticket();
  c.add_alpn({"h2", "http/1.1"});
  c.add_status_request();
  c.add_signature_algorithms({sigalg::kEcdsaSecp256r1Sha256,
                              sigalg::kRsaPssRsaeSha256,
                              sigalg::kRsaPkcs1Sha256});
  c.add_sct();
  c.add_key_shares({grease_value(4), group::kX25519});
  c.add_psk_key_exchange_modes({1});
  c.add_supported_versions({grease_value(6), kVersion13, kVersion12});
  c.add_compress_certificate({certcomp::kBrotli});
  c.add_application_settings({"h2"});
  return c;
}

/// The wire form of a structural hello, parsed from its serialization.
WireClientHello wire_of(const ClientHello& c) {
  WireClientHello w;
  EXPECT_TRUE(w.parse_handshake(c.serialize_handshake()));
  return w;
}

TEST(ClientHello, HandshakeRoundTripPreservesEverything) {
  const ClientHello c = make_chrome_like();
  const Bytes wire = c.serialize_handshake();
  const auto parsed = ClientHello::parse_handshake(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->legacy_version, c.legacy_version);
  EXPECT_EQ(parsed->random, c.random);
  EXPECT_EQ(parsed->session_id, c.session_id);
  EXPECT_EQ(parsed->cipher_suites, c.cipher_suites);
  EXPECT_EQ(parsed->compression_methods, c.compression_methods);
  EXPECT_EQ(parsed->extensions, c.extensions);
}

TEST(ClientHello, RecordRoundTrip) {
  const ClientHello c = make_chrome_like();
  const auto parsed = ClientHello::parse_record(c.serialize_record());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->extensions, c.extensions);
}

TEST(ClientHello, HandshakeBodyLengthMatchesWire) {
  const ClientHello c = make_chrome_like();
  const Bytes wire = c.serialize_handshake();
  // Handshake header is 4 bytes (type + u24 length).
  EXPECT_EQ(wire_of(c).handshake_body_length(), wire.size() - 4);
  const std::uint32_t wire_len = static_cast<std::uint32_t>(wire[1]) << 16 |
                                 static_cast<std::uint32_t>(wire[2]) << 8 |
                                 wire[3];
  EXPECT_EQ(wire_len, wire_of(c).handshake_body_length());
}

TEST(ClientHello, TypedDecoders) {
  const ClientHello c = make_chrome_like();
  const auto parsed = ClientHello::parse_handshake(c.serialize_handshake());
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->server_name(), "www.youtube.com");
  const auto groups = parsed->supported_groups();
  ASSERT_TRUE(groups.has_value());
  EXPECT_EQ(groups->size(), 4u);
  EXPECT_EQ((*groups)[1], group::kX25519);

  const auto alpn = parsed->alpn_protocols();
  ASSERT_TRUE(alpn.has_value());
  EXPECT_EQ(*alpn, (std::vector<std::string>{"h2", "http/1.1"}));

  const auto versions = parsed->supported_versions();
  ASSERT_TRUE(versions.has_value());
  EXPECT_EQ((*versions)[1], kVersion13);

  const auto key_shares = parsed->key_share_groups();
  ASSERT_TRUE(key_shares.has_value());
  EXPECT_EQ(key_shares->back(), group::kX25519);

  const auto comp = parsed->compress_certificate();
  ASSERT_TRUE(comp.has_value());
  EXPECT_EQ(*comp, (std::vector<std::uint16_t>{certcomp::kBrotli}));

  const auto settings = parsed->application_settings();
  ASSERT_TRUE(settings.has_value());
  EXPECT_EQ(*settings, (std::vector<std::string>{"h2"}));

  const WireClientHello wire = wire_of(c);
  EXPECT_TRUE(wire.has_extension(ext::kExtendedMasterSecret));
  EXPECT_TRUE(wire.has_extension(ext::kSignedCertTimestamp));
  EXPECT_FALSE(wire.has_extension(ext::kRecordSizeLimit));
  EXPECT_FALSE(wire.record_size_limit().has_value());
}

TEST(ClientHello, RecordSizeLimitAndDelegatedCredentials) {
  ClientHello c;
  c.cipher_suites = {suite::kAes128GcmSha256};
  c.add_record_size_limit(16385);
  c.add_delegated_credentials({sigalg::kEcdsaSecp256r1Sha256});
  const auto parsed = ClientHello::parse_handshake(c.serialize_handshake());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(wire_of(c).record_size_limit(), 16385);
  const auto dc = parsed->delegated_credentials();
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(dc->front(), sigalg::kEcdsaSecp256r1Sha256);
}

TEST(ClientHello, PaddingReachesTarget) {
  ClientHello c = make_chrome_like();
  c.add_padding_to(512);
  EXPECT_EQ(wire_of(c).handshake_body_length(), 512u);
  // Round trip still works.
  const auto parsed = ClientHello::parse_handshake(c.serialize_handshake());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(wire_of(*parsed).has_extension(ext::kPadding));
}

TEST(ClientHello, PaddingNoOpWhenAlreadyBigger) {
  ClientHello c = make_chrome_like();
  const std::size_t before = wire_of(c).handshake_body_length();
  c.add_padding_to(10);
  EXPECT_EQ(wire_of(c).handshake_body_length(), before);
  EXPECT_FALSE(wire_of(c).has_extension(ext::kPadding));
}

TEST(ClientHello, ParseRejectsTruncation) {
  const Bytes wire = make_chrome_like().serialize_handshake();
  for (std::size_t cut : {std::size_t{1}, std::size_t{10}, wire.size() / 2,
                          wire.size() - 1}) {
    const ByteView truncated{wire.data(), cut};
    EXPECT_FALSE(ClientHello::parse_handshake(truncated).has_value())
        << "cut=" << cut;
  }
}

TEST(ClientHello, ParseRejectsWrongHandshakeType) {
  Bytes wire = make_chrome_like().serialize_handshake();
  wire[0] = 2;  // ServerHello
  EXPECT_FALSE(ClientHello::parse_handshake(wire).has_value());
}

TEST(ClientHello, ExtensionsLengthConsistency) {
  const ClientHello c = make_chrome_like();
  std::size_t manual = 0;
  for (const auto& e : c.extensions) manual += 4 + e.body.size();
  EXPECT_EQ(wire_of(c).extensions_length(), manual);
}

TEST(Grease, Identification) {
  EXPECT_TRUE(is_grease(0x0a0a));
  EXPECT_TRUE(is_grease(0x5a5a));
  EXPECT_TRUE(is_grease(0xfafa));
  EXPECT_FALSE(is_grease(0x1301));
  EXPECT_FALSE(is_grease(0x0a1a));
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(is_grease(grease_value(i)));
}

TEST(Ja3, GreaseExcludedAndStable) {
  const ClientHello c = make_chrome_like();
  const std::string s = ja3_string(c);
  // JA3 strings never contain GREASE values (all are of form 0xXaXa; the
  // smallest, 2570, would render as "2570").
  EXPECT_EQ(s.find("2570"), std::string::npos);
  EXPECT_EQ(s.substr(0, 4), "771,");  // 0x0303
  EXPECT_EQ(ja3_hash(c).size(), 32u);
  EXPECT_EQ(ja3_hash(c), ja3_hash(c));
}

TEST(Ja3, DiffersAcrossDifferentHellos) {
  ClientHello a = make_chrome_like();
  ClientHello b = make_chrome_like();
  b.cipher_suites.push_back(suite::kRsaAes256Gcm);
  EXPECT_NE(ja3_hash(a), ja3_hash(b));
}

TEST(Ja3, GreaseRandomizationDoesNotChangeHash) {
  // Two hellos identical except for GREASE draw must share a JA3.
  ClientHello a = make_chrome_like();
  ClientHello b = make_chrome_like();
  a.cipher_suites[0] = grease_value(1);
  b.cipher_suites[0] = grease_value(9);
  EXPECT_EQ(ja3_hash(a), ja3_hash(b));
}

TEST(ExtensionName, KnownAndUnknown) {
  EXPECT_EQ(extension_name(ext::kServerName), "server_name");
  EXPECT_EQ(extension_name(ext::kQuicTransportParameters),
            "quic_transport_parameters");
  EXPECT_EQ(extension_name(0x0a0a), "grease");
  EXPECT_EQ(extension_name(9999), "unknown(9999)");
}

// Property-style sweep: random subsets of extensions round-trip bit-exactly.
class ChloFuzzRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ChloFuzzRoundTrip, RandomizedHelloRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  ClientHello c;
  c.legacy_version = rng.bernoulli(0.8) ? kVersion12 : kVersion10;
  for (auto& b : c.random) b = static_cast<std::uint8_t>(rng.next_u32());
  if (rng.bernoulli(0.7)) c.session_id = Bytes(32, static_cast<std::uint8_t>(rng.next_u32()));
  const int n_suites = rng.uniform_int(1, 20);
  for (int i = 0; i < n_suites; ++i)
    c.cipher_suites.push_back(static_cast<std::uint16_t>(rng.next_u32()));

  if (rng.bernoulli(0.9)) c.add_server_name("host" + std::to_string(rng.uniform(0, 999)) + ".example.com");
  if (rng.bernoulli(0.8)) {
    std::vector<std::uint16_t> groups;
    for (int i = rng.uniform_int(1, 6); i > 0; --i)
      groups.push_back(static_cast<std::uint16_t>(rng.next_u32()));
    c.add_supported_groups(groups);
  }
  if (rng.bernoulli(0.5)) c.add_ec_point_formats({0});
  if (rng.bernoulli(0.8))
    c.add_signature_algorithms({static_cast<std::uint16_t>(rng.next_u32()),
                                static_cast<std::uint16_t>(rng.next_u32())});
  if (rng.bernoulli(0.7)) c.add_alpn({"h2", "http/1.1"});
  if (rng.bernoulli(0.5)) c.add_session_ticket(rng.uniform(0, 64));
  if (rng.bernoulli(0.5)) c.add_supported_versions({kVersion13, kVersion12});
  if (rng.bernoulli(0.4)) c.add_key_shares({group::kX25519});
  if (rng.bernoulli(0.3)) c.add_record_size_limit(static_cast<std::uint16_t>(rng.uniform(64, 65535)));
  if (rng.bernoulli(0.3)) c.add_raw(static_cast<std::uint16_t>(rng.uniform(1000, 60000)),
                                    Bytes(rng.uniform(0, 40), 0xee));
  if (rng.bernoulli(0.5)) c.add_padding_to(rng.uniform(200, 700));

  const Bytes wire = c.serialize_handshake();
  const auto parsed = ClientHello::parse_handshake(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->legacy_version, c.legacy_version);
  EXPECT_EQ(parsed->cipher_suites, c.cipher_suites);
  EXPECT_EQ(parsed->extensions, c.extensions);
  // Serialize-parse-serialize is a fixed point.
  EXPECT_EQ(parsed->serialize_handshake(), wire);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChloFuzzRoundTrip, ::testing::Range(0, 50));

}  // namespace
}  // namespace vpscope::tls
