#include <gtest/gtest.h>

#include "quic/initial.hpp"
#include "quic/transport_params.hpp"
#include "quic/varint.hpp"
#include "tls/client_hello.hpp"
#include "util/rng.hpp"

namespace vpscope::quic {
namespace {

// ---- varint ----

TEST(Varint, KnownEncodings) {
  // Examples from RFC 9000 §A.1.
  struct Case {
    std::uint64_t value;
    std::string hex;
  };
  const Case cases[] = {
      {151288809941952652ULL, "c2197c5eff14e88c"},
      {494878333ULL, "9d7f3e7d"},
      {15293ULL, "7bbd"},
      {37ULL, "25"},
  };
  for (const auto& c : cases) {
    Writer w;
    put_varint(w, c.value);
    EXPECT_EQ(to_hex(w.data()), c.hex);
    Reader r(w.data());
    EXPECT_EQ(get_varint(r), c.value);
    EXPECT_TRUE(r.ok());
  }
}

TEST(Varint, SizeBoundaries) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(63), 1u);
  EXPECT_EQ(varint_size(64), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 4u);
  EXPECT_EQ(varint_size(1073741823), 4u);
  EXPECT_EQ(varint_size(1073741824), 8u);
}

TEST(Varint, RejectsOverflow) {
  Writer w;
  EXPECT_THROW(put_varint(w, kVarintMax + 1), std::invalid_argument);
}

TEST(Varint, TruncationFailsReader) {
  const Bytes data = {0xc0};  // promises 8 bytes, has 1
  Reader r(data);
  get_varint(r);
  EXPECT_FALSE(r.ok());
}

class VarintRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(VarintRoundTrip, RandomValues) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng.next_u64() & kVarintMax;
    Writer w;
    put_varint(w, v);
    Reader r(w.data());
    EXPECT_EQ(get_varint(r), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintRoundTrip, ::testing::Range(0, 5));

// ---- transport parameters ----

TransportParameters make_chrome_tp() {
  TransportParameters tp;
  tp.max_idle_timeout = 30000;
  tp.max_udp_payload_size = 1472;
  tp.initial_max_data = 15728640;
  tp.initial_max_stream_data_bidi_local = 6291456;
  tp.initial_max_stream_data_bidi_remote = 6291456;
  tp.initial_max_stream_data_uni = 6291456;
  tp.initial_max_streams_bidi = 100;
  tp.initial_max_streams_uni = 103;
  tp.max_ack_delay = 25;
  tp.active_connection_id_limit = 4;
  tp.initial_source_connection_id = from_hex("c0ffee00c0ffee00");
  tp.has_initial_source_connection_id = true;
  tp.max_datagram_frame_size = 65536;
  tp.google_connection_options = "RVCM";
  tp.user_agent = "Chrome/124.0.6367.91 Windows NT 10.0; Win64; x64";
  tp.google_version = 0x00000001;
  return tp;
}

TEST(TransportParams, RoundTripAllFields) {
  const TransportParameters tp = make_chrome_tp();
  const Bytes wire = tp.serialize();
  const auto parsed = TransportParameters::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->max_idle_timeout, 30000u);
  EXPECT_EQ(parsed->max_udp_payload_size, 1472u);
  EXPECT_EQ(parsed->initial_max_data, 15728640u);
  EXPECT_EQ(parsed->initial_max_stream_data_bidi_local, 6291456u);
  EXPECT_EQ(parsed->initial_max_streams_bidi, 100u);
  EXPECT_EQ(parsed->initial_max_streams_uni, 103u);
  EXPECT_EQ(parsed->max_ack_delay, 25u);
  EXPECT_EQ(parsed->active_connection_id_limit, 4u);
  EXPECT_EQ(parsed->initial_source_connection_id, from_hex("c0ffee00c0ffee00"));
  EXPECT_EQ(parsed->max_datagram_frame_size, 65536u);
  EXPECT_EQ(parsed->google_connection_options, "RVCM");
  EXPECT_EQ(parsed->user_agent, tp.user_agent);
  EXPECT_EQ(parsed->google_version, 1u);
  EXPECT_FALSE(parsed->grease_quic_bit);
  EXPECT_FALSE(parsed->disable_active_migration);
}

TEST(TransportParams, PresenceOnlyParams) {
  TransportParameters tp;
  tp.grease_quic_bit = true;
  tp.disable_active_migration = true;
  const auto parsed = TransportParameters::parse(tp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->grease_quic_bit);
  EXPECT_TRUE(parsed->disable_active_migration);
}

TEST(TransportParams, OrderPreservedInParse) {
  TransportParameters tp = make_chrome_tp();
  tp.param_order = {tp::kUserAgent, tp::kMaxIdleTimeout, tp::kInitialMaxData,
                    tp::kGoogleVersion};
  const auto parsed = TransportParameters::parse(tp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->param_order,
            (std::vector<std::uint64_t>{tp::kUserAgent, tp::kMaxIdleTimeout,
                                        tp::kInitialMaxData,
                                        tp::kGoogleVersion}));
}

TEST(TransportParams, GreaseParamsRecordedInOrder) {
  TransportParameters tp;
  tp.max_idle_timeout = 1000;
  tp.param_order = {27 + 31 * 5, tp::kMaxIdleTimeout};  // GREASE id first
  const auto parsed = TransportParameters::parse(tp.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->param_order.size(), 2u);
  EXPECT_TRUE(tp::is_grease(parsed->param_order[0]));
  EXPECT_EQ(parsed->max_idle_timeout, 1000u);
}

TEST(TransportParams, ParseRejectsTruncated) {
  const TransportParameters tp = make_chrome_tp();
  Bytes wire = tp.serialize();
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(TransportParameters::parse(wire).has_value());
}

// ---- Initial packet protection ----

tls::ClientHello make_quic_chlo() {
  tls::ClientHello c;
  c.cipher_suites = {tls::suite::kAes128GcmSha256,
                     tls::suite::kAes256GcmSha384,
                     tls::suite::kChaCha20Poly1305Sha256};
  c.add_server_name("www.youtube.com");
  c.add_alpn({"h3"});
  c.add_supported_versions({tls::kVersion13});
  c.add_key_shares({tls::group::kX25519});
  TransportParameters tp;
  tp.max_idle_timeout = 30000;
  tp.initial_source_connection_id = from_hex("1122334455667788");
  tp.has_initial_source_connection_id = true;
  c.add_quic_transport_parameters(tp.serialize());
  return c;
}

TEST(Initial, SingleDatagramRoundTrip) {
  const tls::ClientHello chlo = make_quic_chlo();
  const Bytes crypto_stream = chlo.serialize_handshake();
  const Bytes dcid = from_hex("8394c8f03e515708");
  const Bytes scid = from_hex("aabbccdd");

  const auto datagrams = build_client_initial_flight(dcid, scid, crypto_stream);
  ASSERT_EQ(datagrams.size(), 1u);
  EXPECT_GE(datagrams[0].size(), kMinInitialDatagram);
  EXPECT_TRUE(looks_like_initial(datagrams[0]));

  const auto packet = unprotect_client_initial(datagrams[0]);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->dcid, dcid);
  EXPECT_EQ(packet->scid, scid);
  EXPECT_EQ(packet->packet_number, 0u);

  CryptoReassembler reasm;
  reasm.add(*packet);
  const Bytes assembled = reasm.contiguous_prefix();
  ASSERT_GE(assembled.size(), crypto_stream.size());
  EXPECT_TRUE(std::equal(crypto_stream.begin(), crypto_stream.end(),
                         assembled.begin()));

  const auto chlo_back = tls::ClientHello::parse_handshake(assembled);
  ASSERT_TRUE(chlo_back.has_value());
  EXPECT_EQ(chlo_back->server_name(), "www.youtube.com");
  tls::WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(assembled));
  const auto tp_body = wire.quic_transport_parameters();
  ASSERT_TRUE(tp_body.has_value());
  const auto tp = TransportParameters::parse(*tp_body);
  ASSERT_TRUE(tp.has_value());
  EXPECT_EQ(tp->max_idle_timeout, 30000u);
}

TEST(Initial, LargeHelloSplitsAcrossDatagrams) {
  tls::ClientHello chlo = make_quic_chlo();
  // Post-quantum-sized key share forces a multi-packet flight.
  chlo.add_key_shares({tls::group::kX25519Kyber768});
  chlo.add_padding_to(2400);
  const Bytes crypto_stream = chlo.serialize_handshake();
  ASSERT_GT(crypto_stream.size(), 1200u);

  const Bytes dcid = from_hex("0001020304050607");
  const auto datagrams = build_client_initial_flight(dcid, {}, crypto_stream);
  ASSERT_GE(datagrams.size(), 2u);

  CryptoReassembler reasm;
  std::uint64_t expected_pn = 0;
  for (const auto& dg : datagrams) {
    EXPECT_GE(dg.size(), kMinInitialDatagram);
    const auto packet = unprotect_client_initial(dg);
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->packet_number, expected_pn++);
    reasm.add(*packet);
  }
  const Bytes assembled = reasm.contiguous_prefix();
  ASSERT_GE(assembled.size(), crypto_stream.size());
  EXPECT_TRUE(std::equal(crypto_stream.begin(), crypto_stream.end(),
                         assembled.begin()));
}

TEST(Initial, ReassemblerHandlesOutOfOrder) {
  tls::ClientHello chlo = make_quic_chlo();
  chlo.add_padding_to(2400);
  const Bytes crypto_stream = chlo.serialize_handshake();
  const Bytes dcid = from_hex("0101010101010101");
  const auto datagrams = build_client_initial_flight(dcid, {}, crypto_stream);
  ASSERT_GE(datagrams.size(), 2u);

  CryptoReassembler reasm;
  // Feed in reverse order.
  for (auto it = datagrams.rbegin(); it != datagrams.rend(); ++it) {
    const auto packet = unprotect_client_initial(*it);
    ASSERT_TRUE(packet.has_value());
    reasm.add(*packet);
  }
  const Bytes assembled = reasm.contiguous_prefix();
  EXPECT_TRUE(std::equal(crypto_stream.begin(), crypto_stream.end(),
                         assembled.begin()));
}

TEST(Initial, ReassemblerReportsGap) {
  tls::ClientHello chlo = make_quic_chlo();
  chlo.add_padding_to(2400);
  const Bytes crypto_stream = chlo.serialize_handshake();
  const auto datagrams =
      build_client_initial_flight(from_hex("0202020202020202"), {}, crypto_stream);
  ASSERT_GE(datagrams.size(), 2u);
  // Only the second datagram: prefix must stop at the gap (empty).
  CryptoReassembler reasm;
  const auto packet = unprotect_client_initial(datagrams[1]);
  ASSERT_TRUE(packet.has_value());
  reasm.add(*packet);
  EXPECT_TRUE(reasm.contiguous_prefix().empty());
}

TEST(Initial, TamperedPacketFailsAuthentication) {
  const Bytes crypto_stream = make_quic_chlo().serialize_handshake();
  auto datagrams = build_client_initial_flight(from_hex("aa00aa00aa00aa00"),
                                               {}, crypto_stream);
  ASSERT_EQ(datagrams.size(), 1u);
  datagrams[0][600] ^= 0xff;  // flip a payload byte
  EXPECT_FALSE(unprotect_client_initial(datagrams[0]).has_value());
}

TEST(Initial, NonInitialIsRejectedCheaply) {
  Bytes not_quic(1300, 0x00);
  EXPECT_FALSE(looks_like_initial(not_quic));
  EXPECT_FALSE(unprotect_client_initial(not_quic).has_value());

  Bytes short_header(1300, 0x40);  // QUIC short header
  EXPECT_FALSE(looks_like_initial(short_header));

  Bytes handshake_pkt(1300, 0xe0);  // long header, Handshake type
  handshake_pkt[4] = 0x01;
  EXPECT_FALSE(looks_like_initial(handshake_pkt));
}

TEST(Initial, KeysMatchRfc9001AppendixA) {
  const auto keys = derive_client_initial_keys(from_hex("8394c8f03e515708"));
  EXPECT_EQ(to_hex(keys.key), "1f369613dd76d5467730efcbe3b1a22d");
  EXPECT_EQ(to_hex(keys.iv), "fa044b2f42a3fd3b46fb255c");
  EXPECT_EQ(to_hex(keys.hp), "9f50449e04a0e810283a1e9933adedd2");
}

class InitialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(InitialFuzz, RandomDcidsAndSizesRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  tls::ClientHello chlo = make_quic_chlo();
  chlo.add_padding_to(rng.uniform(300, 3000));
  const Bytes crypto_stream = chlo.serialize_handshake();

  Bytes dcid(rng.uniform(8, 20), 0);
  for (auto& b : dcid) b = static_cast<std::uint8_t>(rng.next_u32());
  Bytes scid(rng.uniform(0, 8), 0);
  for (auto& b : scid) b = static_cast<std::uint8_t>(rng.next_u32());

  const auto datagrams = build_client_initial_flight(dcid, scid, crypto_stream);
  CryptoReassembler reasm;
  for (const auto& dg : datagrams) {
    const auto packet = unprotect_client_initial(dg);
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->dcid, dcid);
    EXPECT_EQ(packet->scid, scid);
    reasm.add(*packet);
  }
  const Bytes assembled = reasm.contiguous_prefix();
  ASSERT_GE(assembled.size(), crypto_stream.size());
  EXPECT_TRUE(std::equal(crypto_stream.begin(), crypto_stream.end(),
                         assembled.begin()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InitialFuzz, ::testing::Range(0, 20));

// ---- varint canonicality policy (pinned; see src/quic/varint.hpp) ----

TEST(Varint, EncodingWidthBoundaryTable) {
  // Every 2-bit width boundary of RFC 9000 §16, both sides.
  struct Case {
    std::uint64_t value;
    std::size_t size;
  };
  const Case cases[] = {
      {0, 1},           {63, 1},                // last 1-byte value
      {64, 2},          {16383, 2},             // first/last 2-byte values
      {16384, 4},       {(1ULL << 30) - 1, 4},  // first/last 4-byte values
      {1ULL << 30, 8},  {kVarintMax, 8},        // first/last 8-byte values
  };
  for (const auto& c : cases) {
    EXPECT_EQ(varint_size(c.value), c.size) << c.value;
    Writer w;
    put_varint(w, c.value);
    EXPECT_EQ(w.size(), c.size) << c.value;
    Reader r(w.data());
    EXPECT_EQ(get_varint(r), c.value);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.empty()) << "exactly " << c.size << " bytes consumed";
  }
}

TEST(Varint, NonCanonicalOverLongEncodingsAccepted) {
  // Decode policy: over-long encodings are ACCEPTED (the observer must take
  // what endpoints take); encode always normalizes to minimal form.
  struct Case {
    const char* hex;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"4000", 0},                 // 0 in 2 bytes
      {"4001", 1},                 // 1 in 2 bytes
      {"403f", 63},                // 1-byte-max in 2 bytes
      {"80000000", 0},             // 0 in 4 bytes
      {"80000040", 64},            // 2-byte-min in 4 bytes
      {"80003fff", 16383},         // 2-byte-max in 4 bytes
      {"c000000000000000", 0},     // 0 in 8 bytes
      {"c000000040000000", 1ULL << 30},
      {"c00000003fffffff", (1ULL << 30) - 1},  // 4-byte-max in 8 bytes
  };
  for (const auto& c : cases) {
    const Bytes data = from_hex(c.hex);
    Reader r(data);
    EXPECT_EQ(get_varint(r), c.value) << c.hex;
    EXPECT_TRUE(r.ok()) << c.hex;
    EXPECT_TRUE(r.empty()) << c.hex;

    // And the normalization direction: re-encoding is minimal, so it is
    // strictly shorter than (or equal to) the over-long input.
    Writer w;
    put_varint(w, c.value);
    EXPECT_LE(w.size(), data.size()) << c.hex;
  }
}

TEST(Varint, ForcedEncodingsMatchDecoderAndRejectOverflowPerWidth) {
  // put_varint_forced is the harness' way of emitting over-long encodings;
  // whatever it writes, get_varint must read back.
  const std::size_t widths[] = {1, 2, 4, 8};
  const std::uint64_t values[] = {0, 1, 63, 64, 16383, 16384,
                                  (1ULL << 30) - 1, 1ULL << 30, kVarintMax};
  for (std::size_t width : widths) {
    for (std::uint64_t v : values) {
      const bool fits = varint_size(v) <= width;
      Writer w;
      if (!fits) {
        EXPECT_THROW(put_varint_forced(w, v, width), std::invalid_argument);
        continue;
      }
      put_varint_forced(w, v, width);
      EXPECT_EQ(w.size(), width);
      Reader r(w.data());
      EXPECT_EQ(get_varint(r), v) << v << " in " << width << " bytes";
      EXPECT_TRUE(r.ok() && r.empty());
    }
  }
  Writer w;
  EXPECT_THROW(put_varint_forced(w, 0, 3), std::invalid_argument);
}

}  // namespace
}  // namespace vpscope::quic
