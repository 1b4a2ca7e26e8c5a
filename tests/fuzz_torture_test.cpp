// The wire-format torture lane (ctest -L fuzz): >= 50k structure-aware
// mutants per parser target, all from fixed seeds so every run checks the
// exact same mutant sequence, plus one pinned regression input for every
// parser defect the harness surfaced.
#include <gtest/gtest.h>

#include <sstream>

#include "fuzz/driver.hpp"
#include "net/pcap.hpp"
#include "pipeline/pipeline.hpp"
#include "synth/dataset.hpp"
#include "tls/constants.hpp"

namespace vpscope::fuzz {
namespace {

constexpr std::size_t kMutantsPerTarget = 50'000;

/// Corpus + a small trained bank, shared across the lane (building both is
/// the expensive part; every test below is pure CPU over them).
class TortureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<SeedCase>(build_corpus(0xbeef));
    bank_ = new pipeline::ClassifierBank();
    pipeline::BankParams params;
    params.forest = {.n_trees = 12, .max_depth = 12, .min_samples_split = 4,
                     .max_features = 20, .bootstrap = true, .seed = 1};
    const auto lab = synth::generate_lab_dataset(42, 0.2);
    bank_->train(lab, params);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete bank_;
    corpus_ = nullptr;
    bank_ = nullptr;
  }

  static std::vector<SeedCase>* corpus_;
  static pipeline::ClassifierBank* bank_;
};

std::vector<SeedCase>* TortureTest::corpus_ = nullptr;
pipeline::ClassifierBank* TortureTest::bank_ = nullptr;

TEST_F(TortureTest, CorpusCoversBothTransports) {
  std::size_t tcp = 0, quic = 0;
  for (const auto& seed : *corpus_) {
    (seed.transport == fingerprint::Transport::Quic ? quic : tcp)++;
    EXPECT_FALSE(seed.record.empty());
    EXPECT_FALSE(seed.handshake.empty());
    EXPECT_FALSE(seed.pcap_blob.empty());
    if (seed.transport == fingerprint::Transport::Quic) {
      EXPECT_FALSE(seed.tp_body.empty());
      EXPECT_FALSE(seed.flight.empty());
    }
  }
  EXPECT_GT(tcp, 10u);
  EXPECT_GT(quic, 5u);
}

TEST_F(TortureTest, DeterministicForSeed) {
  TortureConfig config{.seed = 7, .total_mutants = 500};
  const auto a = torture_tls_record(*corpus_, config);
  const auto b = torture_tls_record(*corpus_, config);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.failures, b.failures);
}

TEST_F(TortureTest, TlsRecordMutants) {
  const auto report =
      torture_tls_record(*corpus_, {.total_mutants = kMutantsPerTarget});
  EXPECT_GE(report.mutants, kMutantsPerTarget);
  EXPECT_GT(report.accepted, 0u);  // structural mutants must keep parsing
  EXPECT_GT(report.rejected, 0u);  // byte-level mutants must get rejected
  EXPECT_TRUE(report.ok()) << report.summary("tls_record");
}

TEST_F(TortureTest, TlsHandshakeMutants) {
  const auto report =
      torture_tls_handshake(*corpus_, {.total_mutants = kMutantsPerTarget});
  EXPECT_GE(report.mutants, kMutantsPerTarget);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_TRUE(report.ok()) << report.summary("tls_handshake");
}

TEST_F(TortureTest, TransportParamsMutants) {
  const auto report =
      torture_transport_params(*corpus_, {.total_mutants = kMutantsPerTarget});
  EXPECT_GE(report.mutants, kMutantsPerTarget);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_TRUE(report.ok()) << report.summary("transport_params");
}

TEST_F(TortureTest, QuicInitialMutants) {
  const auto report =
      torture_quic_initial(*corpus_, {.total_mutants = kMutantsPerTarget});
  EXPECT_GE(report.mutants, kMutantsPerTarget);
  EXPECT_GT(report.accepted, 0u);  // rebuilt flights must reassemble
  EXPECT_GT(report.rejected, 0u);  // corrupted flights must fail auth/parse
  EXPECT_TRUE(report.ok()) << report.summary("quic_initial");
}

TEST_F(TortureTest, PcapMutants) {
  const auto report =
      torture_pcap(*corpus_, {.total_mutants = kMutantsPerTarget});
  EXPECT_GE(report.mutants, kMutantsPerTarget);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_TRUE(report.ok()) << report.summary("pcap");
}

TEST_F(TortureTest, ClassifierNeverConfidentOnGarbage) {
  const auto report = torture_classifier(*corpus_, *bank_,
                                         {.total_mutants = kMutantsPerTarget});
  EXPECT_GE(report.mutants, kMutantsPerTarget);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_TRUE(report.ok()) << report.summary("classifier");
}

TEST_F(TortureTest, PipelineSurvivesGarbagePacketStreams) {
  pipeline::VideoFlowPipeline vfp(bank_);
  std::size_t records = 0;
  vfp.set_sink([&records](telemetry::SessionRecord) { ++records; });

  // Pure random bytes: nothing may reach the video-flow stage.
  Mutator mutator(0x6a7b);
  for (int i = 0; i < 2'000; ++i) {
    net::Packet packet;
    packet.timestamp_us = static_cast<std::uint64_t>(i);
    packet.data.resize(mutator.rng().uniform(1, 200));
    for (auto& b : packet.data)
      b = static_cast<std::uint8_t>(mutator.rng().next_u32());
    vfp.on_packet(packet);
  }
  vfp.flush_all();
  EXPECT_EQ(vfp.stats().video_flows, 0u);
  EXPECT_EQ(records, 0u);

  // Mutated real captures: packets may parse, flows may classify — but the
  // pipeline must stay consistent and never crash.
  for (const auto& seed : *corpus_) {
    for (int round = 0; round < 4; ++round) {
      const Bytes blob = mutator.mutate_pcap_blob(seed.pcap_blob);
      std::istringstream is(std::string(
          reinterpret_cast<const char*>(blob.data()), blob.size()));
      const auto packets = net::read_pcap(is);
      if (!packets) continue;
      for (const auto& p : *packets) vfp.on_packet(p);
    }
  }
  vfp.flush_all();
  const auto& stats = vfp.stats();
  EXPECT_LE(stats.video_flows, stats.flows_total);
  EXPECT_EQ(stats.classified_composite + stats.classified_partial +
                stats.classified_unknown,
            stats.video_flows);
}

// ---- pinned regressions: one input per parser defect fixed by this harness

/// ClientHello::parse_handshake read past the declared Handshake length:
/// trailing bytes after the body (always present in reassembled CRYPTO /
/// TCP streams) were parsed as an extensions block, fabricating extensions
/// the client never sent.
TEST(PinnedRegression, HandshakeTrailingBytesAreNotExtensions) {
  Writer body;
  body.u16(tls::kVersion12);
  for (int i = 0; i < 32; ++i) body.u8(0xab);  // random
  body.u8(0);                                  // empty session id
  body.u16(2);
  body.u16(tls::suite::kAes128GcmSha256);
  body.u8(1);
  body.u8(0);  // null compression
  Writer msg;
  msg.u8(1);  // client_hello
  msg.u24(static_cast<std::uint32_t>(body.size()));
  msg.raw(body.data());
  Bytes wire = std::move(msg).take();

  // Trailing bytes that *look like* an extensions block declaring
  // supported_groups [x25519].
  Writer trail;
  trail.u16(8);              // ext_total
  trail.u16(0x000a);         // supported_groups
  trail.u16(4);              // body length
  trail.u16(2);              // list length
  trail.u16(0x001d);         // x25519
  const Bytes t = std::move(trail).take();
  wire.insert(wire.end(), t.begin(), t.end());

  const auto chlo = tls::ClientHello::parse_handshake(wire);
  ASSERT_TRUE(chlo.has_value());  // trailing bytes stay tolerated...
  EXPECT_TRUE(chlo->extensions.empty());  // ...but are never parsed as content
  EXPECT_FALSE(chlo->supported_groups().has_value());
}

/// An extension straddling the declared extensions-block length was
/// accepted, consuming bytes outside the block.
TEST(PinnedRegression, ExtensionStraddlingDeclaredTotalRejected) {
  Writer body;
  body.u16(tls::kVersion12);
  for (int i = 0; i < 32; ++i) body.u8(0xab);
  body.u8(0);
  body.u16(2);
  body.u16(tls::suite::kAes128GcmSha256);
  body.u8(1);
  body.u8(0);
  body.u16(4);       // ext_total: room for one empty extension only
  body.u16(0x000a);  // supported_groups...
  body.u16(6);       // ...whose declared body overruns ext_total
  body.u16(2);
  body.u16(0x001d);
  body.u8(0);
  Writer msg;
  msg.u8(1);
  msg.u24(static_cast<std::uint32_t>(body.size()));
  msg.raw(body.data());
  const Bytes wire = std::move(msg).take();
  EXPECT_FALSE(tls::ClientHello::parse_handshake(wire).has_value());
}

/// ALPN entries could straddle the declared protocol-list length, returning
/// a protocol name spliced from sibling bytes.
TEST(PinnedRegression, AlpnEntryStraddlingListLengthRejected) {
  // list_len 3, but the single entry declares 4 name bytes: "h2" + 2 bytes
  // that live inside the extension body yet outside the list.
  tls::ClientHello chlo;
  chlo.add_raw(tls::ext::kAlpn, from_hex("00030468327879"));
  EXPECT_FALSE(chlo.alpn_protocols().has_value());
  tls::WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(chlo.serialize_handshake()));
  tls::NameView view;
  EXPECT_FALSE(wire.alpn_protocols_into(view));
}

/// server_name: the host name could extend past the declared server-name
/// list into trailing extension bytes.
TEST(PinnedRegression, SniNameStraddlingListLengthRejected) {
  // list_len 4 covers {type, name_len, 'a'}; name_len 5 would pull 4 more
  // bytes from beyond the list.
  tls::ClientHello chlo;
  chlo.add_raw(tls::ext::kServerName, from_hex("00040000056162636465"));
  EXPECT_FALSE(chlo.server_name().has_value());
  tls::WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(chlo.serialize_handshake()));
  EXPECT_FALSE(wire.server_name_view().has_value());
}

/// key_share: an entry whose key length ran past the declared client-shares
/// list was accepted, reporting a group the list did not contain.
TEST(PinnedRegression, KeyShareEntryStraddlingListLengthRejected) {
  Writer w;
  w.u16(4);       // client_shares list length: one group header only
  w.u16(0x001d);  // x25519
  w.u16(32);      // key length overrunning the list
  for (int i = 0; i < 32; ++i) w.u8(0x42);
  tls::ClientHello chlo;
  chlo.add_raw(tls::ext::kKeyShare, std::move(w).take());
  EXPECT_FALSE(chlo.key_share_groups().has_value());
  tls::WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(chlo.serialize_handshake()));
  tls::U16View view;
  EXPECT_FALSE(wire.key_share_groups_into(view));
}

}  // namespace
}  // namespace vpscope::fuzz
