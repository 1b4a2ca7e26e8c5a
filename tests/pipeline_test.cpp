#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>

#include "core/handshake.hpp"
#include "net/packet.hpp"
#include "quic/initial.hpp"
#include "pipeline/classifier_bank.hpp"
#include "pipeline/pipeline.hpp"
#include "sealed_initial.hpp"
#include "synth/dataset.hpp"

// Global allocation counter backing the handshake allocation pin: every
// operator-new in the binary bumps it, so the difference across a run of
// on_packet calls is exactly the heap allocations the pipeline made.
static std::atomic<std::uint64_t> g_heap_allocations{0};

// GCC flags free() inside a replaced operator delete as mismatched; the
// malloc/free pairing across replaced new/delete is the standard idiom.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace vpscope::pipeline {
namespace {

using fingerprint::Agent;
using fingerprint::Os;
using fingerprint::PlatformId;
using fingerprint::Provider;
using fingerprint::Transport;

/// A small lab dataset + trained bank, shared across tests (training is the
/// expensive part).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 0.35));
    bank_ = new ClassifierBank();
    bank_->train(*lab_);
  }
  static void TearDownTestSuite() {
    delete lab_;
    delete bank_;
    lab_ = nullptr;
    bank_ = nullptr;
  }

  static synth::Dataset* lab_;
  static ClassifierBank* bank_;
};

synth::Dataset* PipelineTest::lab_ = nullptr;
ClassifierBank* PipelineTest::bank_ = nullptr;

TEST(ProviderFromSni, SuffixMatching) {
  EXPECT_EQ(provider_from_sni("rr3---sn-xyz.googlevideo.com"),
            Provider::YouTube);
  EXPECT_EQ(provider_from_sni("ipv4-c001-syd001-ix.1.oca.nflxvideo.net"),
            Provider::Netflix);
  EXPECT_EQ(provider_from_sni("vod-bgc-na-west-1.media.dssott.com"),
            Provider::Disney);
  EXPECT_EQ(provider_from_sni("atv-ps.amazon.com"), Provider::Amazon);
  EXPECT_EQ(provider_from_sni("www.youtube.com"), Provider::YouTube);
  EXPECT_FALSE(provider_from_sni("example.com").has_value());
  EXPECT_FALSE(provider_from_sni("").has_value());
  // Suffix must sit on a label boundary.
  EXPECT_FALSE(provider_from_sni("notgooglevideo.com").has_value());
  // Bare domain itself matches.
  EXPECT_EQ(provider_from_sni("googlevideo.com"), Provider::YouTube);
}

TEST(ProviderFromSni, CaseInsensitiveMatching) {
  // DNS hostnames are case-insensitive (RFC 4343); a client is free to send
  // GOOGLEVIDEO.COM in the SNI and it must still be detected as video.
  EXPECT_EQ(provider_from_sni("GOOGLEVIDEO.COM"), Provider::YouTube);
  EXPECT_EQ(provider_from_sni("RR3---SN-XYZ.GoogleVideo.Com"),
            Provider::YouTube);
  EXPECT_EQ(provider_from_sni("www.YouTube.com"), Provider::YouTube);
  EXPECT_EQ(provider_from_sni("ipv4.oca.NFLXVIDEO.NET"), Provider::Netflix);
  EXPECT_EQ(provider_from_sni("Media.DSSOTT.com"), Provider::Disney);
  EXPECT_EQ(provider_from_sni("ATV-PS.AMAZON.COM"), Provider::Amazon);
  // Boundary rule still applies under any casing.
  EXPECT_FALSE(provider_from_sni("NOTGOOGLEVIDEO.COM").has_value());
}

TEST_F(PipelineTest, BankTrainsAllFiveScenarios) {
  EXPECT_TRUE(bank_->trained(Provider::YouTube, Transport::Tcp));
  EXPECT_TRUE(bank_->trained(Provider::YouTube, Transport::Quic));
  EXPECT_TRUE(bank_->trained(Provider::Netflix, Transport::Tcp));
  EXPECT_TRUE(bank_->trained(Provider::Disney, Transport::Tcp));
  EXPECT_TRUE(bank_->trained(Provider::Amazon, Transport::Tcp));
  EXPECT_FALSE(bank_->trained(Provider::Netflix, Transport::Quic));
}

TEST_F(PipelineTest, ClassifiesFreshFlowsAccurately) {
  Rng rng(777);
  synth::FlowSynthesizer synth(rng);
  int correct = 0, total = 0;
  for (const auto& platform : fingerprint::all_platforms()) {
    for (Provider provider : fingerprint::all_providers()) {
      if (!fingerprint::supports_tcp(platform, provider)) continue;
      const auto profile =
          fingerprint::make_profile(platform, provider, Transport::Tcp);
      for (int i = 0; i < 5; ++i) {
        const auto flow = synth.synthesize(profile);
        const auto handshake = core::extract_handshake(flow.packets);
        ASSERT_TRUE(handshake.has_value());
        const auto pred = bank_->classify(*handshake, provider);
        ++total;
        if (pred.outcome == telemetry::Outcome::Composite &&
            pred.platform == platform)
          ++correct;
      }
    }
  }
  // In-distribution composite accuracy should be high across the board.
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST_F(PipelineTest, CompositePredictionImpliesParts) {
  Rng rng(778);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Firefox}, Provider::Netflix, Transport::Tcp);
  const auto flow = synth.synthesize(profile);
  const auto handshake = core::extract_handshake(flow.packets);
  const auto pred = bank_->classify(*handshake, Provider::Netflix);
  ASSERT_EQ(pred.outcome, telemetry::Outcome::Composite);
  ASSERT_TRUE(pred.platform.has_value());
  EXPECT_EQ(pred.device, pred.platform->os);
  EXPECT_EQ(pred.agent, pred.platform->agent);
  EXPECT_GE(pred.platform_confidence, bank_->confidence_threshold());
}

TEST_F(PipelineTest, UnknownPlatformsAreMostlyRejectedOrPartial) {
  Rng rng(779);
  synth::FlowSynthesizer synth(rng);
  int composite = 0, total = 0;
  for (int variant = 0; variant < fingerprint::num_unknown_profiles();
       ++variant) {
    const auto profile =
        fingerprint::make_unknown_profile(Provider::Netflix, variant);
    for (int i = 0; i < 20; ++i) {
      const auto flow = synth.synthesize(profile);
      const auto handshake = core::extract_handshake(flow.packets);
      ASSERT_TRUE(handshake.has_value());
      const auto pred = bank_->classify(*handshake, Provider::Netflix);
      ++total;
      composite += pred.outcome == telemetry::Outcome::Composite;
    }
  }
  // Unknown stacks must not be confidently assigned a platform often.
  EXPECT_LT(static_cast<double>(composite) / total, 0.25);
}

TEST_F(PipelineTest, EndToEndPacketsToSessionRecord) {
  Rng rng(780);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::MacOS, Agent::Safari}, Provider::Netflix, Transport::Tcp);
  synth::FlowOptions opt;
  opt.start_time_us = 1000000;
  opt.payload_bytes = 3'000'000;
  opt.payload_duration_us = 20'000'000;
  const auto flow = synth.synthesize(profile, opt);

  VideoFlowPipeline pipe(bank_);
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&records](telemetry::SessionRecord r) {
    records.push_back(std::move(r));
  });
  for (const auto& packet : flow.packets) pipe.on_packet(packet);
  EXPECT_EQ(pipe.stats().video_flows, 1u);
  pipe.flush_all();

  ASSERT_EQ(records.size(), 1u);
  const auto& record = records.front();
  EXPECT_EQ(record.provider, Provider::Netflix);
  EXPECT_EQ(record.transport, Transport::Tcp);
  EXPECT_EQ(record.outcome, telemetry::Outcome::Composite);
  ASSERT_TRUE(record.platform.has_value());
  EXPECT_EQ(*record.platform, (PlatformId{Os::MacOS, Agent::Safari}));
  EXPECT_GT(record.counters.bytes_down, 2'900'000u);
  EXPECT_GT(record.counters.duration_s(), 15.0);
}

TEST_F(PipelineTest, QuicFlowEndToEnd) {
  Rng rng(781);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Firefox}, Provider::YouTube, Transport::Quic);
  const auto flow = synth.synthesize(profile);

  VideoFlowPipeline pipe(bank_);
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&records](telemetry::SessionRecord r) {
    records.push_back(std::move(r));
  });
  for (const auto& packet : flow.packets) pipe.on_packet(packet);
  pipe.flush_all();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().transport, Transport::Quic);
  EXPECT_EQ(records.front().provider, Provider::YouTube);
  ASSERT_TRUE(records.front().platform.has_value());
  EXPECT_EQ(*records.front().platform,
            (PlatformId{Os::Windows, Agent::Firefox}));
}

TEST_F(PipelineTest, NonVideoHttpsFlowsProduceNoRecords) {
  // A TLS flow to a non-video SNI enters the flow table but never a record.
  Rng rng(782);
  synth::FlowSynthesizer synth(rng);
  auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Netflix, Transport::Tcp);
  profile.sni_candidates = {"www.example.org"};
  profile.variants.clear();
  const auto flow = synth.synthesize(profile);

  VideoFlowPipeline pipe(bank_);
  int records = 0;
  pipe.set_sink([&records](telemetry::SessionRecord) { ++records; });
  for (const auto& packet : flow.packets) pipe.on_packet(packet);
  pipe.flush_all();
  EXPECT_EQ(pipe.stats().video_flows, 0u);
  EXPECT_EQ(records, 0);
}

TEST_F(PipelineTest, NonHttpsTrafficIgnoredEntirely) {
  net::TcpHeader tcp;
  tcp.src_port = 12345;
  tcp.dst_port = 80;
  tcp.flags.syn = true;
  net::Ipv4Header ip;
  ip.src = net::IpAddr::v4(10, 0, 0, 1);
  ip.dst = net::IpAddr::v4(1, 2, 3, 4);
  VideoFlowPipeline pipe(bank_);
  pipe.on_packet({0, ip.serialize(tcp.serialize({}))});
  EXPECT_EQ(pipe.stats().flows_total, 0u);
  EXPECT_EQ(pipe.active_flows(), 0u);
}

TEST_F(PipelineTest, FlushIdleEvictsOnlyStaleFlows) {
  Rng rng(783);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Netflix, Transport::Tcp);

  VideoFlowPipeline pipe(bank_);
  int records = 0;
  pipe.set_sink([&records](telemetry::SessionRecord) { ++records; });

  synth::FlowOptions old_flow_opt;
  old_flow_opt.start_time_us = 0;
  const auto old_flow = synth.synthesize(profile, old_flow_opt);
  synth::FlowOptions new_flow_opt;
  new_flow_opt.start_time_us = 100'000'000;
  const auto new_flow = synth.synthesize(profile, new_flow_opt);

  for (const auto& p : old_flow.packets) pipe.on_packet(p);
  for (const auto& p : new_flow.packets) pipe.on_packet(p);
  EXPECT_EQ(pipe.active_flows(), 2u);

  pipe.flush_idle(/*now=*/130'000'000, /*idle=*/60'000'000);
  EXPECT_EQ(pipe.active_flows(), 1u);
  EXPECT_EQ(records, 1);
  pipe.flush_all();
  EXPECT_EQ(records, 2);
}

TEST_F(PipelineTest, VolumeSamplesAccumulate) {
  Rng rng(784);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Disney, Transport::Tcp);
  const auto flow = synth.synthesize(profile);

  VideoFlowPipeline pipe(bank_);
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&records](telemetry::SessionRecord r) {
    records.push_back(std::move(r));
  });
  for (const auto& packet : flow.packets) pipe.on_packet(packet);
  const auto key = net::FlowKey::canonical(flow.client_ip, flow.client_port,
                                           flow.server_ip, flow.server_port,
                                           net::kProtoTcp);
  for (int i = 1; i <= 10; ++i)
    pipe.on_volume_sample(key, static_cast<std::uint64_t>(i) * 1'000'000,
                          500'000, 10'000);
  pipe.flush_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GE(records.front().counters.bytes_down, 5'000'000u);
  EXPECT_GE(records.front().counters.bytes_up, 100'000u);
}

TEST_F(PipelineTest, StatsCountersConsistent) {
  Rng rng(785);
  synth::FlowSynthesizer synth(rng);
  VideoFlowPipeline pipe(bank_);
  pipe.set_sink([](telemetry::SessionRecord) {});
  int flows = 0;
  for (Provider provider : fingerprint::all_providers()) {
    const auto profile = fingerprint::make_profile(
        {Os::Windows, Agent::Chrome}, provider, Transport::Tcp);
    for (int i = 0; i < 3; ++i) {
      const auto flow = synth.synthesize(profile);
      for (const auto& packet : flow.packets) pipe.on_packet(packet);
      ++flows;
    }
  }
  EXPECT_EQ(pipe.stats().video_flows, static_cast<std::uint64_t>(flows));
  EXPECT_EQ(pipe.stats().classified_composite +
                pipe.stats().classified_partial +
                pipe.stats().classified_unknown,
            static_cast<std::uint64_t>(flows));
}

TEST_F(PipelineTest, TcpHandshakeAllocatesOnlyTheHelloBufferAndTheSni) {
  // YouTube TCP flows as tcp_churn replays them: SYN, SYN-ACK, ACK,
  // ClientHello (one segment), ServerHello. The verdict lands inline on the
  // ClientHello packet.
  constexpr std::size_t kFlows = 64;
  constexpr std::size_t kHandshakePackets = 5;
  Rng rng(31);
  synth::FlowSynthesizer synth(rng);
  const auto platforms =
      fingerprint::platforms_for(Provider::YouTube, Transport::Tcp);
  // An erased flow's slab slot keeps its SNI's heap buffer, so the measured
  // flows carry names longer than the warm-up's: each copy must allocate.
  std::vector<synth::LabeledFlow> flows;
  for (std::size_t i = 0; i < 2 * kFlows; ++i) {
    auto profile = fingerprint::make_profile(platforms[i % platforms.size()],
                                             Provider::YouTube, Transport::Tcp);
    profile.sni_candidates = {i < kFlows
                                  ? "rr1---sn-a.googlevideo.com"
                                  : "rr1---sn-abcdefghijklmnop.googlevideo.com"};
    flows.push_back(synth.synthesize(profile));
  }

  VideoFlowPipeline pipe(bank_);
  pipe.set_sink([](telemetry::SessionRecord) {});
  std::array<std::uint64_t, kHandshakePackets> per_packet{};
  const auto feed = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i)
      for (std::size_t p = 0; p < kHandshakePackets; ++p) {
        const std::uint64_t before =
            g_heap_allocations.load(std::memory_order_relaxed);
        pipe.on_packet(flows[i].packets[p]);
        per_packet[p] +=
            g_heap_allocations.load(std::memory_order_relaxed) - before;
      }
  };
  // Warm-up: the flow slab and index, the handshake slots and their free
  // list reach the peak, and the thread_local classify scratch is sized.
  // Then every flow is finalized and erased; capacities stay.
  feed(0, kFlows);
  pipe.flush_idle(std::numeric_limits<std::uint64_t>::max(), 0);
  ASSERT_EQ(pipe.active_flows(), 0u);

  per_packet = {};
  feed(kFlows, 2 * kFlows);
  ASSERT_EQ(pipe.stats().video_flows, 2 * kFlows);
  // Per flow, exactly two, both on the ClientHello packet:
  //  - the WireClientHello buffer its body is copied into (the extractor
  //    slot is fresh for every flow);
  //  - the FlowRecord::sni copy.
  // Nothing else: no ClientHello extension objects, no TCP reassembly
  // buffer for a one-segment hello, no decimal tokens, no classify scratch.
  const std::array<std::uint64_t, kHandshakePackets> expected = {
      0, 0, 0, 2 * kFlows, 0};
  EXPECT_EQ(per_packet, expected);

  // Classifying an already-parsed handshake allocates nothing.
  const auto handshake = core::extract_handshake(flows.front().packets);
  ASSERT_TRUE(handshake.has_value());
  (void)bank_->classify(*handshake, Provider::YouTube);
  const std::uint64_t classify_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i)
    (void)bank_->classify(*handshake, Provider::YouTube);
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed),
            classify_before);
}

TEST_F(PipelineTest, QuicHandshakeAllocatesOnlyTheHelloBufferAndTheSni) {
  // YouTube QUIC flows as campus_mix replays them: the client Initial
  // flight, then the server's Initial. The verdict lands inline on the
  // Initial that completes the ClientHello.
  constexpr std::size_t kFlows = 64;
  Rng rng(37);
  synth::FlowSynthesizer synth(rng);
  const auto platforms =
      fingerprint::platforms_for(Provider::YouTube, Transport::Quic);
  ASSERT_FALSE(platforms.empty());
  const auto initials_of = [](const synth::LabeledFlow& flow) {
    std::size_t n = 0;
    for (const auto& p : flow.packets) {
      const auto d = net::decode(p);
      if (d && d->udp && d->dst_port() == 443 &&
          quic::looks_like_initial(d->payload))
        ++n;
    }
    return n;
  };
  // As in the TCP pin, the measured flows carry SNIs longer than the
  // warm-up's, so each FlowRecord::sni copy must allocate.
  const auto synthesize = [&](std::size_t count, std::size_t initials,
                              std::string sni, std::size_t padding_to) {
    std::vector<synth::LabeledFlow> flows;
    for (std::size_t i = 0; flows.size() < count; ++i) {
      auto profile = fingerprint::make_profile(
          platforms[i % platforms.size()], Provider::YouTube, Transport::Quic);
      profile.sni_candidates = {sni};
      if (padding_to > 0) {
        profile.quic.initial_datagram_size = 1200;
        profile.tls.padding_to = padding_to;
      }
      auto flow = synth.synthesize(profile);
      if (initials_of(flow) == initials) flows.push_back(std::move(flow));
      EXPECT_LT(i, 100 * count) << "too few " << initials << "-Initial flows";
      if (i >= 100 * count) break;
    }
    return flows;
  };
  const std::string long_sni = "rr1---sn-abcdefghijklmnop.googlevideo.com";
  const auto warm = synthesize(kFlows, 1, "rr1---sn-a.googlevideo.com", 0);
  const auto single = synthesize(kFlows, 1, long_sni, 0);
  // Chrome's shape: each client Initial re-cut into 2-11 CRYPTO frames in
  // shuffled order, with PING and PADDING between them.
  auto shuffled = synthesize(kFlows, 1, long_sni, 0);
  Rng cut_rng(41);
  for (auto& flow : shuffled) {
    const auto initial = net::decode(flow.packets[0]);
    ASSERT_TRUE(initial && quic::looks_like_initial(initial->payload));
    std::optional<Bytes> recut;
    for (int tries = 0; !recut && tries < 50; ++tries)
      recut = sealed::reshuffled_initial(initial->payload, cut_rng,
                                         cut_rng.uniform(2, 11));
    ASSERT_TRUE(recut.has_value()) << "no room to re-cut an Initial";
    flow.packets[0] = sealed::with_udp_payload(flow.packets[0], *recut);
  }
  // A hello two Initials must carry.
  const auto multi = synthesize(kFlows / 4, 2, long_sni, 1600);
  ASSERT_EQ(multi.size(), kFlows / 4);

  // Feeds each flow's first `packets` packets (its Initials, then the
  // server's Initial) through a warmed-up pipeline; returns the allocations
  // per packet position. Warm-up, as in the TCP pin: slab, index, handshake
  // slots and classify scratch reach their peak; every flow is then
  // finalized and erased.
  const auto measure = [&](const std::vector<synth::LabeledFlow>& flows,
                           std::size_t packets) {
    VideoFlowPipeline pipe(bank_);
    pipe.set_sink([](telemetry::SessionRecord) {});
    for (const auto& flow : warm)
      for (std::size_t p = 0; p < 2; ++p) pipe.on_packet(flow.packets[p]);
    pipe.flush_idle(std::numeric_limits<std::uint64_t>::max(), 0);
    EXPECT_EQ(pipe.active_flows(), 0u);
    std::vector<std::uint64_t> per_packet(packets);
    for (const auto& flow : flows)
      for (std::size_t p = 0; p < packets; ++p) {
        const std::uint64_t before =
            g_heap_allocations.load(std::memory_order_relaxed);
        pipe.on_packet(flow.packets[p]);
        per_packet[p] +=
            g_heap_allocations.load(std::memory_order_relaxed) - before;
      }
    EXPECT_EQ(pipe.stats().video_flows, warm.size() + flows.size());
    return per_packet;
  };

  // Per single-datagram flow, exactly two, both on the Initial: the
  // reassembly buffer, which the WireClientHello keeps as its own, and the
  // FlowRecord::sni copy. Nothing for the decrypt (stack scratch), the
  // CRYPTO fragments (views) or the transport parameters (flat), however
  // the Initial cuts and orders its CRYPTO frames.
  const std::vector<std::uint64_t> expected = {2 * kFlows, 0};
  EXPECT_EQ(measure(single, 2), expected);
  EXPECT_EQ(measure(shuffled, 2), expected);

  // A two-Initial flight arriving in order: the first Initial allocates the
  // reassembly buffer, the second grows it once and completes the hello.
  const std::vector<std::uint64_t> in_order = {multi.size(),
                                               2 * multi.size(), 0};
  EXPECT_EQ(measure(multi, 3), in_order);

  // In-flight cold slots hold one extractor each.
  EXPECT_LE(sizeof(core::HandshakeExtractor), 480u);
}

}  // namespace
}  // namespace vpscope::pipeline
