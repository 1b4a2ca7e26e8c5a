// ShardedPipeline correctness: for any shard count, the sharded front-end
// must produce exactly the stats and session-record multiset of the
// single-threaded VideoFlowPipeline on the same packet sequence — sharding
// is a pure performance transform, never a semantic one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campus/overload.hpp"
#include "core/handshake.hpp"
#include "net/ip.hpp"
#include "pipeline/model_lifecycle.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"
#include "telemetry/telemetry.hpp"

namespace vpscope::pipeline {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;

class ShardedPipelineTest : public ::testing::Test {
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

synth::Dataset* ShardedPipelineTest::lab_ = nullptr;
ClassifierBank* ShardedPipelineTest::bank_ = nullptr;

/// `flows` synthesized video flows across all five scenarios, with start
/// times compressed so packets of many flows interleave heavily, then
/// globally time-ordered — the shape of a real capture feed.
std::vector<net::Packet> interleaved_mix(int flows) {
  struct Case {
    Provider provider;
    Transport transport;
  };
  static const std::vector<Case> cases = {
      {Provider::YouTube, Transport::Tcp},
      {Provider::YouTube, Transport::Quic},
      {Provider::Netflix, Transport::Tcp},
      {Provider::Disney, Transport::Tcp},
      {Provider::Amazon, Transport::Tcp},
  };
  Rng rng(4242);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c = cases[static_cast<std::size_t>(i) % cases.size()];
    const auto platforms =
        fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()],
        c.provider, c.transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i % 40) * 1500;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return packets;
}

/// Canonical text form of a record, so multisets compare as sorted vectors.
std::string record_fingerprint(const telemetry::SessionRecord& r) {
  std::ostringstream os;
  os.precision(17);
  os << static_cast<int>(r.provider) << '|' << static_cast<int>(r.transport)
     << '|' << static_cast<int>(r.outcome) << '|';
  if (r.platform)
    os << static_cast<int>(r.platform->os) << ','
       << static_cast<int>(r.platform->agent);
  os << '|';
  if (r.device) os << static_cast<int>(*r.device);
  os << '|';
  if (r.agent) os << static_cast<int>(*r.agent);
  os << '|' << r.confidence << '|' << r.sni << '|' << r.counters.first_us
     << '|' << r.counters.last_us << '|' << r.counters.bytes_down << '|'
     << r.counters.bytes_up << '|' << r.counters.packets_down << '|'
     << r.counters.packets_up;
  return os.str();
}

TEST_F(ShardedPipelineTest, MatchesSingleThreadedFor1And2And8Shards) {
  const auto packets = interleaved_mix(400);

  VideoFlowPipeline reference(bank_);
  std::vector<std::string> expected_records;
  reference.set_sink([&](telemetry::SessionRecord r) {
    expected_records.push_back(record_fingerprint(r));
  });
  for (const auto& packet : packets) reference.on_packet(packet);
  reference.flush_all();
  std::sort(expected_records.begin(), expected_records.end());
  ASSERT_EQ(reference.stats().video_flows, 400u);

  for (const int shards : {1, 2, 8}) {
    ShardedPipeline sharded(
        bank_, {.n_shards = shards, .queue_capacity = 256});
    // The internal sink mutex serializes worker calls, so a plain vector
    // is safe here.
    std::vector<std::string> records;
    sharded.set_sink([&](telemetry::SessionRecord r) {
      records.push_back(record_fingerprint(r));
    });
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();

    EXPECT_EQ(sharded.stats(), reference.stats()) << "shards=" << shards;
    EXPECT_EQ(sharded.active_flows(), 0u) << "shards=" << shards;
    std::sort(records.begin(), records.end());
    EXPECT_EQ(records, expected_records) << "shards=" << shards;
  }
}

TEST_F(ShardedPipelineTest, BackpressureOnTinyQueuesLosesNothing) {
  // Ring capacity far below the packet count forces the spin-then-yield
  // producer path; every packet must still be processed exactly once.
  const auto packets = interleaved_mix(60);
  ShardedPipeline sharded(bank_, {.n_shards = 2, .queue_capacity = 4});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());
  for (const auto& packet : packets) sharded.on_packet(packet);
  sharded.flush_all();
  EXPECT_EQ(store.size(), 60u);
  EXPECT_EQ(sharded.stats().packets_total, packets.size());
}

TEST_F(ShardedPipelineTest, FlushIdleEvictsAcrossShards) {
  Rng rng(77);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {fingerprint::Os::Windows, fingerprint::Agent::Chrome},
      Provider::Netflix, Transport::Tcp);

  ShardedPipeline sharded(bank_, {.n_shards = 4, .queue_capacity = 64});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());

  synth::FlowOptions old_opt;
  old_opt.start_time_us = 0;
  const auto old_flow = synth.synthesize(profile, old_opt);
  synth::FlowOptions new_opt;
  new_opt.start_time_us = 100'000'000;
  const auto new_flow = synth.synthesize(profile, new_opt);

  for (const auto& p : old_flow.packets) sharded.on_packet(p);
  for (const auto& p : new_flow.packets) sharded.on_packet(p);
  EXPECT_EQ(sharded.active_flows(), 2u);

  sharded.flush_idle(/*now=*/130'000'000, /*idle=*/60'000'000);
  EXPECT_EQ(sharded.active_flows(), 1u);
  EXPECT_EQ(store.size(), 1u);
  sharded.flush_all();
  EXPECT_EQ(store.size(), 2u);
}

TEST_F(ShardedPipelineTest, VolumeSamplesRouteToOwningShard) {
  Rng rng(78);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {fingerprint::Os::Windows, fingerprint::Agent::Chrome},
      Provider::Disney, Transport::Tcp);
  const auto flow = synth.synthesize(profile);

  ShardedPipeline sharded(bank_, {.n_shards = 8, .queue_capacity = 64});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());
  for (const auto& packet : flow.packets) sharded.on_packet(packet);
  const auto key = net::FlowKey::canonical(flow.client_ip, flow.client_port,
                                           flow.server_ip, flow.server_port,
                                           net::kProtoTcp);
  for (int i = 1; i <= 10; ++i)
    sharded.on_volume_sample(key, static_cast<std::uint64_t>(i) * 1'000'000,
                             500'000, 10'000);
  sharded.flush_all();

  const auto snapshot = store.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_GE(snapshot.records().front().counters.bytes_down, 5'000'000u);
  EXPECT_GE(snapshot.records().front().counters.bytes_up, 100'000u);
}

TEST_F(ShardedPipelineTest, RejectsZeroShards) {
  EXPECT_THROW(ShardedPipeline(bank_, {.n_shards = 0, .queue_capacity = 8}),
               std::invalid_argument);
}

// Regression for the PR-4 restriction that made ALL stats reads
// dispatcher-thread-only: snapshot() must be callable from any thread,
// concurrently with dispatch, without draining, without tripping the
// dispatcher contract, and with the drop-accounting identity intact in
// every observation (in-flight backlog reads as stranded).
TEST_F(ShardedPipelineTest, SnapshotIsSafeFromAnyThreadWhileDispatching) {
  const auto packets = interleaved_mix(200);

  ShardedPipeline sharded(bank_, {.n_shards = 4, .queue_capacity = 64});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_taken{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t)
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const PipelineStats s = sharded.snapshot();
        // Mid-dispatch a snapshot may under-account in-flight packets
        // (snapshot() reads packets_total last, so it never OVER-accounts);
        // exact equality is guaranteed only between dispatcher calls
        // (asserted below, quiescent).
        const std::uint64_t accounted =
            s.packets_processed + s.packets_dropped_payload +
            s.packets_dropped_handshake + s.packets_stranded;
        EXPECT_LE(accounted, s.packets_total);
        snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // Dispatch only once the readers are snapshotting: the whole mix
  // dispatches in a few ms, and on a loaded machine a new thread can wait
  // that long for a core, so both readers could otherwise see `done`
  // before their first snapshot.
  while (snapshots_taken.load(std::memory_order_relaxed) < 2)
    std::this_thread::yield();

  for (const auto& packet : packets) sharded.on_packet(packet);
  sharded.flush_all();
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(sharded.dispatcher_contract_violations(), 0u)
      << "snapshot() must not count as a dispatcher-thread-only call";

  // Quiescent now: snapshot() from this thread equals the drained stats().
  const PipelineStats quiescent = sharded.snapshot();
  EXPECT_EQ(quiescent, sharded.stats());
  EXPECT_EQ(quiescent.packets_total, packets.size());
  EXPECT_EQ(quiescent.packets_stranded, 0u);
}

// Span sampling reads the high half of the flow hash and shard routing its
// low bits. When they shared the low residue, a span_sample_n that is a
// multiple of the shard count traced shard 0 only.
TEST_F(ShardedPipelineTest, SampledFlowsSpanEveryShard) {
  // 4,096 one-SYN flows from sequential clients: cheap flows, one span
  // chain each.
  std::vector<net::Packet> packets;
  for (std::uint32_t i = 0; i < 4096; ++i)
    packets.push_back(campus::make_flood_syn(i, i, 1));
  for (const std::uint64_t sample_n : {8u, 64u}) {
    ShardedPipelineOptions options;
    options.n_shards = 8;
    options.obs.span_sample_n = sample_n;
    ShardedPipeline sharded(bank_, options);
    sharded.set_sink([](telemetry::SessionRecord) {});
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();
    std::set<int> worker_slots;
    std::size_t queue_spans = 0;
    for (const obs::Span& span : sharded.observability().recent_spans(0))
      if (span.kind == obs::SpanKind::Queue) {
        worker_slots.insert(span.slot);
        ++queue_spans;
      }
    EXPECT_EQ(worker_slots.size(), 8u) << "span_sample_n=" << sample_n;
    // One Queue span per sampled flow, about one flow in sample_n.
    EXPECT_GT(queue_spans, packets.size() / sample_n / 2)
        << "span_sample_n=" << sample_n;
    EXPECT_LT(queue_spans, packets.size() / sample_n * 2)
        << "span_sample_n=" << sample_n;
  }
}

// Canary routing reads the high half of the flow hash too, so each of 8
// shards routes its stated share to the canary. With the shard residue
// (`hash % 1000`, of which `hash % 8` is a function) shards 0-1 took 5.6%
// and the others 4.8%. Tolerance: 0.5 percentage points, about five
// standard deviations at 50k flows per shard.
TEST(CanaryRouting, EveryShardRoutesItsShareToA5PercentCanary) {
  ModelLifecycle::Generation generation;
  generation.canary = std::make_shared<const ClassifierBank>();
  generation.canary_permille = 50;
  constexpr std::uint64_t kShards = 8;
  constexpr std::uint32_t kFlows = 400'000;
  std::array<std::uint64_t, kShards> flows{}, canary{};
  const net::IpAddr server = net::IpAddr::v4(142, 250, 70, 78);
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const net::FlowKey key = net::FlowKey::canonical(
        net::IpAddr::v4_from_u32(0x0a000000u | i >> 2),
        static_cast<std::uint16_t>(40000 + i % 4), server, 443,
        net::kProtoTcp);
    const std::uint64_t hash = net::FlowKeyHash{}(key);
    const std::uint64_t shard = hash % kShards;  // ShardedPipeline routing
    ++flows[shard];
    if (generation.routes_to_canary(hash)) ++canary[shard];
  }
  for (std::uint64_t shard = 0; shard < kShards; ++shard) {
    const double share =
        static_cast<double>(canary[shard]) / static_cast<double>(flows[shard]);
    EXPECT_NEAR(share, 0.05, 0.005) << "shard " << shard;
  }
}

}  // namespace
}  // namespace vpscope::pipeline
