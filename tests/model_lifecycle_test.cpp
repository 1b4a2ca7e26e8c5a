// Zero-downtime model lifecycle (ctest -L lifecycle; DESIGN.md §5j).
//
// Three families of guarantees:
//
//  * Artifact integrity — the VPSB bank format round-trips bit-identically,
//    rejects every truncated prefix and >= 50k wire mutants cleanly (no
//    crash, no allocation bomb, counted in vpscope_bundle_quarantined), and
//    publishes through the tmp+fsync+rename protocol so a watcher never
//    sees a partial file.
//
//  * Hot-swap correctness — the RCU generation swap is invisible to the
//    data plane: under a storm of 100+ swaps with 8 shards at full load,
//    zero flows are dropped, the PR-4 drop-accounting identity holds, and
//    every flow's record is bit-identical to one of the two banks' single-
//    threaded references (each flow classifies under exactly one
//    generation). Superseded generations are reclaimed once readers move on.
//
//  * Canary autonomy — a retrained-on-garbage bank is rolled back and a
//    genuinely retrained bank promoted with no operator action, and
//    promotion recalibrates the drift baselines.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ml/serialize.hpp"
#include "pipeline/bank_serialize.hpp"
#include "pipeline/model_lifecycle.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc32.hpp"

namespace vpscope::pipeline {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;

BankParams small_params(std::uint64_t seed) {
  BankParams params;
  params.forest = {.n_trees = 12, .max_depth = 12, .min_samples_split = 4,
                   .max_features = 20, .bootstrap = true, .seed = seed};
  return params;
}

class ModelLifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 0.35));
    bank_a_ = std::make_shared<ClassifierBank>();
    bank_a_->train(*lab_, small_params(1));
    bank_b_ = std::make_shared<ClassifierBank>();
    bank_b_->train(*lab_, small_params(7));
    // Deliberately tiny artifact for the O(bytes) fuzz sweeps.
    const synth::Dataset tiny_lab = synth::generate_lab_dataset(9, 0.05);
    BankParams tiny_params;
    tiny_params.forest = {.n_trees = 2, .max_depth = 4, .min_samples_split = 4,
                          .max_features = 8, .bootstrap = true, .seed = 3};
    tiny_bank_ = std::make_shared<ClassifierBank>();
    tiny_bank_->train(tiny_lab, tiny_params);
  }
  static void TearDownTestSuite() {
    delete lab_;
    lab_ = nullptr;
    bank_a_.reset();
    bank_b_.reset();
    tiny_bank_.reset();
  }

  static synth::Dataset* lab_;
  static std::shared_ptr<ClassifierBank> bank_a_;
  static std::shared_ptr<ClassifierBank> bank_b_;
  static std::shared_ptr<ClassifierBank> tiny_bank_;
};

synth::Dataset* ModelLifecycleTest::lab_ = nullptr;
std::shared_ptr<ClassifierBank> ModelLifecycleTest::bank_a_;
std::shared_ptr<ClassifierBank> ModelLifecycleTest::bank_b_;
std::shared_ptr<ClassifierBank> ModelLifecycleTest::tiny_bank_;

/// Interleaved multi-scenario packet mix (same shape as the sharded suite).
std::vector<net::Packet> interleaved_mix(int flows, std::uint64_t seed) {
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
  Rng rng(seed);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c = cases[static_cast<std::size_t>(i) % cases.size()];
    const auto platforms = fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()], c.provider,
        c.transport);
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

/// The classification-independent part of a record: which flow it was.
std::string identity_key(const telemetry::SessionRecord& r) {
  std::ostringstream os;
  os << static_cast<int>(r.provider) << '|' << static_cast<int>(r.transport)
     << '|' << r.sni << '|' << r.counters.first_us << '|' << r.counters.last_us
     << '|' << r.counters.bytes_down << '|' << r.counters.bytes_up << '|'
     << r.counters.packets_down << '|' << r.counters.packets_up;
  return os.str();
}

/// Full record identity (classification + telemetry).
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
  os << '|' << r.confidence << '|' << identity_key(r);
  return os.str();
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string fresh_dir(const std::string& name) {
  // Pid-suffixed: this binary runs concurrently with its own fuzz/concurrency
  // lane duplicates under `ctest -j`, and a shared directory lets one process
  // observe another's in-flight .tmp artifacts.
  const std::string dir =
      ::testing::TempDir() + name + "-" + std::to_string(::getpid());
  std::remove((dir + "/quarantine").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// ---- artifact integrity ----

TEST_F(ModelLifecycleTest, SerializedBankRoundTripsBitIdentically) {
  const Bytes wire = serialize_bank(*bank_a_);
  std::string why;
  const auto restored = deserialize_bank(wire, &why);
  ASSERT_TRUE(restored.has_value()) << why;
  EXPECT_EQ(restored->confidence_threshold(), bank_a_->confidence_threshold());
  EXPECT_EQ(restored->scenario_keys(), bank_a_->scenario_keys());

  std::size_t compared = 0;
  for (const auto& flow : lab_->flows) {
    const auto handshake = core::extract_handshake(flow.packets);
    if (!handshake) continue;
    const PlatformPrediction a = bank_a_->classify(*handshake, flow.provider);
    const PlatformPrediction b = restored->classify(*handshake, flow.provider);
    ASSERT_EQ(a.outcome, b.outcome);
    ASSERT_EQ(a.platform.has_value(), b.platform.has_value());
    if (a.platform) {
      ASSERT_EQ(a.platform->os, b.platform->os);
      ASSERT_EQ(a.platform->agent, b.platform->agent);
    }
    ASSERT_EQ(a.device, b.device);
    ASSERT_EQ(a.agent, b.agent);
    ASSERT_EQ(a.platform_confidence, b.platform_confidence);
    ASSERT_EQ(a.device_confidence, b.device_confidence);
    ASSERT_EQ(a.agent_confidence, b.agent_confidence);
    ++compared;
  }
  EXPECT_GT(compared, 100u);

  // Serialization is deterministic: same bank, same bytes.
  EXPECT_EQ(serialize_bank(*restored), wire);
}

TEST_F(ModelLifecycleTest, SaveBankPublishesAtomically) {
  const std::string dir = fresh_dir("vpsb_save");
  const std::string path = dir + "/bank.vpsb";
  std::remove(path.c_str());
  ASSERT_FALSE(save_bank(*tiny_bank_, path));
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::string why;
  const auto loaded = load_bank(path, &why);
  ASSERT_TRUE(loaded.has_value()) << why;
  EXPECT_EQ(serialize_bank(*loaded), serialize_bank(*tiny_bank_));

  // Unwritable destination surfaces an error code, not a silent truncation.
  const std::error_code ec =
      save_bank(*tiny_bank_, dir + "/no/such/dir/bank.vpsb");
  EXPECT_TRUE(ec);
  std::remove(path.c_str());
}

TEST_F(ModelLifecycleTest, EveryTruncatedPrefixRejected) {
  const Bytes wire = serialize_bank(*tiny_bank_);
  ASSERT_GT(wire.size(), 64u);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto bank = deserialize_bank(ByteView(wire.data(), len));
    ASSERT_FALSE(bank.has_value()) << "prefix of " << len << " bytes parsed";
  }
}

// A bank whose device forest has a NaN split threshold, with the payload CRC
// fixed up so only the threshold check stands between it and the scorer.
// Before the check it loaded, and the scorer's threshold sort is not
// well-defined with a NaN in it.
TEST_F(ModelLifecycleTest, NanSplitThresholdRejectedWithReason) {
  const auto* s = tiny_bank_->scenario(tiny_bank_->scenario_keys()[0].first,
                                       tiny_bank_->scenario_keys()[0].second);
  ASSERT_NE(s, nullptr);
  ASSERT_GE(s->device_model.trees()[0].nodes()[0].feature, 0);
  Bytes wire = serialize_bank(*tiny_bank_);
  const Bytes device_blob = ml::serialize_forest(s->device_model);
  const auto at = std::search(wire.begin(), wire.end(), device_blob.begin(),
                              device_blob.end());
  ASSERT_NE(at, wire.end());
  // v1 forest blob: magic u32, version u16, classes u32, trees u32; tree 0:
  // num_features u32, node count u32, root feature + 1 u32, then threshold.
  constexpr long kRootThreshold = 4 + 2 + 4 + 4 + 4 + 4 + 4;
  Writer nan_bits;
  nan_bits.u64(std::bit_cast<std::uint64_t>(
      std::numeric_limits<double>::quiet_NaN()));
  const Bytes bits = std::move(nan_bits).take();
  std::copy(bits.begin(), bits.end(), at + kRootThreshold);
  // Header: u32 magic, u16 version, u32 crc (offset 6), u64 size.
  constexpr std::size_t kHeader = 18;
  constexpr std::size_t kCrcAt = 6;
  const std::uint32_t crc =
      crc32(ByteView(wire.data() + kHeader, wire.size() - kHeader));
  for (int i = 0; i < 4; ++i)
    wire[kCrcAt + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));

  std::string why;
  EXPECT_FALSE(deserialize_bank(wire, &why).has_value());
  EXPECT_EQ(why, "device model blob malformed");
}

TEST_F(ModelLifecycleTest, WireMutants50kAllRejectedAndQuarantined) {
  const Bytes wire = serialize_bank(*tiny_bank_);
  ModelLifecycle lifecycle(bank_a_, 1, {.quarantine_files = false});
  lifecycle.set_smoke_check(
      [](const ClassifierBank&, std::string*) { return true; });

  constexpr int kMutants = 50'000;
  Rng rng(0xf00d);
  Bytes mutant;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    mutant = wire;
    switch (rng.uniform(0, 3)) {
      case 0: {  // flip 1-8 bytes (any payload flip trips the CRC)
        const int flips = static_cast<int>(rng.uniform(1, 8));
        for (int f = 0; f < flips; ++f) {
          const std::size_t at = rng.uniform(0, mutant.size() - 1);
          mutant[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
        }
        break;
      }
      case 1:  // truncate
        mutant.resize(rng.uniform(1, mutant.size() - 1));
        break;
      case 2: {  // extend with junk
        const std::size_t extra = rng.uniform(1, 64);
        for (std::size_t e = 0; e < extra; ++e)
          mutant.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
        break;
      }
      default: {  // overwrite a random region
        const std::size_t at = rng.uniform(0, mutant.size() - 1);
        const std::size_t n =
            std::min(mutant.size() - at,
                     static_cast<std::size_t>(rng.uniform(1, 32)));
        for (std::size_t o = 0; o < n; ++o)
          mutant[at + o] = static_cast<std::uint8_t>(rng.uniform(0, 255));
        break;
      }
    }
    if (mutant == wire) continue;  // identity mutation: not a mutant
    const AdmissionVerdict verdict = lifecycle.offer_bytes(mutant);
    ASSERT_NE(verdict, AdmissionVerdict::Armed)
        << "mutant " << i << " was admitted";
    ++rejected;
  }
  EXPECT_GT(rejected, kMutants - 100);  // identity mutations are rare
  const auto status = lifecycle.status();
  EXPECT_EQ(status.offers, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(status.quarantined, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(status.swaps, 0u);
  EXPECT_EQ(status.model_generation, 1u);
}

TEST_F(ModelLifecycleTest, CrcFixedUpStructureMutantsNeverCrash) {
  // Structure-aware pass: mutate the payload, then re-stamp the CRC so the
  // parser runs past the integrity gate into the structural checks. Every
  // outcome must be a clean verdict — admitted (semantically still a valid
  // bank) or rejected — never a crash, hang, or allocation bomb.
  const Bytes wire = serialize_bank(*tiny_bank_);
  // Header: u32 magic, u16 version, u32 crc (offset 6), u64 size (offset 10).
  constexpr std::size_t kHeader = 18;
  constexpr std::size_t kCrcAt = 6;
  ASSERT_GT(wire.size(), kHeader);

  ModelLifecycle lifecycle(bank_a_, 1,
                           {.canary_permille = 0, .quarantine_files = false});
  lifecycle.set_smoke_check(
      [](const ClassifierBank&, std::string*) { return true; });

  constexpr int kMutants = 10'000;
  Rng rng(0xbeef);
  Bytes mutant;
  int admitted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    mutant = wire;
    const int flips = static_cast<int>(rng.uniform(1, 4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.uniform(kHeader, mutant.size() - 1);
      mutant[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    const std::uint32_t crc =
        crc32(ByteView(mutant.data() + kHeader, mutant.size() - kHeader));
    mutant[kCrcAt] = static_cast<std::uint8_t>(crc >> 24);
    mutant[kCrcAt + 1] = static_cast<std::uint8_t>(crc >> 16);
    mutant[kCrcAt + 2] = static_cast<std::uint8_t>(crc >> 8);
    mutant[kCrcAt + 3] = static_cast<std::uint8_t>(crc);
    if (mutant == wire) continue;
    const AdmissionVerdict verdict = lifecycle.offer_bytes(mutant);
    if (verdict == AdmissionVerdict::Armed)
      ++admitted;
    else
      ++rejected;
  }
  EXPECT_EQ(admitted + rejected, kMutants);
  const auto status = lifecycle.status();
  EXPECT_EQ(status.quarantined, static_cast<std::uint64_t>(rejected));
  // Admitted mutants swapped straight in (canary disabled here), each one a
  // full generation publish that the data plane would survive.
  EXPECT_EQ(status.swaps, static_cast<std::uint64_t>(admitted));
}

// ---- admission, watcher, quarantine ----

TEST_F(ModelLifecycleTest, WatcherOffersArtifactsAndQuarantinesRejects) {
  const std::string dir = fresh_dir("vpsb_watch");
  std::remove((dir + "/good.vpsb").c_str());
  std::remove((dir + "/bad.vpsb").c_str());
  std::remove((dir + "/quarantine/bad.vpsb").c_str());

  ASSERT_FALSE(save_bank(*tiny_bank_, dir + "/good.vpsb"));
  {
    // A corrupt artifact and an in-flight tmp file the watcher must skip.
    std::ofstream bad(dir + "/bad.vpsb", std::ios::binary);
    bad << "VPSBgarbage-not-a-real-bank";
    std::ofstream tmp(dir + "/inflight.vpsb.tmp", std::ios::binary);
    tmp << "partial";
  }

  ModelLifecycle lifecycle(bank_a_, 1, {.canary_permille = 0});
  lifecycle.set_smoke_check(
      [](const ClassifierBank&, std::string*) { return true; });
  ModelDirWatcher watcher(&lifecycle, dir);
  std::string log;
  EXPECT_EQ(watcher.poll(&log), 2) << log;
  EXPECT_NE(log.find("good.vpsb: Armed"), std::string::npos) << log;
  EXPECT_NE(log.find("bad.vpsb: BadFormat"), std::string::npos) << log;
  EXPECT_EQ(log.find("inflight"), std::string::npos) << log;

  // The reject moved to quarantine/ so it is never re-offered; the good
  // artifact's signature is remembered. Second poll is a no-op.
  EXPECT_FALSE(file_exists(dir + "/bad.vpsb"));
  EXPECT_TRUE(file_exists(dir + "/quarantine/bad.vpsb"));
  EXPECT_EQ(watcher.poll(), 0);

  const auto status = lifecycle.status();
  EXPECT_EQ(status.offers, 2u);
  EXPECT_EQ(status.quarantined, 1u);
  EXPECT_EQ(status.model_generation, 2u);  // good.vpsb swapped in

  std::remove((dir + "/good.vpsb").c_str());
  std::remove((dir + "/inflight.vpsb.tmp").c_str());
  std::remove((dir + "/quarantine/bad.vpsb").c_str());
}

TEST_F(ModelLifecycleTest, OfferFileUnreadableIsReadFailed) {
  ModelLifecycle lifecycle(bank_a_, 1,
                           {.admission_retries = 2, .retry_backoff_us = 10});
  std::string why;
  EXPECT_EQ(lifecycle.offer_file("/nonexistent/model.vpsb", &why),
            AdmissionVerdict::ReadFailed);
  EXPECT_FALSE(why.empty());
  EXPECT_EQ(lifecycle.status().offers, 1u);
}

// ---- hot swap ----

TEST_F(ModelLifecycleTest, SingleThreadedPipelineAdoptsDirectSwap) {
  ModelLifecycle lifecycle(bank_a_, 1);
  DriftMonitor drift({.window = 20, .calibration = 10});
  VideoFlowPipeline pipe(nullptr);
  pipe.set_drift_monitor(&drift);
  pipe.attach_lifecycle(&lifecycle, 0);

  std::uint64_t records = 0;
  pipe.set_sink([&](telemetry::SessionRecord) { ++records; });
  const auto first = interleaved_mix(60, 11);
  for (const auto& packet : first) pipe.on_packet(packet);
  pipe.flush_all();
  EXPECT_EQ(records, 60u);
  EXPECT_TRUE(drift.status(Provider::YouTube, Transport::Tcp).calibrated);

  lifecycle.swap_to(bank_b_);
  // The old generation survives until the reader adopts...
  EXPECT_EQ(lifecycle.status().generations_retained, 2u);
  // Few enough post-swap flows (4 per scenario < calibration = 10) that the
  // recalibrated drift baseline cannot complete again before the check.
  const auto second = interleaved_mix(20, 12);
  for (const auto& packet : second) pipe.on_packet(packet);
  pipe.flush_all();
  EXPECT_EQ(records, 80u);
  // ...after which collection retires it, and the model_gen bump forced a
  // drift recalibration (the new bank must not inherit A's baselines).
  lifecycle.collect();
  const auto status = lifecycle.status();
  EXPECT_EQ(status.generations_retained, 1u);
  EXPECT_EQ(status.model_generation, 2u);
  EXPECT_EQ(status.swaps, 1u);
  EXPECT_FALSE(drift.status(Provider::YouTube, Transport::Tcp).calibrated);
}

TEST_F(ModelLifecycleTest, SwapStormShardedZeroDropsBitIdentical) {
  constexpr int kFlows = 600;
  constexpr int kSwapsTarget = 120;
  const auto packets = interleaved_mix(kFlows, 77);

  // Single-threaded references: one run per bank. Every sharded record must
  // match one of them bit-identically — a flow classifies under exactly one
  // generation, never a blend.
  std::map<std::string, std::set<std::string>> acceptable;
  std::map<std::string, int> flows_per_identity;
  for (const auto* bank : {bank_a_.get(), bank_b_.get()}) {
    VideoFlowPipeline reference(bank);
    reference.set_sink([&](telemetry::SessionRecord r) {
      acceptable[identity_key(r)].insert(record_fingerprint(r));
      if (bank == bank_a_.get()) ++flows_per_identity[identity_key(r)];
    });
    for (const auto& packet : packets) reference.on_packet(packet);
    reference.flush_all();
  }

  ModelLifecycle lifecycle(bank_a_, 8);
  ShardedPipeline sharded(bank_a_.get(),
                          {.n_shards = 8, .queue_capacity = 256,
                           .lifecycle = &lifecycle});
  std::map<std::string, int> seen;
  std::vector<std::pair<std::string, std::string>> mismatches;
  sharded.set_sink([&](telemetry::SessionRecord r) {
    const std::string id = identity_key(r);
    const std::string fp = record_fingerprint(r);
    ++seen[id];
    const auto it = acceptable.find(id);
    if (it == acceptable.end() || !it->second.count(fp))
      mismatches.emplace_back(id, fp);
  });

  // Swap storm: continuous alternation between the two banks while the
  // dispatcher feeds at full rate.
  std::atomic<bool> feeding{true};
  std::atomic<int> swaps{0};
  std::thread swapper([&] {
    bool use_b = true;
    while (feeding.load(std::memory_order_relaxed) ||
           swaps.load(std::memory_order_relaxed) < kSwapsTarget) {
      lifecycle.swap_to(use_b ? bank_b_ : bank_a_);
      use_b = !use_b;
      swaps.fetch_add(1, std::memory_order_relaxed);
      lifecycle.collect();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (const auto& packet : packets) sharded.on_packet(packet);
  sharded.flush_all();
  feeding.store(false, std::memory_order_relaxed);
  swapper.join();

  EXPECT_GE(swaps.load(), kSwapsTarget);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " records matched neither bank; first: "
      << (mismatches.empty() ? "" : mismatches.front().second);
  EXPECT_EQ(seen.size(), flows_per_identity.size());
  for (const auto& [id, count] : flows_per_identity)
    EXPECT_EQ(seen[id], count) << "flow lost or duplicated: " << id;

  // Zero drops under Block overload and the PR-4 accounting identity.
  const PipelineStats stats = sharded.stats();
  EXPECT_EQ(stats.packets_dropped_payload, 0u);
  EXPECT_EQ(stats.packets_dropped_handshake, 0u);
  EXPECT_EQ(stats.packets_stranded, 0u);
  EXPECT_EQ(stats.packets_total, stats.packets_processed);
  EXPECT_EQ(stats.video_flows, static_cast<std::uint64_t>(kFlows));

  // Idle shards keep adopting while parked, so the storm's generations all
  // retire once the dust settles.
  EXPECT_TRUE(lifecycle.wait_all_adopted(2'000'000));
  lifecycle.collect();
  EXPECT_EQ(lifecycle.status().generations_retained, 1u);
}

// ---- canary rollout ----

TEST_F(ModelLifecycleTest, LabelShuffledRetrainIsRolledBackAutomatically) {
  // The poisoned retrain: same flows, labels randomly reassigned. It is
  // structurally a perfectly valid bank — admission and smoke checks pass —
  // but its predictions are noise, which is exactly what the canary stage
  // exists to catch.
  synth::Dataset shuffled = *lab_;
  Rng rng(1234);
  for (auto& flow : shuffled.flows) {
    const auto platforms =
        fingerprint::platforms_for(flow.provider, flow.transport);
    flow.platform = platforms[rng.uniform(0, platforms.size() - 1)];
  }
  ClassifierBank poisoned;
  poisoned.train(shuffled, small_params(5));

  ModelLifecycle lifecycle(bank_a_, 1,
                           {.canary_permille = 300,
                            .canary_min_flows = 25,
                            .stable_min_flows = 50,
                            .quarantine_files = false});
  VideoFlowPipeline pipe(nullptr);
  pipe.attach_lifecycle(&lifecycle, 0);
  pipe.set_sink([](telemetry::SessionRecord) {});

  ASSERT_EQ(lifecycle.offer_bytes(serialize_bank(poisoned)),
            AdmissionVerdict::Armed);
  EXPECT_TRUE(lifecycle.status().canary_active);
  // A second offer while the rollout is in flight is refused, not queued.
  EXPECT_EQ(lifecycle.offer_bytes(serialize_bank(*bank_b_)),
            AdmissionVerdict::Busy);

  const auto packets = interleaved_mix(500, 21);
  ModelLifecycle::Decision decision = ModelLifecycle::Decision::None;
  std::size_t fed = 0;
  for (const auto& packet : packets) {
    pipe.on_packet(packet);
    if ((++fed & 255) == 0 &&
        (decision = lifecycle.poll()) != ModelLifecycle::Decision::None)
      break;
  }
  if (decision == ModelLifecycle::Decision::None) {
    pipe.flush_all();
    decision = lifecycle.poll();
  }
  EXPECT_EQ(decision, ModelLifecycle::Decision::RolledBack);

  const auto status = lifecycle.status();
  EXPECT_EQ(status.rollbacks, 1u);
  EXPECT_EQ(status.promotions, 0u);
  EXPECT_EQ(status.quarantined, 1u);
  EXPECT_FALSE(status.canary_active);
  EXPECT_EQ(status.model_generation, 1u);  // stable identity untouched

  // The incumbent keeps serving: more traffic classifies normally. (First
  // drain the flows still in flight from the aborted feed loop above, while
  // the discarding sink is still installed.)
  pipe.flush_all();
  std::uint64_t records = 0;
  pipe.set_sink([&](telemetry::SessionRecord) { ++records; });
  const auto more = interleaved_mix(50, 22);
  for (const auto& packet : more) pipe.on_packet(packet);
  pipe.flush_all();
  EXPECT_EQ(records, 50u);
}

TEST_F(ModelLifecycleTest, RetrainedBankIsPromotedAutomatically) {
  ModelLifecycle lifecycle(bank_a_, 1,
                           {.canary_permille = 300,
                            .canary_min_flows = 25,
                            .stable_min_flows = 50,
                            .quarantine_files = false});
  DriftMonitor drift({.window = 40, .calibration = 20});
  VideoFlowPipeline pipe(nullptr);
  pipe.set_drift_monitor(&drift);
  pipe.attach_lifecycle(&lifecycle, 0);
  pipe.set_sink([](telemetry::SessionRecord) {});

  // Calibrate drift against the incumbent before the rollout.
  const auto warmup = interleaved_mix(150, 31);
  for (const auto& packet : warmup) pipe.on_packet(packet);
  pipe.flush_all();
  ASSERT_TRUE(drift.status(Provider::YouTube, Transport::Tcp).calibrated);

  ASSERT_EQ(lifecycle.offer_bytes(serialize_bank(*bank_b_)),
            AdmissionVerdict::Armed);
  const auto packets = interleaved_mix(500, 32);
  ModelLifecycle::Decision decision = ModelLifecycle::Decision::None;
  std::size_t fed = 0;
  for (const auto& packet : packets) {
    pipe.on_packet(packet);
    if ((++fed & 255) == 0 &&
        (decision = lifecycle.poll()) != ModelLifecycle::Decision::None)
      break;
  }
  if (decision == ModelLifecycle::Decision::None) {
    pipe.flush_all();
    decision = lifecycle.poll();
  }
  EXPECT_EQ(decision, ModelLifecycle::Decision::Promoted);

  const auto status = lifecycle.status();
  EXPECT_EQ(status.promotions, 1u);
  EXPECT_EQ(status.rollbacks, 0u);
  EXPECT_EQ(status.model_generation, 2u);
  EXPECT_FALSE(status.canary_active);

  // Adopting the promoted generation recalibrates the drift baselines: the
  // new model is not judged against the old model's calibration.
  const auto more = interleaved_mix(10, 33);
  for (const auto& packet : more) pipe.on_packet(packet);
  EXPECT_FALSE(drift.status(Provider::YouTube, Transport::Tcp).calibrated);
  pipe.flush_all();
}

// ---- lifecycle observability ----

TEST_F(ModelLifecycleTest, ObsMirrorsGenerationsAndQuarantines) {
  obs::Registry registry(1);
  ModelLifecycle lifecycle(bank_a_, 1, {.quarantine_files = false});
  lifecycle.set_smoke_check(
      [](const ClassifierBank&, std::string*) { return true; });
  lifecycle.bind_obs(&registry, 0);

  EXPECT_EQ(registry.gauge("vpscope_model_generation", "").value(0), 1);
  lifecycle.swap_to(bank_b_);
  EXPECT_EQ(registry.gauge("vpscope_model_generation", "").value(0), 2);
  EXPECT_EQ(registry.counter("vpscope_model_swaps_total", "").total(), 1u);

  const Bytes junk = {0x00, 0x01, 0x02};
  EXPECT_NE(lifecycle.offer_bytes(junk), AdmissionVerdict::Armed);
  EXPECT_EQ(registry.counter("vpscope_bundle_offers_total", "").total(), 1u);
  EXPECT_EQ(registry.counter("vpscope_bundle_quarantined", "").total(), 1u);
}

// ---- drift: merge, gauges, clock robustness ----

TEST_F(ModelLifecycleTest, DriftMergeEqualsAccumulatorSums) {
  const DriftConfig config{.window = 50, .calibration = 30};
  DriftMonitor shard0(config);
  DriftMonitor shard1(config);
  // Shard 0: healthy calibration, then a degraded window.
  for (int i = 0; i < 30; ++i)
    shard0.record(Provider::YouTube, Transport::Tcp,
                  telemetry::Outcome::Composite, 0.9);
  for (int i = 0; i < 40; ++i)
    shard0.record(Provider::YouTube, Transport::Tcp,
                  telemetry::Outcome::Unknown, 0.0);
  // Shard 1: healthy throughout.
  for (int i = 0; i < 50; ++i)
    shard1.record(Provider::YouTube, Transport::Tcp,
                  telemetry::Outcome::Composite, 0.8);

  const auto s0 = shard0.status(Provider::YouTube, Transport::Tcp);
  const auto s1 = shard1.status(Provider::YouTube, Transport::Tcp);
  const std::vector<DriftMonitor::Status> parts = {s0, s1};
  const auto merged = DriftMonitor::merge(parts, config);

  EXPECT_EQ(merged.observed, s0.observed + s1.observed);
  EXPECT_EQ(merged.baseline_n, s0.baseline_n + s1.baseline_n);
  EXPECT_EQ(merged.baseline_composite,
            s0.baseline_composite + s1.baseline_composite);
  EXPECT_EQ(merged.window_n, s0.window_n + s1.window_n);
  EXPECT_EQ(merged.window_composite,
            s0.window_composite + s1.window_composite);
  EXPECT_TRUE(merged.calibrated);
  // Rates re-derive from the summed accumulators — exactly what one monitor
  // fed both shards' streams (in any order) would report.
  const double expected_recent =
      1.0 - static_cast<double>(merged.window_composite) /
                static_cast<double>(merged.window_n);
  EXPECT_DOUBLE_EQ(merged.recent_reject_rate, expected_recent);
  // Shard 0's full-reject window dominates the merged view: drifting.
  EXPECT_TRUE(merged.drifting);
  EXPECT_FALSE(s1.drifting);
}

TEST_F(ModelLifecycleTest, ShardedDriftStatusMergesAcrossShards) {
  const auto packets = interleaved_mix(300, 55);
  ShardedPipeline sharded(
      bank_a_.get(),
      {.n_shards = 4, .queue_capacity = 256,
       .drift = DriftConfig{.window = 50, .calibration = 20}});
  sharded.set_sink([](telemetry::SessionRecord) {});
  for (const auto& packet : packets) sharded.on_packet(packet);
  sharded.flush_all();

  // 300 flows / 5 scenarios = 60 per scenario, spread over 4 shards — no
  // single shard is guaranteed to calibrate, but the merged view must.
  const auto merged = sharded.drift_status(Provider::YouTube, Transport::Tcp);
  EXPECT_EQ(merged.observed, 60u);
  EXPECT_TRUE(merged.calibrated);
  EXPECT_FALSE(sharded.any_drifting());

  sharded.refresh_drift_gauges();
  auto& registry = sharded.observability().registry();
  const int dslot = sharded.observability().dispatcher_slot();
  EXPECT_EQ(registry
                .gauge("vpscope_drift_flagged", "",
                       "provider=\"YouTube\",transport=\"TCP\"")
                .value(dslot),
            0);
}

TEST_F(ModelLifecycleTest, DriftWindowAgesOutOnlyForward) {
  DriftMonitor drift(
      {.window = 100, .calibration = 5, .max_sample_age_us = 1'000});
  for (int i = 0; i < 5; ++i)
    drift.record(Provider::Netflix, Transport::Tcp,
                 telemetry::Outcome::Composite, 0.9, 1'000);
  // Window samples at ts 10'000..10'009: all within the age bound.
  for (int i = 0; i < 10; ++i)
    drift.record(Provider::Netflix, Transport::Tcp,
                 telemetry::Outcome::Composite, 0.9,
                 10'000 + static_cast<std::uint64_t>(i));
  EXPECT_EQ(drift.status(Provider::Netflix, Transport::Tcp).window_n, 10u);

  // A backwards-stamped sample (capture clock reset) is clamped to "now":
  // it must neither age out the window nor wrap the arithmetic.
  drift.record(Provider::Netflix, Transport::Tcp,
               telemetry::Outcome::Composite, 0.9, 500);
  EXPECT_EQ(drift.status(Provider::Netflix, Transport::Tcp).window_n, 11u);

  // A genuine forward jump beyond the bound evicts everything older.
  drift.record(Provider::Netflix, Transport::Tcp,
               telemetry::Outcome::Composite, 0.9, 100'000);
  EXPECT_EQ(drift.status(Provider::Netflix, Transport::Tcp).window_n, 1u);
}

// ---- ml::serialize atomic writers (satellite) ----

TEST_F(ModelLifecycleTest, AtomicForestAndBundleSaves) {
  const auto* scenario = bank_a_->scenario(Provider::YouTube, Transport::Tcp);
  ASSERT_NE(scenario, nullptr);
  const std::string dir = fresh_dir("ml_atomic");

  const std::string forest_path = dir + "/forest.bin";
  ASSERT_FALSE(ml::save_forest_atomic(scenario->device_model, forest_path));
  EXPECT_FALSE(file_exists(forest_path + ".tmp"));
  const auto forest = ml::load_forest(forest_path);
  ASSERT_TRUE(forest.has_value());
  EXPECT_EQ(ml::serialize_forest(*forest),
            ml::serialize_forest(scenario->device_model));

  const std::string bundle_path = dir + "/bundle.bin";
  ASSERT_FALSE(ml::save_bundle_atomic(scenario->platform_model,
                                      scenario->encoder, bundle_path));
  EXPECT_FALSE(file_exists(bundle_path + ".tmp"));
  const auto bundle = ml::load_bundle(bundle_path);
  ASSERT_TRUE(bundle.has_value());
  ASSERT_TRUE(bundle->encoder.has_value());
  EXPECT_EQ(ml::serialize_bundle(bundle->forest, *bundle->encoder),
            ml::serialize_bundle(scenario->platform_model, scenario->encoder));

  EXPECT_TRUE(ml::save_forest_atomic(scenario->device_model,
                                     dir + "/no/such/forest.bin"));
  std::remove(forest_path.c_str());
  std::remove(bundle_path.c_str());
}

}  // namespace
}  // namespace vpscope::pipeline
