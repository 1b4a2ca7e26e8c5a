// §4.3.3 / §5.1 real-time feasibility: per-packet cost of the end-to-end
// pipeline (flow table -> handshake extraction -> SNI detection ->
// attribute generation -> classification -> telemetry), the compiled-forest
// speedup over the uncompiled classification path, and the shard-scaling
// behaviour of the multi-core front-end. The paper's deployment handled
// 20 Gbit/s peak and > 1000 concurrent video flows on an 8-core Xeon; the
// numbers below give the packet/flow rates of this implementation per
// shard count, and are also written to BENCH_pipeline.json so successive
// PRs accumulate a machine-readable perf trajectory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <span>
#include <thread>

#include "bench/campus_common.hpp"
#include "core/handshake.hpp"
#include "crypto/kernels.hpp"
#include "ml/compiled_forest.hpp"
#include "obs/timer.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "util/cpu_features.hpp"

// ---- counting allocator -------------------------------------------------
// Global operator new/delete override for this binary only: counts heap
// allocations while `g_count_allocs` is set, so the encode microbench can
// report what the chain from a flow's handshake packets to its verdict
// allocates in steady state.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  note_alloc();
  const std::size_t alignment = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace vpscope;
using fingerprint::Agent;
using fingerprint::Os;
using fingerprint::Provider;
using fingerprint::Transport;

std::vector<net::Packet> make_packet_mix(int flows) {
  Rng rng(99);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c =
        bench::scenario_cases()[static_cast<std::size_t>(i) %
                                bench::scenario_cases().size()];
    const auto platforms = fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()],
        c.provider, c.transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i) * 1000;
    opt.payload_bytes = 200'000;
    opt.payload_duration_us = 1'000'000;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  return packets;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SingleThreadResult {
  double elapsed_s = 0;
  std::size_t packets = 0;
  std::uint64_t video_flows = 0;
  std::size_t records = 0;
  double mbit_per_sec = 0;
};

SingleThreadResult run_single_thread_once(
    const std::vector<net::Packet>& packets) {
  SingleThreadResult out;
  const auto start = std::chrono::steady_clock::now();
  pipeline::VideoFlowPipeline pipe(&bench::campus_bank());
  std::size_t records = 0;
  pipe.set_sink([&records](telemetry::SessionRecord) { ++records; });
  for (const auto& packet : packets) pipe.on_packet(packet);
  pipe.flush_all();
  out.elapsed_s = seconds_since(start);
  out.packets = packets.size();
  out.video_flows = pipe.stats().video_flows;
  out.records = records;
  std::uint64_t bytes = 0;
  for (const auto& p : packets) bytes += p.data.size();
  out.mbit_per_sec = static_cast<double>(bytes) * 8 / out.elapsed_s / 1e6;
  return out;
}

SingleThreadResult run_single_thread(const std::vector<net::Packet>& packets) {
  auto best = run_single_thread_once(packets);
  for (int rep = 1; rep < 3; ++rep) {
    const auto r = run_single_thread_once(packets);
    if (r.elapsed_s < best.elapsed_s) best = r;
  }
  return best;
}

struct ShardResult {
  int shards = 0;
  std::size_t batch_size = 0;
  double elapsed_s = 0;
  double packets_per_sec = 0;
  double flows_per_sec = 0;
  double speedup_vs_1 = 0;
  /// bench::scaling_valid: a core for every worker and the dispatcher.
  bool scaling_valid = true;
};

ShardResult run_sharded_once(const std::vector<net::Packet>& packets,
                             int shards, std::size_t batch_size) {
  ShardResult out;
  out.shards = shards;
  out.batch_size = batch_size;
  out.scaling_valid = bench::scaling_valid(shards);
  const auto start = std::chrono::steady_clock::now();
  pipeline::ShardedPipeline pipe(&bench::campus_bank(),
                                 {.n_shards = shards,
                                  .queue_capacity = 4096,
                                  .batch_size = batch_size});
  std::atomic<std::size_t> records{0};
  pipe.set_sink([&records](telemetry::SessionRecord) {
    records.fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& packet : packets) pipe.on_packet(packet);
  pipe.flush_all();
  const auto stats = pipe.stats();
  out.elapsed_s = seconds_since(start);
  out.packets_per_sec = static_cast<double>(packets.size()) / out.elapsed_s;
  out.flows_per_sec = static_cast<double>(stats.video_flows) / out.elapsed_s;
  return out;
}

ShardResult run_sharded(const std::vector<net::Packet>& packets, int shards,
                        std::size_t batch_size) {
  auto best = run_sharded_once(packets, shards, batch_size);
  for (int rep = 1; rep < 3; ++rep) {
    const auto r = run_sharded_once(packets, shards, batch_size);
    if (r.elapsed_s < best.elapsed_s) best = r;
  }
  return best;
}

struct ClassifyResult {
  double seed_us = 0;
  double uncompiled_us = 0;
  double compiled_us = 0;
  double speedup_vs_seed = 0;
  double speedup_vs_uncompiled = 0;
};

/// The v0 classification kernel, reproduced exactly: DecisionTree's
/// predict_proba used to return its leaf distribution by value, so every
/// tree of every call materialized a fresh std::vector. Kept here as the
/// bench baseline the compiled path is measured against.
std::pair<int, double> seed_predict_with_confidence(
    const ml::RandomForest& forest, const std::vector<double>& x) {
  std::vector<double> proba(static_cast<std::size_t>(forest.num_classes()),
                            0.0);
  for (const auto& tree : forest.trees()) {
    const std::vector<double> p = tree.predict_proba(x);
    for (std::size_t c = 0; c < proba.size(); ++c) proba[c] += p[c];
  }
  for (auto& v : proba) v /= static_cast<double>(forest.tree_count());
  const auto it = std::max_element(proba.begin(), proba.end());
  return {static_cast<int>(it - proba.begin()), *it};
}

/// Times the per-flow classification kernel (the paper's random forest)
/// three ways: the seed path (per-tree probability copies), the current
/// uncompiled forest (copy-free), and the compiled form the pipeline
/// deploys (the bitmask scorer run on one row).
ClassifyResult run_classify_kernel() {
  const auto* scenario =
      bench::campus_bank().scenario(Provider::YouTube, Transport::Tcp);
  ClassifyResult out;
  if (!scenario) return out;

  Rng rng(5);
  synth::FlowSynthesizer synth(rng);
  const auto platforms =
      fingerprint::platforms_for(Provider::YouTube, Transport::Tcp);
  std::vector<std::vector<double>> features;
  for (int i = 0; i < 64; ++i) {
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()],
        Provider::YouTube, Transport::Tcp);
    const auto flow = synth.synthesize(profile);
    const auto handshake = core::extract_handshake(flow.packets);
    features.push_back(scenario->encoder.transform(*handshake));
  }

  // Min over repetitions: the best repetition is the least contaminated by
  // scheduler/cache interference, which matters on shared machines.
  constexpr int kRounds = 500;
  constexpr int kReps = 5;
  const auto time_us_per_call = [&](auto&& fn) {
    double best_us = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int round = 0; round < kRounds; ++round)
        for (const auto& x : features) fn(x);
      best_us = std::min(best_us,
                         seconds_since(start) * 1e6 /
                             (static_cast<double>(kRounds) * features.size()));
    }
    return best_us;
  };

  out.seed_us = time_us_per_call([&](const std::vector<double>& x) {
    benchmark::DoNotOptimize(
        seed_predict_with_confidence(scenario->platform_model, x));
  });
  out.uncompiled_us = time_us_per_call([&](const std::vector<double>& x) {
    benchmark::DoNotOptimize(scenario->platform_model.predict_with_confidence(x));
  });
  ml::CompiledForest::Scratch scratch;
  out.compiled_us = time_us_per_call([&](const std::vector<double>& x) {
    benchmark::DoNotOptimize(
        scenario->platform_compiled.predict_with_confidence(x, scratch));
  });
  out.speedup_vs_seed = out.seed_us / out.compiled_us;
  out.speedup_vs_uncompiled = out.uncompiled_us / out.compiled_us;
  return out;
}

// ---- cross-flow batch classify microbench (DESIGN.md §5g) --------------

struct BatchClassifyResult {
  struct Point {
    std::size_t batch = 0;
    double us = 0;       // predict_with_confidence_batch, per flow
    double speedup = 0;  // per-flow compiled / batched
  };
  std::vector<Point> points;   // batch sizes 8 / 32 / 128
  double compiled_us = 0;      // per-flow compiled baseline (one-row call)
  double batch32_speedup = 0;  // the acceptance-criterion number
};

/// Times the batched classification kernel against the per-flow compiled
/// baseline over the same feature rows, at batch sizes 8/32/128, per flow.
BatchClassifyResult run_batch_classify_kernel(double compiled_us) {
  const auto* scenario =
      bench::campus_bank().scenario(Provider::YouTube, Transport::Tcp);
  BatchClassifyResult out;
  out.compiled_us = compiled_us;
  if (!scenario) return out;

  // Same flow population as run_classify_kernel, laid out as one
  // contiguous row-major matrix and cycled up to the largest batch size.
  Rng rng(5);
  synth::FlowSynthesizer synth(rng);
  const auto platforms =
      fingerprint::platforms_for(Provider::YouTube, Transport::Tcp);
  const std::size_t dim = scenario->encoder.dimension();
  constexpr std::size_t kRows = 128;
  std::vector<double> matrix(kRows * dim);
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto profile = fingerprint::make_profile(
        platforms[i % platforms.size()], Provider::YouTube, Transport::Tcp);
    const auto flow = synth.synthesize(profile);
    const auto handshake = core::extract_handshake(flow.packets);
    const auto x = scenario->encoder.transform(*handshake);
    std::copy(x.begin(), x.end(), matrix.begin() + static_cast<long>(i * dim));
  }

  constexpr int kRounds = 500;
  constexpr int kReps = 7;
  // us per FLOW (not per call): one timed pass covers all kRows rows in
  // batch-size chunks, so numbers compare directly with the per-flow
  // baseline.
  const auto time_us_per_flow = [&](auto&& pass) {
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) pass();
    return seconds_since(start) * 1e6 /
           (static_cast<double>(kRounds) * kRows);
  };

  ml::CompiledForest::Scratch scratch;
  ml::CompiledForest::BatchScratch batch_scratch;
  std::vector<int> labels(kRows);
  std::vector<double> confidences(kRows);
  const std::size_t batches[] = {8, 32, 128};
  // Baseline and batch kernels are timed adjacently INSIDE each repetition
  // (min over reps per kernel afterwards): the box is shared and its speed
  // drifts minute to minute, so timing the baseline once up front would
  // randomize every speedup ratio. compiled_us (the run_classify_kernel
  // number) is still reported for continuity with earlier runs.
  double base_us = std::numeric_limits<double>::infinity();
  double batch_us[3];
  std::fill(std::begin(batch_us), std::end(batch_us),
            std::numeric_limits<double>::infinity());
  for (int rep = 0; rep < kReps; ++rep) {
    base_us = std::min(base_us, time_us_per_flow([&] {
      for (std::size_t r = 0; r < kRows; ++r)
        benchmark::DoNotOptimize(
            scenario->platform_compiled.predict_with_confidence(
                std::span<const double>(matrix).subspan(r * dim, dim),
                scratch));
    }));
    for (std::size_t bi = 0; bi < 3; ++bi) {
      const std::size_t batch = batches[bi];
      batch_us[bi] = std::min(batch_us[bi], time_us_per_flow([&] {
        for (std::size_t at = 0; at < kRows; at += batch) {
          const std::size_t n = std::min(batch, kRows - at);
          scenario->platform_compiled.predict_with_confidence_batch(
              std::span<const double>(matrix).subspan(at * dim, n * dim), dim,
              std::span<int>(labels).subspan(at, n),
              std::span<double>(confidences).subspan(at, n), batch_scratch);
        }
        benchmark::DoNotOptimize(labels.data());
      }));
    }
  }

  out.compiled_us = base_us;
  for (std::size_t bi = 0; bi < 3; ++bi) {
    BatchClassifyResult::Point point;
    point.batch = batches[bi];
    point.us = batch_us[bi];
    point.speedup = base_us / point.us;
    if (point.batch == 32) out.batch32_speedup = point.speedup;
    out.points.push_back(point);
  }
  return out;
}

// ---- per-stage latency: batched vs item-at-a-time data plane -----------

struct StageLatencyResult {
  std::size_t batch_size = 0;
  struct Row {
    std::string_view stage;
    std::uint64_t count = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
  };
  std::vector<Row> rows;
};

/// One sharded run with stage profiling on, batched or not; the p50/p99
/// pairs come from the §5f log-linear histograms, so "what did batching do
/// to per-stage latency" is answered by the same instrument production
/// scrapes use.
StageLatencyResult run_stage_latency(const std::vector<net::Packet>& packets,
                                     std::size_t batch_size) {
  StageLatencyResult out;
  out.batch_size = batch_size;
  pipeline::ShardedPipeline pipe(&bench::campus_bank(),
                                 {.n_shards = 2,
                                  .queue_capacity = 4096,
                                  .batch_size = batch_size,
                                  .obs = {.profile_stages = true}});
  pipe.set_sink([](telemetry::SessionRecord) {});
  for (const auto& packet : packets) pipe.on_packet(packet);
  pipe.flush_all();
  for (int s = 0; s < static_cast<int>(obs::Stage::kCount); ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const auto snap =
        pipe.observability().profiler.histogram(stage).snapshot();
    out.rows.push_back({obs::stage_name(stage), snap.count,
                        snap.percentile(50), snap.percentile(99)});
  }
  return out;
}

struct EncodeResult {
  const char* name = "";
  std::size_t flows = 0;
  double extract_encode_us = 0;   // extractor feed + transform_into
  double classify_chain_us = 0;   // extractor feed + ClassifierBank::classify
  double flows_per_sec = 0;       // from the full chain
  double allocs_per_flow = 0;     // steady-state heap allocs, full chain
};

/// The encode path from the wire: each flow's decoded packets up to the one
/// that completes its handshake are fed to a fresh HandshakeExtractor (the
/// ClientHello parse, and for QUIC the Initial unprotect and transport
/// parameters), then encoded or classified as the pipeline does per video
/// flow.
EncodeResult run_encode_kernel(Provider provider, Transport transport,
                               const char* name) {
  EncodeResult out;
  out.name = name;
  const auto& bank = bench::campus_bank();
  const auto* scenario = bank.scenario(provider, transport);
  if (!scenario) return out;

  Rng rng(17);
  synth::FlowSynthesizer synth(rng);
  const auto platforms = fingerprint::platforms_for(provider, transport);
  std::vector<synth::LabeledFlow> flows;
  std::vector<std::vector<net::DecodedPacket>> handshakes;
  for (int i = 0; i < 64; ++i) {
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()], provider,
        transport);
    flows.push_back(synth.synthesize(profile));
  }
  for (const auto& flow : flows) {
    core::HandshakeExtractor probe;
    std::vector<net::DecodedPacket> packets;
    for (const auto& packet : flow.packets) {
      net::DecodedPacket decoded;
      if (!net::decode_into(packet, decoded)) continue;
      packets.push_back(decoded);
      probe.feed(decoded);
      if (probe.complete()) break;
    }
    if (probe.complete()) handshakes.push_back(std::move(packets));
  }
  out.flows = handshakes.size();
  if (handshakes.empty()) return out;

  // One flow's handshake from its packets, in a fresh extractor as each
  // pipeline handshake slot is.
  const auto extract = [](const std::vector<net::DecodedPacket>& packets,
                          core::HandshakeExtractor& extractor)
      -> const core::FlowHandshake& {
    extractor = core::HandshakeExtractor{};
    for (const auto& decoded : packets) extractor.feed(decoded);
    return *extractor.handshake();
  };

  constexpr int kRounds = 500;
  constexpr int kReps = 5;
  const auto time_us_per_flow = [&](auto&& fn) {
    double best_us = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int round = 0; round < kRounds; ++round)
        for (const auto& h : handshakes) fn(h);
      best_us = std::min(
          best_us, seconds_since(start) * 1e6 /
                       (static_cast<double>(kRounds) * handshakes.size()));
    }
    return best_us;
  };

  // Stage 1: extract + encode, against the fitted frozen interner.
  core::HandshakeExtractor extractor;
  core::RawAttrs raw;
  std::vector<double> features(scenario->encoder.dimension());
  out.extract_encode_us =
      time_us_per_flow([&](const std::vector<net::DecodedPacket>& packets) {
        const core::FlowHandshake& h = extract(packets, extractor);
        scenario->encoder.transform_into(h, raw, features);
        benchmark::DoNotOptimize(features.data());
      });

  // Stage 2: the deployed chain (extract -> encode -> compiled forests with
  // confidence gating), as the pipeline runs it per video flow.
  out.classify_chain_us =
      time_us_per_flow([&](const std::vector<net::DecodedPacket>& packets) {
        benchmark::DoNotOptimize(
            bank.classify(extract(packets, extractor), provider));
      });
  out.flows_per_sec = 1e6 / out.classify_chain_us;

  // Steady-state allocation count over the full chain, from the packets.
  // One warm-up pass lets the thread_local classify scratch reach capacity
  // first.
  for (const auto& packets : handshakes)
    (void)bank.classify(extract(packets, extractor), provider);
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  constexpr int kAllocRounds = 50;
  for (int round = 0; round < kAllocRounds; ++round)
    for (const auto& packets : handshakes)
      benchmark::DoNotOptimize(
          bank.classify(extract(packets, extractor), provider));
  g_count_allocs.store(false, std::memory_order_relaxed);
  out.allocs_per_flow =
      static_cast<double>(g_alloc_count.load(std::memory_order_relaxed)) /
      (static_cast<double>(kAllocRounds) * handshakes.size());
  return out;
}

void write_encode_json(const std::vector<EncodeResult>& results) {
  std::ofstream json("BENCH_encode.json");
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"encode_path\",\n"
       << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"name\": \"" << r.name << "\", \"flows\": " << r.flows
         << ", \"extract_encode_us_per_flow\": " << r.extract_encode_us
         << ", \"classify_chain_us_per_flow\": " << r.classify_chain_us
         << ", \"flows_per_sec\": " << r.flows_per_sec
         << ", \"allocs_per_flow\": " << r.allocs_per_flow << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

void write_json(const SingleThreadResult& single, const ClassifyResult& cls,
                const BatchClassifyResult& batch,
                const std::vector<ShardResult>& scaling,
                const std::vector<StageLatencyResult>& stage_latency) {
  std::ofstream json("BENCH_pipeline.json");
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"pipeline_throughput\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"effective_affinity\": " << bench::effective_affinity() << ",\n"
       << "  \"single_thread\": {\n"
       << "    \"packets\": " << single.packets << ",\n"
       << "    \"elapsed_s\": " << single.elapsed_s << ",\n"
       << "    \"packets_per_sec\": "
       << static_cast<double>(single.packets) / single.elapsed_s << ",\n"
       << "    \"video_flows\": " << single.video_flows << ",\n"
       << "    \"flows_per_sec\": "
       << static_cast<double>(single.video_flows) / single.elapsed_s << ",\n"
       << "    \"handshake_mbit_per_sec\": " << single.mbit_per_sec << "\n"
       << "  },\n"
       << "  \"flow_classification\": {\n"
       << "    \"seed_us_per_flow\": " << cls.seed_us << ",\n"
       << "    \"uncompiled_us_per_flow\": " << cls.uncompiled_us << ",\n"
       << "    \"compiled_us_per_flow\": " << cls.compiled_us << ",\n"
       << "    \"compiled_speedup_vs_seed\": " << cls.speedup_vs_seed
       << ",\n"
       << "    \"compiled_speedup_vs_uncompiled\": "
       << cls.speedup_vs_uncompiled << "\n"
       << "  },\n"
       << "  \"batch_classification\": {\n"
       << "    \"compiled_us_per_flow\": " << batch.compiled_us << ",\n"
       << "    \"batch32_speedup_vs_per_flow\": " << batch.batch32_speedup
       << ",\n"
       << "    \"batch_sizes\": [\n";
  for (std::size_t i = 0; i < batch.points.size(); ++i) {
    const auto& p = batch.points[i];
    json << "      {\"batch\": " << p.batch
         << ", \"us_per_flow\": " << p.us
         << ", \"speedup_vs_per_flow\": " << p.speedup << "}"
         << (i + 1 < batch.points.size() ? "," : "") << "\n";
  }
  json << "    ]\n"
       << "  },\n"
       << "  \"shard_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const auto& s = scaling[i];
    json << "    {\"shards\": " << s.shards
         << ", \"batch_size\": " << s.batch_size
         << ", \"elapsed_s\": " << s.elapsed_s
         << ", \"packets_per_sec\": " << s.packets_per_sec
         << ", \"flows_per_sec\": " << s.flows_per_sec
         << ", \"speedup_vs_1\": " << s.speedup_vs_1
         << ", \"scaling_valid\": " << (s.scaling_valid ? "true" : "false")
         << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"stage_latency_ns\": [\n";
  for (std::size_t i = 0; i < stage_latency.size(); ++i) {
    const auto& run = stage_latency[i];
    json << "    {\"batch_size\": " << run.batch_size << ", \"stages\": [";
    for (std::size_t r = 0; r < run.rows.size(); ++r) {
      const auto& row = run.rows[r];
      json << "{\"stage\": \"" << row.stage << "\", \"count\": " << row.count
           << ", \"p50\": " << row.p50_ns << ", \"p99\": " << row.p99_ns
           << "}" << (r + 1 < run.rows.size() ? ", " : "");
    }
    json << "]}" << (i + 1 < stage_latency.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

void report() {
  print_banner(std::cout,
               "Pipeline real-time feasibility (paper §4.3.3 / §5.1)");
  const auto packets = make_packet_mix(400);
  (void)bench::campus_bank();  // train outside every timed region

  const auto single = run_single_thread(packets);

  TextTable table({"Metric", "Value"});
  table.add_row({"packets processed", std::to_string(single.packets)});
  table.add_row({"video flows classified", std::to_string(single.video_flows)});
  table.add_row({"session records", std::to_string(single.records)});
  table.add_row({"packets/sec (single core)",
                 TextTable::num(static_cast<double>(single.packets) /
                                    single.elapsed_s, 0)});
  table.add_row({"handshake Mbit/s (single core)",
                 TextTable::num(single.mbit_per_sec, 1)});
  table.add_row({"flows/sec (classify incl. QUIC decrypt)",
                 TextTable::num(static_cast<double>(single.video_flows) /
                                    single.elapsed_s, 0)});
  table.print(std::cout);

  const std::vector<EncodeResult> encode_results = {
      run_encode_kernel(Provider::YouTube, Transport::Tcp, "youtube_tcp"),
      run_encode_kernel(Provider::YouTube, Transport::Quic, "youtube_quic"),
  };
  TextTable encode_table({"Encode path", "extract+encode us", "chain us",
                          "flows/sec", "allocs/flow"});
  for (const auto& r : encode_results)
    encode_table.add_row({r.name, TextTable::num(r.extract_encode_us, 2),
                          TextTable::num(r.classify_chain_us, 2),
                          TextTable::num(r.flows_per_sec, 0),
                          TextTable::num(r.allocs_per_flow, 3)});
  encode_table.print(std::cout);
  write_encode_json(encode_results);
  std::cout << "machine-readable encode results: BENCH_encode.json "
               "(from each flow's handshake packets; allocs/flow counts "
               "steady-state heap allocations across extractor feed -> "
               "encode -> classify)\n";

  const auto cls = run_classify_kernel();
  TextTable classify_table({"Classification kernel", "us/flow", "speedup"});
  classify_table.add_row(
      {"seed forest (v0, per-tree copies)", TextTable::num(cls.seed_us, 2),
       "1.00x"});
  classify_table.add_row(
      {"uncompiled forest (copy-free)", TextTable::num(cls.uncompiled_us, 2),
       TextTable::num(cls.seed_us / cls.uncompiled_us, 2) + "x"});
  classify_table.add_row(
      {"compiled forest (deployed path)", TextTable::num(cls.compiled_us, 2),
       TextTable::num(cls.speedup_vs_seed, 2) + "x"});
  classify_table.print(std::cout);

  const auto batch = run_batch_classify_kernel(cls.compiled_us);
  TextTable batch_table(
      {"Batched kernel (vs compiled per-flow)", "us/flow", "speedup"});
  batch_table.add_row(
      {"per-flow (batch 1)", TextTable::num(batch.compiled_us, 2), "1.00x"});
  for (const auto& p : batch.points)
    batch_table.add_row({"batch " + std::to_string(p.batch),
                         TextTable::num(p.us, 2),
                         TextTable::num(p.speedup, 2) + "x"});
  batch_table.print(std::cout);

  std::vector<ShardResult> scaling;
  for (const int shards : {1, 2, 4, 8})
    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{128}})
      scaling.push_back(run_sharded(packets, shards, batch_size));
  // Speedup is relative to (1 shard, same batch size), so shard scaling
  // and batching gains stay separable in the trajectory.
  for (auto& s : scaling)
    for (const auto& ref : scaling)
      if (ref.shards == 1 && ref.batch_size == s.batch_size)
        s.speedup_vs_1 = ref.elapsed_s / s.elapsed_s;
  TextTable shard_table({"Shards", "batch", "packets/sec", "flows/sec",
                         "speedup vs 1", "valid"});
  for (const auto& s : scaling)
    shard_table.add_row({std::to_string(s.shards),
                         std::to_string(s.batch_size),
                         TextTable::num(s.packets_per_sec, 0),
                         TextTable::num(s.flows_per_sec, 0),
                         TextTable::num(s.speedup_vs_1, 2) + "x",
                         s.scaling_valid ? "yes" : "no"});
  shard_table.print(std::cout);
  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << ", effective affinity: " << bench::effective_affinity()
            << " (rows with valid=no ran more shards plus dispatcher than\n"
               "usable cores: they measure time-slicing, not parallel\n"
               "speedup; per-flow ordering is preserved per shard by\n"
               "FlowKey-hash dispatch)\n";

  const std::vector<StageLatencyResult> stage_latency = {
      run_stage_latency(packets, 1),
      run_stage_latency(packets, 32),
  };
  TextTable stage_table({"Stage", "batch", "samples", "p50 ns", "p99 ns"});
  for (const auto& run : stage_latency)
    for (const auto& row : run.rows)
      stage_table.add_row({std::string(row.stage),
                           std::to_string(run.batch_size),
                           std::to_string(row.count),
                           std::to_string(row.p50_ns),
                           std::to_string(row.p99_ns)});
  stage_table.print(std::cout);

  write_json(single, cls, batch, scaling, stage_latency);
  std::cout << "machine-readable results: BENCH_pipeline.json\n";
  std::cout << "note: only handshake + decimated telemetry packets traverse\n"
               "the full pipeline (payload is counter-only), matching the\n"
               "paper's DPDK preprocessing split.\n";
}

void BM_PipelinePerPacket(benchmark::State& state) {
  const auto packets = make_packet_mix(100);
  pipeline::VideoFlowPipeline pipe(&bench::campus_bank());
  pipe.set_sink([](telemetry::SessionRecord) {});
  std::size_t i = 0;
  for (auto _ : state) {
    pipe.on_packet(packets[i++ % packets.size()]);
    if (i % (packets.size() * 4) == 0) pipe.flush_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelinePerPacket)->Unit(benchmark::kMicrosecond);

void BM_ShardedPipelinePerPacket(benchmark::State& state) {
  const auto packets = make_packet_mix(100);
  pipeline::ShardedPipeline pipe(
      &bench::campus_bank(),
      {.n_shards = static_cast<int>(state.range(0)), .queue_capacity = 4096});
  pipe.set_sink([](telemetry::SessionRecord) {});
  std::size_t i = 0;
  for (auto _ : state) {
    pipe.on_packet(packets[i++ % packets.size()]);
    if (i % (packets.size() * 4) == 0) pipe.flush_all();
  }
  pipe.flush_all();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedPipelinePerPacket)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// The client Initial the two unprotect benchmarks open.
Bytes chrome_youtube_initial() {
  Rng rng(1);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::YouTube, Transport::Quic);
  const auto flow = synth.synthesize(profile);
  const auto decoded = net::decode(flow.packets[0]);
  return Bytes(decoded->payload.begin(), decoded->payload.end());
}

// The owning unprotect: ids, token and CRYPTO fragments copied out.
void BM_QuicInitialUnprotect(benchmark::State& state) {
  const Bytes initial = chrome_youtube_initial();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quic::unprotect_client_initial(initial));
  }
}
BENCHMARK(BM_QuicInitialUnprotect)->Unit(benchmark::kMicrosecond);

// The unprotect the pipeline runs: the same work into a stack scratch, with
// the CRYPTO frames left as views.
void BM_QuicInitialUnprotectScratch(benchmark::State& state) {
  const Bytes initial = chrome_youtube_initial();
  std::array<std::uint8_t, 1500> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quic::unprotect_client_initial(initial, scratch));
  }
}
BENCHMARK(BM_QuicInitialUnprotectScratch)->Unit(benchmark::kMicrosecond);

// The crypto of the same Initial, calling one kernel set directly (arg 0:
// portable; arg 1: AES-NI, PCLMULQDQ and SHA-NI) with the work counts of
// unprotect_client_initial: 14 SHA-256 compressions for the key schedule,
// two AES key expansions, the GHASH subkey (and on x86 its powers
// H^2..H^8), the header-protection and tag-mask blocks, CTR over the
// payload (8 blocks in flight on x86), and GHASH over header, ciphertext
// and lengths (8 blocks per reduction on x86).
void BM_QuicInitialCryptoKernels(benchmark::State& state) {
  namespace kn = crypto::kernels;
  using KeyExpansion = kn::AesRoundKeys (*)(ByteView);
  using AesKernel = void (*)(const kn::AesRoundKeys&, kn::Block&);
  using ShaKernel = void (*)(std::array<std::uint32_t, 8>&, const std::uint8_t*,
                             std::size_t);
  const bool x86 = state.range(0) == 1;
  KeyExpansion expand = kn::aes128_expand_key;
  AesKernel aes = kn::aes128_encrypt_portable;
  ShaKernel sha = kn::sha256_compress_portable;
  if (x86) {
#if VPSCOPE_CRYPTO_X86
    const CpuFeatures& cpu = cpu_features();
    if (!cpu.aes || !cpu.pclmul || !cpu.ssse3 || !cpu.sha || !cpu.sse41) {
      state.SkipWithError("CPU lacks AES-NI, PCLMULQDQ or SHA-NI");
      return;
    }
    expand = kn::aes128_expand_key_aesni;
    aes = kn::aes128_encrypt_aesni;
    sha = kn::sha256_compress_shani;
#else
    state.SkipWithError("no x86 kernels in this build");
    return;
#endif
  }

  Rng rng(1);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::YouTube, Transport::Quic);
  const auto flow = synth.synthesize(profile);
  const auto decoded = net::decode(flow.packets[0]);
  const ByteView datagram = decoded->payload;
  const auto initial = quic::unprotect_client_initial(datagram);
  const quic::InitialKeys keys = quic::derive_client_initial_keys(initial->dcid);
  // Header as build_client_initial_flight lays it out: first byte, version,
  // two length-prefixed CIDs, empty token, 2-byte Length, 4-byte PN.
  const std::size_t header =
      1 + 4 + 1 + initial->dcid.size() + 1 + initial->scid.size() + 1 + 2 + 4;
  const ByteView aad = datagram.first(header);
  const ByteView ciphertext =
      datagram.subspan(header, datagram.size() - header - 16);
  const kn::Block lengths{};
  const std::array<std::uint8_t, 64> message{};
  Bytes plaintext(ciphertext.size());

  for (auto _ : state) {
    std::array<std::uint32_t, 8> digest{};
    for (int i = 0; i < 14; ++i) sha(digest, message.data(), 1);
    const kn::AesRoundKeys hp = expand(keys.hp);
    const kn::AesRoundKeys key = expand(keys.key);
    kn::Block mask{};
    aes(hp, mask);
    kn::Block h{};
    aes(key, h);
    kn::Block tag_mask{};
    aes(key, tag_mask);
    kn::Block y{};
    if (x86) {
#if VPSCOPE_CRYPTO_X86
      const kn::GhashPowers powers = kn::ghash_powers_pclmul(h);
      for (const ByteView part : {aad, ciphertext, ByteView{lengths}})
        kn::ghash_pclmul(powers, y, part);
      kn::aes128_ctr_xor_aesni(key, tag_mask, ciphertext.data(),
                               plaintext.data(), ciphertext.size());
#endif
    } else {
      const kn::GhashTable table = kn::ghash_table(h);
      for (const ByteView part : {aad, ciphertext, ByteView{lengths}})
        kn::ghash_portable(table, y, part);
      kn::Block keystream{};
      for (std::size_t pos = 0; pos < ciphertext.size(); pos += 16)
        aes(key, keystream);
      benchmark::DoNotOptimize(keystream);
    }
    benchmark::DoNotOptimize(digest);
    benchmark::DoNotOptimize(mask);
    benchmark::DoNotOptimize(plaintext.data());
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_QuicInitialCryptoKernels)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_AttributeExtraction(benchmark::State& state) {
  Rng rng(2);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::MacOS, Agent::Safari}, Provider::Netflix, Transport::Tcp);
  const auto flow = synth.synthesize(profile);
  const auto handshake = core::extract_handshake(flow.packets);
  const auto* scenario =
      bench::campus_bank().scenario(Provider::Netflix, Transport::Tcp);
  const core::TokenInterner& interner = scenario->encoder.interner();
  core::RawAttrs raw;
  for (auto _ : state) {
    core::extract_raw_attributes(*handshake, interner, raw);
    benchmark::DoNotOptimize(raw);
  }
}
BENCHMARK(BM_AttributeExtraction)->Unit(benchmark::kMicrosecond);

void BM_EndToEndClassifyFlow(benchmark::State& state) {
  Rng rng(3);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Firefox}, Provider::YouTube, Transport::Quic);
  const auto flow = synth.synthesize(profile);
  for (auto _ : state) {
    const auto handshake = core::extract_handshake(flow.packets);
    benchmark::DoNotOptimize(
        bench::campus_bank().classify(*handshake, Provider::YouTube));
  }
}
BENCHMARK(BM_EndToEndClassifyFlow)->Unit(benchmark::kMicrosecond);

}  // namespace

VPSCOPE_BENCH_MAIN(report)
