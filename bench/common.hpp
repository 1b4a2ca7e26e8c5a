// Shared infrastructure for the reproduction benches: cached datasets and
// scenario encodings (building the ~11k-flow lab dataset once per binary),
// the evaluation forest configuration, and a main() that prints the
// table/figure reproduction report before running the google-benchmark
// timings registered by the binary.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "eval/scenario.hpp"
#include "ml/forest.hpp"
#include "synth/dataset.hpp"
#include "util/table.hpp"

namespace vpscope::bench {

inline constexpr std::uint64_t kLabSeed = 42;
inline constexpr std::uint64_t kHomeSeed = 777;

inline const synth::Dataset& lab_dataset() {
  static const synth::Dataset dataset = synth::generate_lab_dataset(kLabSeed);
  return dataset;
}

inline const synth::Dataset& home_dataset() {
  static const synth::Dataset dataset =
      synth::generate_home_dataset(kHomeSeed);
  return dataset;
}

/// The five classification scenarios of the paper, in its reporting order.
struct ScenarioCase {
  fingerprint::Provider provider;
  fingerprint::Transport transport;
  const char* name;
};

inline const std::vector<ScenarioCase>& scenario_cases() {
  using fingerprint::Provider;
  using fingerprint::Transport;
  static const std::vector<ScenarioCase> cases = {
      {Provider::YouTube, Transport::Tcp, "YouTube (TCP)"},
      {Provider::YouTube, Transport::Quic, "YouTube (QUIC)"},
      {Provider::Netflix, Transport::Tcp, "Netflix (TCP)"},
      {Provider::Disney, Transport::Tcp, "Disney (TCP)"},
      {Provider::Amazon, Transport::Tcp, "Amazon (TCP)"},
  };
  return cases;
}

/// Lab-fitted scenario data, cached per (provider, transport).
inline const eval::ScenarioData& scenario(fingerprint::Provider provider,
                                          fingerprint::Transport transport) {
  static std::map<std::pair<int, int>, std::unique_ptr<eval::ScenarioData>>
      cache;
  const auto key = std::pair{static_cast<int>(provider),
                             static_cast<int>(transport)};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<eval::ScenarioData>(
                                lab_dataset(), provider, transport))
             .first;
  }
  return *it->second;
}

/// The forest configuration used across the evaluation (matches the
/// deployed ClassifierBank defaults).
inline ml::ForestParams eval_forest(std::uint64_t seed = 1) {
  ml::ForestParams params;
  params.n_trees = 60;
  params.max_depth = 20;
  params.min_samples_split = 6;
  params.max_features = 40;
  params.seed = seed;
  return params;
}

/// 10-fold CV as in the paper's §4.3.1.
inline constexpr int kFolds = 10;

/// CPUs this process may actually run on — cgroup/taskset pinning makes
/// this smaller than hardware_concurrency on shared runners, and shard
/// "scaling" numbers taken with fewer cores than shards measure scheduler
/// time-slicing, not parallel speedup. Recorded per run so BENCH_*.json
/// trajectories across machines stay interpretable.
inline int effective_affinity() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

inline int usable_cores() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::min(hw > 0 ? hw : 1, effective_affinity());
}

/// Whether a sharded run had a core for every thread it keeps busy: its
/// `shards` workers plus the dispatcher that feeds them. False: the run
/// measured time-slicing, not parallel speedup, and must not be read as a
/// regression (or an improvement) across machines.
inline bool scaling_valid(int shards) { return usable_cores() >= shards + 1; }

/// The machine block of a BENCH_*.json file: hardware threads, the cores
/// this process may use, and scaling_valid for the file's widest run of
/// `shards` shards.
inline void write_machine_block(std::ostream& json, int shards) {
  json << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"usable_cores\": " << usable_cores() << ",\n"
       << "  \"scaling_valid\": " << (scaling_valid(shards) ? "true" : "false")
       << ",\n";
}

}  // namespace vpscope::bench

/// Emits a main() that prints the reproduction report, then runs any
/// registered google-benchmark timings.
#define VPSCOPE_BENCH_MAIN(report_fn)                              \
  int main(int argc, char** argv) {                                \
    report_fn();                                                   \
    ::benchmark::Initialize(&argc, argv);                          \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))      \
      return 1;                                                    \
    ::benchmark::RunSpecifiedBenchmarks();                         \
    ::benchmark::Shutdown();                                       \
    return 0;                                                      \
  }
