// Everything a run prepares before it measures: the model bundle (trained
// from the seed, serialized, and loaded back through deserialize_bank, so
// the serving bank is the one a deployment would load) and the workload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common.hpp"
#include "pipeline/classifier_bank.hpp"
#include "workload.hpp"

namespace perfbench {

/// A second seed, never used while the benchmark was tuned, for checking a
/// claimed gain on inputs the change was not written against.
inline constexpr std::uint64_t kHeldOutSeed = 914'067'223;

struct Setup {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  vpscope::Bytes bank_bytes;
  std::optional<vpscope::pipeline::ClassifierBank> bank;
  Workload workload;
  /// nproc - 1 sharded workers, so dispatcher + workers never exceed nproc.
  int workers = 1;
  Machine machine;
  bool bundle_from_cache = false;
  double train_seconds = 0;
  double synth_seconds = 0;
};

/// Trains the lab bank from the seed, round-trips it through the VPSB
/// format, and synthesizes the workload. Throws on any failure. When
/// `bundle_cache` names a directory, the serialized bundle of a seed is
/// kept there and reused by later runs of the same binary (training is
/// outside every metric; the cache only shortens the run).
Setup prepare(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& bundle_cache);

/// The head of every output: workload, seeds, machine block.
std::string render_run_header(const Setup& setup);
/// Exact counts of the workload's inputs (packets by class, flows, client
/// Initials).
std::string render_input_counts(const Setup& setup);

}  // namespace perfbench
