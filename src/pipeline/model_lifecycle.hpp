// Zero-downtime model lifecycle (DESIGN.md §5j): how a capture server takes
// a retrained classifier bank from "file appeared in the model directory"
// to "serving 100% of flows" without dropping a packet or taking a lock on
// the classify hot path — and how a bad retrain gets caught and rolled back
// before it owns the traffic.
//
// Three pieces:
//
//  1. Epoch-based reclamation (RCU). The active model state is an
//     immutable, heap-allocated Generation published through one atomic
//     pointer. Readers (pipeline shards) pin the generation they use by
//     storing its epoch into a private cache-line-aligned slot; the
//     collector frees a superseded generation only once every non-quiescent
//     slot has advanced past it. Readers never block, never CAS, and the
//     steady-state cost is one relaxed load per batch (peek) — swaps are
//     wait-free for readers.
//
//  2. Hardened admission. A candidate bank (a VPSB artifact, see
//     bank_serialize.hpp) is parsed, integrity-checked, compatibility-
//     checked, and smoke-classified off the hot path. Anything that fails
//     is counted and quarantined — the serving generation is untouched.
//     File reads retry with backoff (a publisher mid-rename on a network
//     filesystem looks like a transient error, not a bad artifact).
//
//  3. Canary rollout. An admitted bank first serves a deterministic
//     FlowKeyHash fraction of traffic alongside the incumbent. Outcome
//     counters (reject rate, composite confidence) accumulate per route;
//     poll() promotes the candidate to 100% once it has seen enough flows
//     and is not measurably worse, or rolls it back (and quarantines the
//     artifact) when it is. No operator in the loop either way.
//
// Thread roles: acquire/release/peek/record_outcome are reader-side and
// wait-free; everything else (offer/swap_to/poll/collect/status/bind_obs)
// is control-plane, serialized by an internal mutex, and may be called from
// any one thread at a time (typically the dispatcher).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/classifier_bank.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"

namespace vpscope::pipeline {

struct LifecycleOptions {
  /// Fraction of flows (per mille) routed to an armed canary bank. 0
  /// disables staged rollout: an admitted bank swaps straight to stable.
  int canary_permille = 50;
  /// Flows each route must accumulate before poll() may judge the canary.
  std::size_t canary_min_flows = 200;
  std::size_t stable_min_flows = 200;
  /// Rollback when the canary's non-composite rate exceeds stable's by this.
  double reject_margin = 0.10;
  /// Rollback when the canary's mean composite confidence trails stable's
  /// by this (judged only when both routes produced composite outcomes).
  double confidence_margin = 0.05;
  /// offer_file read attempts (transient I/O retries with backoff).
  int admission_retries = 3;
  std::uint64_t retry_backoff_us = 2000;
  /// Move rejected artifacts into <dir>/quarantine/ next to the offered
  /// file (counters tick regardless).
  bool quarantine_files = true;
};

/// What happened to an offered bundle. Armed is the only success: the
/// bundle is serving canary traffic (or, with canary_permille == 0, is
/// already stable).
enum class AdmissionVerdict : std::uint8_t {
  Armed,
  ReadFailed,    // file unreadable after all retries
  BadFormat,     // VPSB integrity/structure rejected (bank_serialize)
  Incompatible,  // validation faulted (wrapped parse/validate exception)
  SmokeFailed,   // parsed fine but failed smoke classification
  Busy,          // a canary is already in flight, or readers won't quiesce
};
const char* to_string(AdmissionVerdict verdict);

class ModelLifecycle {
 public:
  /// One published model state. Immutable after publish; readers hold the
  /// pointer between safe points and route per flow by hash.
  struct Generation {
    /// Epoch: bumps on every publish (arm, promote, rollback, swap).
    std::uint64_t gen = 0;
    /// Model identity: bumps only when `stable` itself changes — the signal
    /// for a pipeline to recalibrate its drift baselines on adoption.
    std::uint64_t model_gen = 0;
    std::shared_ptr<const ClassifierBank> stable;
    std::shared_ptr<const ClassifierBank> canary;  // null: no rollout active
    int canary_permille = 0;

    /// High half of the flow hash, like span sampling: the low bits pick
    /// the shard, so their residue would give shards unequal canary shares.
    bool routes_to_canary(std::uint64_t flow_hash) const {
      return canary != nullptr &&
             (flow_hash >> 32) % 1000 <
                 static_cast<std::uint64_t>(canary_permille);
    }
  };

  /// `n_reader_slots` is the maximum number of concurrent readers
  /// (pipeline shards); each reader owns one slot index.
  ModelLifecycle(std::shared_ptr<const ClassifierBank> initial,
                 int n_reader_slots, LifecycleOptions options = {});
  ~ModelLifecycle();
  ModelLifecycle(const ModelLifecycle&) = delete;
  ModelLifecycle& operator=(const ModelLifecycle&) = delete;

  // ---- reader side (wait-free, called from shard workers) ----

  /// The current generation, unpinned — one relaxed load. Readers compare
  /// against their adopted generation to detect a pending swap cheaply.
  const Generation* peek() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Pins and returns the current generation for `slot`. The returned
  /// pointer stays valid until the slot re-acquires or releases.
  const Generation* acquire(int slot);

  /// Marks `slot` quiescent (reader detaching or shutting down).
  void release(int slot);

  /// Feeds one classified flow's outcome into the canary/stable scoreboard.
  /// Wait-free; relaxed per-slot cells, summed by poll().
  void record_outcome(int slot, bool canary_route, telemetry::Outcome outcome,
                      double confidence);

  // ---- control plane (internally serialized) ----

  /// Directly publishes `bank` as the new stable (no canary stage): the
  /// trusted-operator swap. Readers adopt at their next safe point.
  void swap_to(std::shared_ptr<const ClassifierBank> bank);

  /// Admission: validate + smoke-check a serialized VPSB artifact, then arm
  /// it as canary (or swap it straight in when canary_permille == 0).
  AdmissionVerdict offer_bytes(ByteView data, std::string* why = nullptr);

  /// offer_bytes over a file, with transient-read retries; on rejection the
  /// file is moved to <dir>/quarantine/ (when quarantine_files).
  AdmissionVerdict offer_file(const std::string& path,
                              std::string* why = nullptr);

  enum class Decision : std::uint8_t { None, Promoted, RolledBack };

  /// Judges an in-flight canary against the scoreboard, publishes the
  /// promotion or rollback when the evidence is in, and collects retired
  /// generations. Call periodically from the control thread.
  Decision poll();

  /// Blocks (bounded) until every non-quiescent reader has adopted the
  /// current generation. False on timeout.
  bool wait_all_adopted(std::uint64_t timeout_us = 500'000);

  /// Frees superseded generations every reader has moved past. Returns the
  /// number freed. poll() calls this; exposed for tests and shutdown.
  std::size_t collect();

  struct Status {
    std::uint64_t generation = 0;
    std::uint64_t model_generation = 0;
    bool canary_active = false;
    int canary_permille = 0;
    std::size_t generations_retained = 0;  // includes the active one
    std::uint64_t swaps = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t offers = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t canary_flows = 0;
    std::uint64_t stable_flows = 0;
  };
  Status status() const;

  /// Admission smoke check: must return true for a servable bank. The
  /// default (synth_smoke_check) classifies one synthesized flow per
  /// trained scenario and accepts any structurally sane result — it catches
  /// crashes and NaN confidences, not bad labels (that is the canary's
  /// job). Tests substitute a golden-corpus check.
  using SmokeCheck =
      std::function<bool(const ClassifierBank& bank, std::string* why)>;
  void set_smoke_check(SmokeCheck check);
  static bool synth_smoke_check(const ClassifierBank& bank, std::string* why);

  /// Mirrors lifecycle counters/gauges into `registry` at `slot`
  /// (vpscope_model_generation, vpscope_model_swaps_total,
  /// vpscope_bundle_quarantined, ...). Refreshed on every control-plane
  /// call. `registry` must outlive this object.
  void bind_obs(obs::Registry* registry, int slot);

 private:
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  struct alignas(64) ReaderSlot {
    std::atomic<std::uint64_t> epoch{kQuiescent};
    /// Outcome scoreboard, [0] stable route, [1] canary route. Relaxed
    /// increments by the owning reader; reset by the control plane at arm
    /// time (after wait_all_adopted, so no stale-generation pollution).
    struct Cells {
      std::atomic<std::uint64_t> flows{0};
      std::atomic<std::uint64_t> composite{0};
      std::atomic<std::uint64_t> confidence_milli{0};
    } cells[2];
  };

  struct RouteTotals {
    std::uint64_t flows = 0;
    std::uint64_t composite = 0;
    std::uint64_t confidence_milli = 0;
  };

  // Both require mutex_ held.
  void publish(std::unique_ptr<Generation> next);
  std::size_t collect_locked();
  bool wait_all_adopted_locked(std::uint64_t timeout_us);
  RouteTotals sum_route(int route) const;
  void reset_cells();
  void quarantine_file(const std::string& path);
  void sync_obs_locked();

  const LifecycleOptions options_;
  const int n_slots_;
  std::vector<ReaderSlot> slots_;

  std::atomic<Generation*> active_{nullptr};

  mutable std::mutex mutex_;
  /// Publish order; back() is the active generation. Never empty.
  std::vector<std::unique_ptr<Generation>> history_;
  std::uint64_t next_gen_ = 0;
  SmokeCheck smoke_check_;
  /// Where the in-flight canary came from, for rollback quarantine.
  std::string canary_source_path_;

  // Lifetime counters (mutex-protected), mirrored to obs on control calls.
  std::uint64_t swaps_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t offers_ = 0;
  std::uint64_t quarantined_ = 0;

  // obs mirroring (delta-tracked: obs counters are monotonic).
  obs::Registry* registry_ = nullptr;
  int obs_slot_ = 0;
  obs::Gauge* generation_gauge_ = nullptr;
  obs::Gauge* canary_gauge_ = nullptr;
  obs::Gauge* retained_gauge_ = nullptr;
  obs::Counter* swaps_counter_ = nullptr;
  obs::Counter* promotions_counter_ = nullptr;
  obs::Counter* rollbacks_counter_ = nullptr;
  obs::Counter* offers_counter_ = nullptr;
  obs::Counter* quarantined_counter_ = nullptr;
  std::uint64_t swaps_mirrored_ = 0;
  std::uint64_t promotions_mirrored_ = 0;
  std::uint64_t rollbacks_mirrored_ = 0;
  std::uint64_t offers_mirrored_ = 0;
  std::uint64_t quarantined_mirrored_ = 0;
};

/// Polling watcher over a model directory: offers every new or modified
/// *.vpsb file to the lifecycle. Skips the quarantine/ subdirectory and
/// *.tmp files (in-flight atomic publishes). Rejected files move out of the
/// directory (quarantine), so they are not re-offered; Busy offers are
/// retried on the next poll.
class ModelDirWatcher {
 public:
  ModelDirWatcher(ModelLifecycle* lifecycle, std::string dir)
      : lifecycle_(lifecycle), dir_(std::move(dir)) {}

  /// Scans once; returns the number of offers made. `log`, when given,
  /// accumulates one line per offer: "<file>: <verdict>[ (<why>)]".
  int poll(std::string* log = nullptr);

 private:
  ModelLifecycle* lifecycle_;
  std::string dir_;
  struct FileSig {
    std::int64_t mtime = 0;
    std::uint64_t size = 0;
    bool operator==(const FileSig&) const = default;
  };
  std::map<std::string, FileSig> seen_;
};

}  // namespace vpscope::pipeline
