// vpscope::obs — unified metrics registry (DESIGN.md §5f).
//
// The operational telemetry substrate the 4-month deployment of the paper
// implies: every runtime signal of the pipeline (packet accounting, flow
// table churn, shedding, stage latencies) lives in one Registry that is
//
//   * wait-free on the hot path: a metric owns one cache-line-padded slot
//     per writer (shard workers + the dispatcher); counters and histograms
//     record with plain relaxed load/store updates on the writer's own
//     line (the slot is single-writer, so no locked instruction is needed
//     at all) — no locks, no CAS loops, no sharing between shards;
//   * merged on scrape: readers sum the slots (and merge histogram buckets)
//     at exposition time, so scraping never perturbs the data path.
//
// Three metric kinds:
//   Counter    monotone u64 per slot (Prometheus counter semantics).
//   Gauge      signed i64 per slot (can go down: active flows, bypassed
//              shards, scrape-time derived values).
//   Histogram  fixed-bucket log-linear (HDR-style) latency distribution:
//              2^sub_bits linear sub-buckets per power of two, giving a
//              bounded relative error of 2^-sub_bits with a few KB of
//              buckets per slot and O(1) recording.
//
// Registration (Registry::counter/gauge/histogram) is mutex-protected and
// idempotent on (name, labels); it happens at pipeline construction, never
// per packet. Metric objects have stable addresses for the life of the
// Registry, so hot paths cache plain references.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vpscope::obs {

/// One writer slot: a cache line to itself so shard workers never false-share.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};

struct alignas(64) SignedCell {
  std::atomic<std::int64_t> v{0};
};

class Registry;

/// Monotone per-slot counter; `total` sums slots.
///
/// Contract: each slot has one writer thread, or its writers are ordered
/// by a lock (ModelLifecycle::sync_obs_locked writes under the lifecycle
/// mutex). `add` is then a relaxed load plus a store on the writer's own
/// line — no locked instruction, like Histogram::record. A non-relaxed
/// `order` makes the store a release store. Readers on other threads may
/// scrape at any time: they see each slot's value of some recent add,
/// never a torn or overshooting one. If a caller breaks the dispatcher
/// contract (ShardedPipeline, DESIGN.md §5f), two threads may race on a
/// slot and the counts become best-effort; the one counter written from
/// foreign threads on purpose, `dispatcher_contract_violations`, uses
/// `add_contended` and stays exact.
class Counter {
 public:
  void add(int slot, std::uint64_t n = 1,
           std::memory_order order = std::memory_order_relaxed) {
    std::atomic<std::uint64_t>& v = cells_[static_cast<std::size_t>(slot)].v;
    v.store(v.load(std::memory_order_relaxed) + n,
            order == std::memory_order_relaxed ? std::memory_order_relaxed
                                               : std::memory_order_release);
  }
  /// One atomic read-modify-write: exact when several threads write the
  /// slot. Only for a counter whose writers are not ordered.
  void add_contended(int slot) {
    cells_[static_cast<std::size_t>(slot)].v.fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t value(int slot,
                      std::memory_order order =
                          std::memory_order_relaxed) const {
    return cells_[static_cast<std::size_t>(slot)].v.load(order);
  }
  std::uint64_t total(std::memory_order order =
                          std::memory_order_relaxed) const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(order);
    return sum;
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  /// Pre-rendered Prometheus label body, e.g. `class="payload"`; empty for
  /// an unlabeled metric.
  const std::string& labels() const { return labels_; }
  int slots() const { return static_cast<int>(cells_.size()); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  Counter(std::string name, std::string help, std::string labels, int n_slots)
      : name_(std::move(name)),
        help_(std::move(help)),
        labels_(std::move(labels)),
        cells_(static_cast<std::size_t>(n_slots)) {}

  std::string name_, help_, labels_;
  std::vector<Cell> cells_;
};

/// Signed per-slot gauge (active flows, bypassed shards, derived values).
class Gauge {
 public:
  void add(int slot, std::int64_t d,
           std::memory_order order = std::memory_order_relaxed) {
    cells_[static_cast<std::size_t>(slot)].v.fetch_add(d, order);
  }
  void set(int slot, std::int64_t v,
           std::memory_order order = std::memory_order_relaxed) {
    cells_[static_cast<std::size_t>(slot)].v.store(v, order);
  }
  std::int64_t value(int slot, std::memory_order order =
                                   std::memory_order_relaxed) const {
    return cells_[static_cast<std::size_t>(slot)].v.load(order);
  }
  std::int64_t total(std::memory_order order =
                         std::memory_order_relaxed) const {
    std::int64_t sum = 0;
    for (const SignedCell& c : cells_) sum += c.v.load(order);
    return sum;
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::string& labels() const { return labels_; }
  int slots() const { return static_cast<int>(cells_.size()); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class Registry;
  Gauge(std::string name, std::string help, std::string labels, int n_slots)
      : name_(std::move(name)),
        help_(std::move(help)),
        labels_(std::move(labels)),
        cells_(static_cast<std::size_t>(n_slots)) {}

  std::string name_, help_, labels_;
  std::vector<SignedCell> cells_;
};

struct HistogramOptions {
  /// 2^sub_bits linear sub-buckets per power of two; relative bucket width
  /// (and thus quantile error) is bounded by 2^-sub_bits (~3.1% at 5).
  int sub_bits = 5;
  /// Values >= 2^max_value_bits clamp into the top bucket (whose reported
  /// quantile falls back to the recorded max). 2^36 ns ~ 69 s.
  int max_value_bits = 36;
};

/// Read-only merged (or single-slot) view of a histogram, self-contained so
/// it stays valid after the source Registry is gone.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when empty
  std::uint64_t max = 0;
  int sub_bits = 5;

  /// Inclusive upper bound of bucket `index` (same math as the histogram).
  std::uint64_t bucket_upper(int index) const;
  /// p in [0, 100]; returns the upper bound of the bucket containing the
  /// rank-ceil(p/100 * count) sample, clamped to the observed max (so tail
  /// quantiles of the clamp bucket stay honest). 0 when empty.
  std::uint64_t percentile(double p) const;
};

/// Fixed-bucket log-linear histogram with per-slot bucket arrays.
class Histogram {
 public:
  /// Single-writer slots (one per shard worker / dispatcher): plain relaxed
  /// load/store updates, no locked RMWs — this is on the stage-timer path,
  /// where five lock-prefixed instructions per record were the residual
  /// cost keeping the profiling lane above its 5% overhead budget. Defined
  /// inline for the same reason.
  void record(int slot, std::uint64_t value, std::uint64_t n = 1) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    auto& bucket = s.buckets[static_cast<std::size_t>(bucket_index(value))];
    bucket.store(bucket.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    s.count.store(s.count.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
    s.sum.store(s.sum.load(std::memory_order_relaxed) + value * n,
                std::memory_order_relaxed);
    if (value < s.min.load(std::memory_order_relaxed))
      s.min.store(value, std::memory_order_relaxed);
    if (value > s.max.load(std::memory_order_relaxed))
      s.max.store(value, std::memory_order_relaxed);
  }

  int bucket_count() const { return n_buckets_; }
  int bucket_index(std::uint64_t value) const {
    const std::uint64_t sub = 1ULL << options_.sub_bits;
    if (value < sub) return static_cast<int>(value);
    const int msb = 63 - std::countl_zero(value);
    if (msb >= options_.max_value_bits) return n_buckets_ - 1;  // clamp
    const int block = msb - options_.sub_bits + 1;
    const std::uint64_t sub_index =
        (value >> (msb - options_.sub_bits)) - sub;
    return (block << options_.sub_bits) + static_cast<int>(sub_index);
  }
  std::uint64_t bucket_upper(int index) const;

  HistogramSnapshot snapshot() const;          // merged across slots
  HistogramSnapshot snapshot(int slot) const;  // one slot

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::string& labels() const { return labels_; }
  int slots() const { return static_cast<int>(slots_count_); }
  const HistogramOptions& options() const { return options_; }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;
  Histogram(std::string name, std::string help, std::string labels,
            int n_slots, HistogramOptions options);

  struct alignas(64) Slot {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> max{0};
  };

  void accumulate(HistogramSnapshot& out, const Slot& slot) const;

  std::string name_, help_, labels_;
  HistogramOptions options_;
  int n_buckets_ = 0;
  std::size_t slots_count_ = 0;
  std::unique_ptr<Slot[]> slots_;
};

/// Owns all metrics of one pipeline (or one process). Registration is
/// idempotent on (name, labels) and returns stable references; collect
/// hooks run at scrape time to refresh derived gauges.
class Registry {
 public:
  explicit Registry(int n_slots = 1);

  int n_slots() const { return n_slots_; }

  Counter& counter(std::string_view name, std::string_view help,
                   std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::string_view labels = {},
                       HistogramOptions options = {});

  /// Runs before every exposition pass; use to refresh derived gauges
  /// (e.g. stranded = enqueued - completed) from other metrics.
  void add_collect_hook(std::function<void()> hook);
  void run_collect_hooks() const;

  // Stable metric pointers in registration order, for exposition writers.
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  int n_slots_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<std::function<void()>> hooks_;
};

}  // namespace vpscope::obs
