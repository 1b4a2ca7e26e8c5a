// PipelineObs: the observability bundle one pipeline front-end owns
// (DESIGN.md §5f). It pre-registers every metric of the Fig. 4 data path on
// one Registry — the single source of truth the PR-4 drop-accounting
// identity is asserted against:
//
//   vpscope_packets_total == vpscope_packets_completed_total
//                          + vpscope_packets_non_ip_total
//                          + vpscope_packets_dropped_total{class="payload"}
//                          + vpscope_packets_dropped_total{class="handshake"}
//                          + vpscope_packets_stranded
//
// Slot model: slots [0, n_shards) belong to the shard workers, slot
// n_shards to the dispatcher. A standalone VideoFlowPipeline is "one shard
// with no dispatcher traffic": PipelineObs(1), writing at slot 0.
//
// `vpscope_packets_stranded` is a derived gauge refreshed by a collect hook
// at scrape time: per shard, max(0, enqueued - completed) — exactly the
// wedged-shard backlog once the dispatcher is quiescent — plus, at the
// dispatcher slot, the packets still staged in the dispatcher's batch
// (vpscope_packets_staged), so the identity holds under batched dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timer.hpp"

namespace vpscope::obs {

class PerfStageCounters;

struct ObsConfig {
  /// Per-stage latency histograms (parse/extract/encode/classify/sink).
  /// Off by default: timers then cost two branches and no clock read.
  bool profile_stages = false;
  /// 1-in-N deterministic sampling of the per-packet stages (Parse,
  /// Extract) when profiling is on. The per-flow stages (Encode, Classify,
  /// Sink) are always timed — their rate is flow-bounded, so their cost is
  /// already amortized and their sample counts stay meaningful on short
  /// runs. Two ~18 ns TSC reads on every packet is what kept the profiling
  /// lane above its 5% overhead budget on virtualized hosts; at the default
  /// 1-in-4 the histograms still see tens of thousands of packet-stage
  /// samples per second of traffic. 1 (or 0) = time every invocation.
  std::uint32_t profile_packet_sample_n = 4;
  /// Hardware stage profiles (DESIGN.md §5k): perf_event_open group reads
  /// (cycles/instructions/cache-misses/branch-misses) bracketing a sampled
  /// subset of stage invocations. Requires profile_stages; falls back to
  /// pure timing when the kernel denies the events or off-Linux.
  bool profile_hw = false;
  /// 1-in-N stage invocations bracketed by a perf group read per slot.
  int hw_sample_period = 64;
  /// Flow tracing (DESIGN.md §5k): causal spans and lifecycle instants for
  /// flows sampled deterministically 1-in-N by flow-key hash. 0 disables
  /// (no span rings, zero hot-path cost), 1 traces every flow.
  std::uint64_t span_sample_n = 0;
  /// Bounded per-slot span ring capacity (oldest spans overwritten).
  std::size_t span_ring_capacity = 4096;
};

class PipelineObs {
 public:
  explicit PipelineObs(int n_shards, ObsConfig config = {});
  ~PipelineObs();  // out-of-line: PerfStageCounters is fwd-declared here

  int n_shards() const { return n_shards_; }
  /// The slot the dispatching / front-end thread writes at.
  int dispatcher_slot() const { return n_shards_; }
  const ObsConfig& config() const { return config_; }

  Registry& registry() { return *registry_; }
  const Registry& registry() const { return *registry_; }
  /// Shared handle for a PeriodicExporter outliving scrapes.
  std::shared_ptr<const Registry> registry_ptr() const { return registry_; }

  /// Slot's span ring (slots [0, n_shards] — the dispatcher has one too);
  /// nullptr when span tracing is disabled.
  SpanRing* span_ring(int slot) {
    return span_rings_.empty()
               ? nullptr
               : span_rings_[static_cast<std::size_t>(slot)].get();
  }
  const SpanRing* span_ring(int slot) const {
    return span_rings_.empty()
               ? nullptr
               : span_rings_[static_cast<std::size_t>(slot)].get();
  }
  bool spans_enabled() const { return !span_rings_.empty(); }
  /// The one sampling decision for a flow-key hash: a sampled flow gets
  /// its spans and lifecycle instants, an unsampled one neither.
  bool span_sampled(std::uint64_t flow_hash) const {
    return !span_rings_.empty() &&
           flow_hash % config_.span_sample_n == 0;
  }

  /// The most recent `max` spans across every slot ring, merged and ordered
  /// by start time (0 = everything buffered). Safe concurrently with
  /// recording.
  std::vector<Span> recent_spans(std::size_t max = 0) const;

  /// Hardware stage counters; null unless profile_hw && profile_stages.
  PerfStageCounters* perf_counters() { return perf_.get(); }
  const PerfStageCounters* perf_counters() const { return perf_.get(); }

 private:
  // Declaration order matters: the registry must be constructed before the
  // counter references below are bound to it.
  std::shared_ptr<Registry> registry_;
  int n_shards_;
  ObsConfig config_;

 public:
  // ---- packet accounting (the identity) ----
  Counter& packets_total;
  Counter& packets_non_ip;
  /// Packet items handed to a shard ring; dispatcher-written at the TARGET
  /// shard's slot so enqueued(i) - completed(i) is that shard's backlog.
  Counter& packets_enqueued;
  /// Packet items a shard worker finished (released after processing, read
  /// with acquire by snapshots).
  Counter& packets_completed;
  Counter& packets_dropped_payload;    // {class="payload"}
  Counter& packets_dropped_handshake;  // {class="handshake"}
  Counter& volume_samples_dropped;

  // ---- flow accounting ----
  Counter& flows_total;
  Counter& video_flows;
  Counter& classified_composite;  // {outcome="composite"}
  Counter& classified_partial;    // {outcome="partial"}
  Counter& classified_unknown;    // {outcome="unknown"}
  Counter& flows_evicted_capacity;

  // ---- fault containment ----
  Counter& sink_errors;
  Counter& worker_errors;
  Counter& dispatcher_contract_violations;

  // ---- batching (DESIGN.md §5g) ----
  Counter& dispatch_batches;  // bulk handovers from the dispatcher
  Counter& worker_batches;    // bulk drains by shard workers

  // ---- gauges ----
  Gauge& flows_active;      // per-slot flow-table sizes
  Gauge& shards_bypassed;   // watchdog +1 / recovery -1
  Gauge& packets_stranded;  // derived at collect time
  /// Packets decoded and counted in packets_total but still sitting in the
  /// dispatcher's per-shard staging batch — not yet enqueued, dropped, or
  /// completed. Written at the dispatcher slot; counts toward stranded at
  /// scrape so the exported identity holds under batching.
  Gauge& packets_staged;

  StageProfiler profiler;

 private:
  std::vector<std::unique_ptr<SpanRing>> span_rings_;
  std::unique_ptr<PerfStageCounters> perf_;
};

}  // namespace vpscope::obs
