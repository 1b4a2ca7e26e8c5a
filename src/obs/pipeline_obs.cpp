#include "obs/pipeline_obs.hpp"

#include <algorithm>

#include "obs/clock.hpp"
#include "obs/perf_counters.hpp"

namespace vpscope::obs {

PipelineObs::PipelineObs(int n_shards, ObsConfig config)
    : registry_(std::make_shared<Registry>(n_shards + 1)),
      n_shards_(n_shards),
      config_(config),
      packets_total(registry_->counter(
          "vpscope_packets_total", "Packets offered to the pipeline")),
      packets_non_ip(registry_->counter(
          "vpscope_packets_non_ip_total",
          "Packets rejected at decode (non-IP / malformed headers)")),
      packets_enqueued(registry_->counter(
          "vpscope_packets_enqueued_total",
          "Packet items enqueued to shard rings, at the target shard slot")),
      packets_completed(registry_->counter(
          "vpscope_packets_completed_total",
          "Packet items fully processed by a shard worker")),
      packets_dropped_payload(registry_->counter(
          "vpscope_packets_dropped_total",
          "Packets shed by overload admission control", "class=\"payload\"")),
      packets_dropped_handshake(registry_->counter(
          "vpscope_packets_dropped_total",
          "Packets shed by overload admission control",
          "class=\"handshake\"")),
      volume_samples_dropped(registry_->counter(
          "vpscope_volume_samples_dropped_total",
          "Decimated volume samples shed under overload")),
      flows_total(registry_->counter(
          "vpscope_flows_total", "Flows admitted to a flow table")),
      video_flows(registry_->counter(
          "vpscope_video_flows_total",
          "Flows matched to a video provider by SNI")),
      classified_composite(registry_->counter(
          "vpscope_classified_total", "Flow classification outcomes",
          "outcome=\"composite\"")),
      classified_partial(registry_->counter(
          "vpscope_classified_total", "Flow classification outcomes",
          "outcome=\"partial\"")),
      classified_unknown(registry_->counter(
          "vpscope_classified_total", "Flow classification outcomes",
          "outcome=\"unknown\"")),
      flows_evicted_capacity(registry_->counter(
          "vpscope_flows_evicted_capacity_total",
          "Flows evicted or refused because the flow table hit max_flows")),
      sink_errors(registry_->counter(
          "vpscope_sink_errors_total",
          "Session-sink invocations that threw (record lost, flow table "
          "consistent)")),
      worker_errors(registry_->counter(
          "vpscope_worker_errors_total",
          "Exceptions contained by a shard worker outside the sink path")),
      dispatcher_contract_violations(registry_->counter(
          "vpscope_dispatcher_contract_violations_total",
          "Dispatcher-thread-only calls observed on another thread")),
      dispatch_batches(registry_->counter(
          "vpscope_dispatch_batches_total",
          "Bulk staging flushes from the dispatcher to shard rings")),
      worker_batches(registry_->counter(
          "vpscope_worker_batches_total",
          "Bulk ring drains performed by shard workers")),
      flows_active(registry_->gauge(
          "vpscope_flows_active", "Flows currently tracked per shard")),
      shards_bypassed(registry_->gauge(
          "vpscope_shards_bypassed",
          "Shards currently in watchdog telemetry-only bypass")),
      packets_stranded(registry_->gauge(
          "vpscope_packets_stranded",
          "Backlog of enqueued-but-unprocessed packets (derived at scrape)")),
      packets_staged(registry_->gauge(
          "vpscope_packets_staged",
          "Decoded packets staged in the dispatcher batch, not yet enqueued")),
      profiler(*registry_) {
  profiler.set_enabled(config_.profile_stages);
  profiler.set_packet_sample_n(config_.profile_packet_sample_n);
  // Pay the one-time ~2 ms tick calibration here, at construction, so the
  // first timed stage / first span never absorbs it.
  if (config_.profile_stages || config_.span_sample_n != 0)
    calibrate_tick_clock();
  if (config_.profile_stages && config_.profile_hw) {
    perf_ = std::make_unique<PerfStageCounters>(*registry_, n_shards_ + 1,
                                                config_.hw_sample_period);
    profiler.set_hw(perf_.get());
  }
  if (config_.span_sample_n != 0 && config_.span_ring_capacity != 0) {
    span_rings_.reserve(static_cast<std::size_t>(n_shards_) + 1);
    for (int i = 0; i <= n_shards_; ++i)  // workers + the dispatcher
      span_rings_.push_back(
          std::make_unique<SpanRing>(config_.span_ring_capacity, i));
  }
  // Derived stranded gauge: per shard, the packets the dispatcher handed
  // over that the worker has not yet finished. Exact once the dispatcher
  // is quiescent (drained or wedged); transiently includes in-flight items
  // when scraped mid-dispatch, which keeps the identity an equality.
  registry_->add_collect_hook([this] {
    for (int i = 0; i < n_shards_; ++i) {
      const std::uint64_t done =
          packets_completed.value(i, std::memory_order_acquire);
      const std::uint64_t sent = packets_enqueued.value(i);
      packets_stranded.set(
          i, sent > done ? static_cast<std::int64_t>(sent - done) : 0);
    }
    // The dispatcher's staging batch is backlog too: decoded and counted in
    // packets_total but not yet handed to any ring (DESIGN.md §5g).
    const std::int64_t staged =
        packets_staged.value(dispatcher_slot(), std::memory_order_acquire);
    packets_stranded.set(dispatcher_slot(), staged > 0 ? staged : 0);
  });
}

PipelineObs::~PipelineObs() = default;

std::vector<Span> PipelineObs::recent_spans(std::size_t max) const {
  std::vector<Span> all;
  for (const auto& ring : span_rings_) {
    std::vector<Span> part = ring->drain_copy();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.span_id < b.span_id;
  });
  if (max != 0 && all.size() > max)
    all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(max));
  return all;
}

}  // namespace vpscope::obs
