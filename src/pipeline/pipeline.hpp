// The end-to-end packet processing pipeline of the paper's Fig. 4:
//
//   raw packets -> flow table (NAT-safe bidirectional 5-tuple)
//     -> video-flow detection (TCP/UDP 443 + SNI suffix match)
//     -> handshake/payload split
//     -> attribute generation -> classifier bank (+ confidence logic)
//     -> per-flow telemetry -> session store
//
// Payload packets only update telemetry counters; classification happens
// once per flow, as soon as the handshake completes — before any video
// content is delivered, matching the paper's "real-time" claim.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/handshake.hpp"
#include "obs/pipeline_obs.hpp"
#include "pipeline/classifier_bank.hpp"
#include "pipeline/drift.hpp"
#include "pipeline/flow_table.hpp"
#include "pipeline/model_lifecycle.hpp"
#include "telemetry/telemetry.hpp"

namespace vpscope::pipeline {

/// Maps an SNI to a video provider by suffix (the paper's preprocessing
/// uses "port numbers and service names ... and ClientHello SNIs").
/// DNS hostnames are case-insensitive, so the match ignores ASCII case.
std::optional<fingerprint::Provider> provider_from_sni(std::string_view sni);

struct PipelineStats {
  std::uint64_t packets_total = 0;
  std::uint64_t packets_non_ip = 0;
  std::uint64_t flows_total = 0;
  std::uint64_t video_flows = 0;
  std::uint64_t classified_composite = 0;
  std::uint64_t classified_partial = 0;
  std::uint64_t classified_unknown = 0;

  // ---- overload-control accounting (DESIGN.md §5e) ----
  // The drop-accounting identity every configuration must satisfy:
  //
  //   packets_total == packets_processed
  //                  + packets_dropped_payload + packets_dropped_handshake
  //                  + packets_stranded
  //
  // A single-threaded pipeline never drops or strands, so there
  // processed == total. `packets_stranded` counts packets enqueued to a
  // shard the watchdog has since declared stuck — neither processed nor
  // shed yet; it returns to zero if the shard recovers and drains.
  std::uint64_t packets_processed = 0;
  std::uint64_t packets_dropped_payload = 0;
  std::uint64_t packets_dropped_handshake = 0;
  std::uint64_t packets_stranded = 0;
  /// Decimated volume samples shed under overload (not packets; excluded
  /// from the identity above).
  std::uint64_t volume_samples_dropped = 0;
  /// Flows evicted (or refused) because the flow table hit max_flows.
  std::uint64_t flows_evicted_capacity = 0;
  /// Session-sink invocations that threw; the record is lost but the
  /// pipeline (and in the sharded case, the worker thread) survives.
  std::uint64_t sink_errors = 0;
  /// Exceptions contained by a shard worker outside the sink path.
  std::uint64_t worker_errors = 0;
  /// Shards currently flipped into telemetry-only bypass by the watchdog.
  std::uint64_t shards_bypassed = 0;

  bool operator==(const PipelineStats&) const = default;
  /// Field-wise accumulation (merging per-shard stats).
  PipelineStats& operator+=(const PipelineStats& other);
};

/// Overload policy of one flow table (per shard in the sharded front-end).
struct PipelineOptions {
  /// Upper bound on concurrent tracked flows; 0 = unbounded (the paper's
  /// lab setting). Under a handshake flood the table never exceeds this.
  std::size_t max_flows = 0;
  enum class Eviction : std::uint8_t {
    /// Evict the longest-idle flow (intrusive LRU over packet arrival
    /// order) to make room; its session record leaves through the normal
    /// sink path.
    LruIdle,
    /// Keep established flows, refuse to admit new ones while full.
    RejectNew,
  };
  Eviction eviction = Eviction::LruIdle;
  /// Classification batching (DESIGN.md §5g): ready flows are encoded
  /// immediately but their forest descents are deferred until this many are
  /// staged, then resolved in one cross-flow batched descent
  /// (CompiledForest::predict_with_confidence_batch). 1 = classify inline.
  /// Staged flows always resolve before any finalize can observe them
  /// (flush_idle/flush_all/eviction force a flush first), so emitted records
  /// and quiescent stats are identical to the inline path.
  std::size_t classify_batch = 1;
};

class VideoFlowPipeline {
 public:
  /// The bank must outlive the pipeline. `obs_config` enables the optional
  /// observability features (stage profiling, flow tracing) on the
  /// pipeline's own metrics registry; ignored after bind_obs().
  explicit VideoFlowPipeline(const ClassifierBank* bank,
                             PipelineOptions options = {},
                             obs::ObsConfig obs_config = {});
  /// Releases the lifecycle reader slot, if one is attached.
  ~VideoFlowPipeline();

  /// Called for every finished video session (flow idle-timeout or flush).
  void set_sink(std::function<void(telemetry::SessionRecord)> sink) {
    sink_ = std::move(sink);
  }

  /// Optional concept-drift monitor (paper §5.3), fed at classification
  /// time. Must outlive the pipeline.
  void set_drift_monitor(DriftMonitor* monitor) { drift_ = monitor; }

  /// Attaches this pipeline as reader `reader_slot` of a ModelLifecycle
  /// (DESIGN.md §5j): the lifecycle's generations supersede the constructor
  /// bank, hot swaps are adopted at safe points (maybe_adopt_generation),
  /// canary-fraction flows route to the candidate bank, and outcomes feed
  /// the canary scoreboard. The lifecycle must outlive the pipeline; each
  /// reader slot belongs to exactly one pipeline.
  void attach_lifecycle(ModelLifecycle* lifecycle, int reader_slot);

  /// Adopts a newly published model generation, if any: one relaxed load
  /// when nothing changed. Safe point — staged classifications resolve
  /// against the banks that encoded them first. on_packet calls this;
  /// sharded workers call it at batch boundaries and while parked.
  void maybe_adopt_generation();

  /// Feeds one captured packet. The rvalue form exists so generic
  /// front-ends (capture::replay_into) can move-ingest into either pipeline;
  /// this single-threaded pipeline parses in place and never stores the
  /// packet, so it simply forwards.
  void on_packet(const net::Packet& packet);
  void on_packet(net::Packet&& packet) { on_packet(packet); }

  /// Feeds an already-decoded packet: the per-packet path after decode.
  /// `key` is its canonical flow key and `hash` that key's FlowKeyHash,
  /// computed once by the caller (the sharded front-end decodes and hashes
  /// at dispatch time to pick the shard). Packets off port 443 are
  /// ignored. Does NOT bump packets_total/packets_non_ip — the caller that
  /// performed the decode accounts for those.
  void on_decoded(const net::DecodedPacket& decoded, const net::FlowKey& key,
                  std::uint64_t hash);

  /// Decimated payload ingestion for large-scale simulation: accounts
  /// `bytes` of downstream volume to an existing flow without materializing
  /// every data packet (the paper's DPDK preprocessing similarly splits
  /// payload packets off into telemetry counters).
  void on_volume_sample(const net::FlowKey& key, std::uint64_t ts_us,
                        std::uint64_t bytes_down, std::uint64_t bytes_up);

  /// Evicts flows idle longer than `idle_timeout_us`, emitting their
  /// session records.
  void flush_idle(std::uint64_t now_us, std::uint64_t idle_timeout_us);

  /// Flushes everything (end of capture).
  void flush_all();

  /// Resolves every staged-but-unclassified flow now (no-op when
  /// classify_batch <= 1 or nothing is staged). The sharded front-end calls
  /// this at batch boundaries and before a worker parks; flush_idle /
  /// flush_all / capacity eviction call it implicitly.
  void classify_pending_flush();

  /// Causal parent for the NEXT packet's span chain: the sharded worker
  /// records the Queue span for a sampled packet and hands its id here
  /// before on_decoded, so the flow's Extract/Encode/Classify spans parent
  /// onto the cross-thread dispatch chain. Consumed (reset to 0) by the
  /// next on_decoded.
  void set_packet_span_parent(std::uint64_t span_id) {
    packet_span_parent_ = span_id;
  }

  /// Re-points this pipeline's metrics at a shared PipelineObs, writing at
  /// `slot` (the sharded front-end binds each shard's pipeline to one
  /// registry, slot = shard index). Call before the first packet; `obs`
  /// must outlive the pipeline.
  void bind_obs(obs::PipelineObs* obs, int slot);

  /// The metrics registry bundle this pipeline writes to (its own unless
  /// bind_obs re-pointed it).
  obs::PipelineObs& observability() { return *obs_; }
  const obs::PipelineObs& observability() const { return *obs_; }
  /// Shared handle to the OWNED bundle, for callers that need the metrics
  /// to outlive the pipeline (e.g. the campus simulator's post-run report);
  /// null after bind_obs.
  std::shared_ptr<obs::PipelineObs> shared_observability() const {
    return owned_obs_;
  }

  /// Assembled from this pipeline's registry slot. Returned by value (the
  /// counters live in the registry now); `const auto&` callers still work
  /// through lifetime extension.
  PipelineStats stats() const;
  std::size_t active_flows() const { return flows_.size(); }

 private:
  static constexpr std::uint32_t kNoHandshake = 0xffffffffu;

  /// What a payload packet of a tracked flow touches, plus the verdict its
  /// session record carries (DESIGN.md §5m). The handshake extractor lives
  /// in a separate cold slot (handshakes_) until the flow has its verdict.
  struct FlowRecord {
    telemetry::FlowCounters counters;
    net::IpAddr client_addr;
    std::uint16_t client_port = 0;
    /// Index into handshakes_ while the handshake is still being parsed;
    /// kNoHandshake once the flow has its verdict (inline or staged) or is
    /// known not to be a video flow — no later packet is fed.
    std::uint32_t handshake = kNoHandshake;
    fingerprint::Transport transport = fingerprint::Transport::Tcp;
    /// The flow's sampling decision (PipelineObs::span_sampled): a traced
    /// flow records its spans and lifecycle instants (DESIGN.md §5k).
    bool traced = false;
    /// Staged in the deferred-classification batch, descent not yet run.
    bool classify_pending = false;
    /// This flow's classification was served by the canary bank.
    bool canary_routed = false;
    bool video_counted = false;
    std::optional<fingerprint::Provider> provider;
    /// Most recent span recorded for this flow — the parent the next stage,
    /// the final Sink span and every lifecycle instant chain from.
    std::uint64_t span_last = 0;
    std::optional<PlatformPrediction> prediction;
    std::string sni;
  };

  using Flows = FlowTable<FlowRecord>;
  using FlowId = Flows::Id;

  void finalize(Flows::Record& flow);
  /// Erases a flow and returns its handshake slot, if it still holds one.
  void erase_flow(FlowId id);
  /// Returns a flow's handshake slot to the free list, releasing the
  /// extractor's buffers.
  void release_handshake(FlowRecord& state);
  /// Once the table has drained to an eighth of its peak (and the peak was
  /// worth it), compacts the flow slab and the handshake slots so a burst
  /// does not keep its memory. Renumbers every flow: nothing may be staged.
  void compact_after_drain();
  /// Outcome counters, Classified instant, drift feed, state.prediction
  /// store — shared tail of the inline and deferred classification paths.
  void apply_prediction(Flows::Record& flow,
                        const PlatformPrediction& prediction,
                        std::uint64_t ts_us);
  /// Admission control after insert: touches the LRU and, when the table
  /// exceeds max_flows, evicts the longest-idle flow (or the just-admitted
  /// one under RejectNew). Returns false when `id` itself was rejected and
  /// erased.
  bool admit_flow(FlowId id, bool inserted);
  /// Records a lifecycle instant for a traced flow in this slot's ring,
  /// parented on the flow's last span. `event` carries kind and detail.
  void record_instant(const Flows::Record& flow, obs::Span event);
  /// Keeps the vpscope_flows_active gauge in sync after table mutations.
  void sync_flows_active() {
    obs_->flows_active.set(slot_,
                           static_cast<std::int64_t>(flows_.size()));
  }

  /// Installs `generation` as the serving model state: re-points bank_,
  /// rebuilds the batch stagers, and recalibrates drift baselines when the
  /// stable model identity changed.
  void apply_generation(const ModelLifecycle::Generation* generation);

  const ClassifierBank* bank_;
  PipelineOptions options_;
  /// Engaged when options_.classify_batch > 1 and a bank exists; cookies
  /// handed to it are indices into pending_.
  std::optional<ClassifierBank::ClassifyBatch> batch_;
  /// Stager for canary-routed flows while a rollout is active (the two
  /// banks have distinct Scenario tables; a ClassifyBatch caches Scenario
  /// pointers, so each bank needs its own). Shares pending_ cookies.
  std::optional<ClassifierBank::ClassifyBatch> canary_batch_;
  ModelLifecycle* lifecycle_ = nullptr;
  int reader_slot_ = 0;
  /// The adopted generation (pinned via reader_slot_); null when detached.
  const ModelLifecycle::Generation* generation_ = nullptr;
  /// Cached copy of generation_->model_gen. The moment acquire() advances
  /// this reader's epoch, the *previous* generation becomes reclaimable, so
  /// apply_generation must not dereference the old pointer to ask what
  /// model it carried — it compares against this plain member instead.
  std::uint64_t adopted_model_gen_ = 0;
  struct PendingFlow {
    /// Staged flows are never erased before the batch resolves (every
    /// erase path flushes it first), so the id stays valid.
    FlowId flow = Flows::kNone;
    std::uint64_t ts_us = 0;  // staging time, fed to the drift monitor
    /// Parent for the flow's deferred Classify span (its Encode span id).
    std::uint64_t span_parent = 0;
  };
  std::vector<PendingFlow> pending_;
  DriftMonitor* drift_ = nullptr;
  std::function<void(telemetry::SessionRecord)> sink_;
  Flows flows_;
  /// Cold handshake slots (DESIGN.md §5m), reused through the free list.
  std::vector<core::HandshakeExtractor> handshakes_;
  std::vector<std::uint32_t> free_handshakes_;
  /// Owned registry bundle for the standalone case; the sharded front-end
  /// re-points obs_ at its shared bundle via bind_obs().
  std::shared_ptr<obs::PipelineObs> owned_obs_;
  obs::PipelineObs* obs_ = nullptr;
  obs::SpanRing* span_ring_ = nullptr;  // cached obs_->span_ring(slot_)
  /// Reused per-packet span context for sampled flows (one flow is
  /// processed at a time on this pipeline's thread).
  obs::SpanScratch span_scratch_;
  /// See set_packet_span_parent.
  std::uint64_t packet_span_parent_ = 0;
  int slot_ = 0;
};

}  // namespace vpscope::pipeline
