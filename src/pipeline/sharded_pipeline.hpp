// Multi-core front-end for the Fig. 4 pipeline: N worker threads, each
// owning one VideoFlowPipeline shard. The dispatch thread decodes each
// packet once, hashes its canonical FlowKey, and hands it to shard
// `hash % n_shards` through a bounded SPSC ring. Because a flow always
// hashes to the same shard and each ring is FIFO, per-flow packet ordering
// is preserved by construction — the property the paper's 8-core DPDK
// deployment (§5.1) relies on when it fans 20 Gbit/s across cores.
//
// Overload control (DESIGN.md §5e): when a shard's ring is full the
// dispatcher applies the configured admission policy instead of buffering
// unboundedly. `Overload::Block` (default) waits for space — lossless, the
// pre-overload-layer behaviour. `Overload::Shed` waits only a bounded
// grace per packet class and then drops: handshake-bearing packets
// (SYN / TLS ClientHello record / QUIC Initial, classified at dispatch
// time by `admission_class`) get the longest grace because one lost
// handshake packet costs a classification, while a lost payload packet
// costs only a telemetry sample. Every shed is counted, so stats() always
// reconciles:
//
//   packets_total == packets_processed + packets_dropped_payload
//                  + packets_dropped_handshake + packets_stranded
//
// A per-shard watchdog (stuck_timeout_us > 0) watches for rings that stay
// full with no consumer progress — a worker wedged in a slow sink or a
// livelocked downstream — and flips the shard into telemetry-only bypass:
// the dispatcher stops waiting on it, sheds its traffic (counted), and
// keeps every other shard at full service instead of head-of-line-blocking
// the capture loop. `reactivate_recovered_shards` re-admits a bypassed
// shard once it has drained its backlog.
//
// Batched data plane (DESIGN.md §5g): the dispatcher stages up to
// `batch_size` decoded packets per shard and hands them over through one
// bulk ring push (one release store per chunk instead of one per packet);
// workers drain in bulk and defer classification across the batch
// (PipelineOptions::classify_batch), resolving ready flows through the
// cross-flow SIMD forest descent. Staged packets are accounted by the
// vpscope_packets_staged gauge and reported as `stranded` by snapshot()
// until they reach a ring, so the identity above holds in every snapshot;
// control items, volume samples and drain() flush staging first, so
// per-flow ordering and flush semantics are unchanged. Admission classes
// are evaluated lazily — only when a shed/bypass decision actually needs
// one — so Block-mode dispatch does zero admission-class work (see
// admission_class_evaluations()).
//
// Session records from all shards funnel through one lock-protected sink;
// all counters live on one obs::PipelineObs registry (wait-free per-slot
// atomic cells — DESIGN.md §5f), assembled into PipelineStats on demand.
// Control operations (flush_idle / flush_all) travel in-band through the
// same rings, so they are ordered with the packets that preceded them.
//
// Threading contract: on_packet / on_volume_sample / flush_* / drain /
// stats / active_flows are dispatcher-thread-only — they either mutate
// dispatcher state or read shard flow tables that are only safe to touch
// once drain() has observed quiescence, which is only meaningful from the
// one producing thread. Debug builds (and the fault-injection build)
// enforce this with a thread-id check; see
// dispatcher_contract_violations(). snapshot() is the any-thread
// exception: it reads only registry atomics, never flow tables. The sink
// is invoked on worker threads, serialized by the internal mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "pipeline/pipeline.hpp"
#include "util/spsc_ring.hpp"

namespace vpscope::obs {
class FlightRecorder;
}

namespace vpscope::pipeline {

/// Packet classes for admission priority under overload.
enum class AdmissionClass : std::uint8_t {
  /// Connection-establishment packets the classifier needs: TCP SYN, a TLS
  /// handshake record at the start of a segment, or a QUIC long-header
  /// Initial. Shed last.
  Handshake,
  /// Everything else (ACKs, payload, short-header QUIC): telemetry-only
  /// value, shed first.
  Payload,
};

/// Dispatch-time admission classification. Deliberately a cheap heuristic
/// over the already-decoded headers — the dispatcher cannot afford parsing.
AdmissionClass admission_class(const net::DecodedPacket& decoded);

struct ShardedPipelineOptions {
  /// Worker count; 1 degenerates to a single-threaded pipeline behind a
  /// queue. 0 is invalid.
  int n_shards = 1;
  /// Per-shard ring capacity (rounded up to a power of two). Bounded by
  /// design: a slow shard exerts backpressure on the dispatcher instead of
  /// buffering unboundedly.
  std::size_t queue_capacity = 4096;

  /// Batched data plane (DESIGN.md §5g): packets staged per shard before a
  /// bulk ring handover, items drained per worker bulk pop, and (unless
  /// flow_table.classify_batch overrides it) flows staged per deferred
  /// cross-flow classification. 1 restores the item-at-a-time data plane;
  /// 0 is treated as 1.
  std::size_t batch_size = 32;

  /// Per-shard flow-table bound. `flow_table.max_flows` is the TOTAL
  /// budget across the pipeline; each shard gets ceil(max_flows/n_shards).
  PipelineOptions flow_table = {};

  enum class Overload : std::uint8_t {
    Block,  // lossless backpressure: wait for ring space indefinitely
    Shed,   // bounded wait per admission class, then drop (counted)
  };
  Overload overload = Overload::Block;
  /// Shed-mode grace: how long the dispatcher waits for ring space before
  /// dropping, per admission class. Payload defaults to shedding
  /// immediately; handshakes ride out a short stall.
  std::uint64_t payload_grace_us = 0;
  std::uint64_t handshake_grace_us = 2000;

  /// Stuck-shard watchdog: if a full ring shows no consumer progress for
  /// this long, the shard is bypassed. 0 disables the watchdog (a stuck
  /// shard then blocks the dispatcher forever, even under Shed — grace
  /// timers keep expiring but the flood keeps arriving).
  std::uint64_t stuck_timeout_us = 0;

  /// Observability (DESIGN.md §5f): stage profiling and flow tracing for
  /// the shared registry all shards write to. Metrics themselves are
  /// always on — they ARE the pipeline's accounting.
  obs::ObsConfig obs = {};

  /// Model lifecycle (DESIGN.md §5j): when set, shard i attaches as reader
  /// slot i — workers adopt newly published generations at batch boundaries
  /// and while parked, and the dispatcher drives canary judgement through
  /// an amortized lifecycle poll. Must outlive the pipeline and be
  /// constructed with >= n_shards reader slots. The constructor `bank`
  /// argument is ignored once a shard adopts its first generation.
  ModelLifecycle* lifecycle = nullptr;

  /// Per-shard concept-drift monitoring: each shard gets a private
  /// DriftMonitor with this config, fed from its own worker thread with no
  /// synchronization. Read the merged view through drift_status /
  /// any_drifting / refresh_drift_gauges (dispatcher-thread-only).
  std::optional<DriftConfig> drift;
};

class ShardedPipeline {
 public:
  /// The bank must outlive the pipeline and is shared read-only by all
  /// shards (ClassifierBank::classify is const and thread-safe).
  ShardedPipeline(const ClassifierBank* bank,
                  ShardedPipelineOptions options = {});
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Installs the session sink; called from worker threads but never
  /// concurrently (internally serialized). Set before the first packet.
  void set_sink(std::function<void(telemetry::SessionRecord)> sink);

  /// Multi-writer alternative to set_sink: one sink per shard, invoked on
  /// that shard's worker thread with NO cross-shard serialization — the
  /// mutex funnel is bypassed entirely. Pair with
  /// telemetry::ShardedSessionStore::sink(i), whose writers stage records
  /// into private segments and take the store lock only per sealed
  /// segment. `sinks.size()` must equal shard_count(). Set before the
  /// first packet; replaces any set_sink().
  void set_shard_sinks(
      std::vector<std::function<void(telemetry::SessionRecord)>> sinks);

  /// Called on the dispatcher thread when the watchdog flips a shard into
  /// bypass, after the flight recorder's postmortem is written. Set before
  /// the first packet.
  void set_stuck_callback(std::function<void(int shard)> callback);

  /// Attaches the crash flight recorder (DESIGN.md §5k): a watchdog trip
  /// dumps a whole-process postmortem ("watchdog_stuck_shard") before the
  /// stuck callback runs, and a lifecycle canary rollback observed by the
  /// dispatcher's amortized poll dumps "canary_rollback". The recorder
  /// must outlive the pipeline. Set before the first packet.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Marks the moment the capture front-end picked up the NEXT packet fed
  /// to on_packet: the gap to dispatch becomes the packet's Capture span.
  /// No-op (one branch) when span tracing is off. Dispatcher-thread-only.
  void mark_capture_start();

  /// Enables the vpscope_obs_export hook: the registry is rendered and
  /// atomically rewritten to `options.path` roughly every
  /// `options.interval_us` (checked every few hundred packets on the
  /// dispatcher thread) and once more on flush_all().
  void set_exporter(obs::ExportOptions options);

  /// Decodes, shards and enqueues one captured packet, applying the
  /// configured admission policy when the target ring is full. The rvalue
  /// overload moves the packet bytes straight into the shard item — the
  /// zero-copy ingest the replay/live capture front-ends use.
  void on_packet(const net::Packet& packet);
  void on_packet(net::Packet&& packet);

  /// Routes a decimated volume sample to the owning shard (payload-class
  /// admission under Shed).
  void on_volume_sample(const net::FlowKey& key, std::uint64_t ts_us,
                        std::uint64_t bytes_down, std::uint64_t bytes_up);

  /// Broadcasts an idle-flush to every live shard and waits for completion.
  void flush_idle(std::uint64_t now_us, std::uint64_t idle_timeout_us);

  /// Broadcasts a full flush to every live shard and waits for completion.
  void flush_all();

  /// Waits until every item enqueued to a live shard has been processed.
  /// Bypassed shards are not waited on (their backlog is `stranded`).
  void drain();

  /// Drains, then snapshots. With no shard bypassed this equals the stats
  /// a single-threaded VideoFlowPipeline would report for the same
  /// admitted packet sequence; a bypassed shard's backlog shows up as
  /// `packets_stranded`. Dispatcher-thread-only (the drain).
  PipelineStats stats();

  /// Lock-free stats assembly straight from the registry — callable from
  /// ANY thread, any time, without draining (the fix for the PR-4
  /// stats() dispatcher-only restriction). Because every counter is a
  /// wait-free atomic cell, the identity
  ///   packets_total == packets_processed + packets_dropped_payload
  ///                  + packets_dropped_handshake + packets_stranded
  /// holds in every snapshot taken between dispatcher packet calls
  /// (in-flight backlog of live shards is reported as stranded until the
  /// workers catch up).
  PipelineStats snapshot() const;

  /// Drains, then sums live flow-table sizes across non-stuck shards.
  /// Dispatcher-thread-only.
  std::size_t active_flows();

  /// Re-admits bypassed shards whose workers have caught up (processed ==
  /// enqueued); returns how many recovered. Dispatcher-thread-only.
  int reactivate_recovered_shards();

  /// Shards currently in telemetry-only bypass.
  int bypassed_shards() const;

  /// How many times the dispatcher evaluated admission_class(). Lazy by
  /// design: zero under Block mode with no bypassed shard — the class only
  /// matters when a shed/bypass decision is actually being made.
  /// Dispatcher-thread-only (like the dispatch path that increments it).
  std::uint64_t admission_class_evaluations() const {
    return admission_class_evals_;
  }

  /// Calls observed on a thread other than the pinned dispatcher thread.
  /// Always 0 in release builds (the check compiles out); in debug builds a
  /// violation also trips an assert.
  std::uint64_t dispatcher_contract_violations() const {
    return obs_->dispatcher_contract_violations.total();
  }

  /// The shared metrics bundle (registry, stage profiler, span rings).
  obs::PipelineObs& observability() { return *obs_; }
  const obs::PipelineObs& observability() const { return *obs_; }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  std::size_t shard_of(const net::FlowKey& key) const;

  /// Merged drift status of one scenario across every shard's monitor —
  /// exactly what a single monitor fed all shards' traffic would report
  /// (DriftMonitor::merge over the per-shard raw accumulators). Drains
  /// first, so worker-side monitor state is visible (happens-before via the
  /// processed counter). Dispatcher-thread-only. Zero Status when drift
  /// monitoring is not configured.
  DriftMonitor::Status drift_status(fingerprint::Provider provider,
                                    fingerprint::Transport transport);

  /// True when any scenario's merged status is drifting. Drains;
  /// dispatcher-thread-only.
  bool any_drifting();

  /// Writes the merged per-scenario drift gauges (vpscope_drift_flagged,
  /// reject/confidence deltas) at the dispatcher slot. Merged-only by
  /// design: per-shard gauge writes would sum wrongly at exposition.
  /// Drains; dispatcher-thread-only.
  void refresh_drift_gauges();

 private:
  struct Item {
    enum class Kind : std::uint8_t {
      Packet,
      Volume,
      FlushIdle,
      FlushAll,
      Stop,
    };
    Kind kind = Kind::Packet;
    // Kind::Packet: the owned raw bytes plus the dispatch-time decode (only
    // packets that decode are enqueued), its flow key and that key's
    // FlowKeyHash, which picked the shard and is reused by the worker. The
    // decoded views borrow from packet.data's heap buffer, which is stable
    // across the moves in and out of the ring.
    net::Packet packet;
    net::DecodedPacket decoded;
    std::uint64_t hash = 0;
    // Kind::Packet and Kind::Volume: the flow key. Kind::Volume: (ts, down,
    // up) in arg0..arg2. Kind::FlushIdle: (now, idle) in arg0/arg1.
    net::FlowKey key;
    std::uint64_t arg0 = 0, arg1 = 0, arg2 = 0;
    // Kind::Packet, span-sampled flows only: the Dispatch span id the
    // worker's Queue span parents onto, and the handover time that starts
    // it. 0 = unsampled (workers skip all span work on one branch).
    std::uint64_t span_parent = 0;
    std::uint64_t enqueue_ns = 0;
  };

  struct Shard {
    Shard(const ClassifierBank* bank, std::size_t queue_capacity,
          PipelineOptions flow_table)
        : queue(queue_capacity), pipe(bank, flow_table) {}
    SpscRing<Item> queue;
    VideoFlowPipeline pipe;
    std::atomic<std::uint64_t> enqueued{0};   // all item kinds
    std::atomic<std::uint64_t> processed{0};  // all item kinds
    // Packet-item identity counters (enqueued/completed per packet) live on
    // the registry: obs packets_enqueued / packets_completed at this
    // shard's slot.
    std::atomic<bool> bypassed{false};
    std::thread worker;
    int index = 0;
    /// Worker-thread-owned drift monitor (ShardedPipelineOptions::drift);
    /// the dispatcher reads it only behind drain().
    std::unique_ptr<DriftMonitor> drift;
    // ---- dispatcher-thread-only bookkeeping ----
    std::uint64_t watchdog_last_processed = 0;
    std::uint64_t watchdog_stall_started_us = 0;  // 0 = not currently stalled
    /// Decoded packets awaiting the next bulk handover (DESIGN.md §5g);
    /// every staged packet is counted in the packets_staged gauge.
    std::vector<Item> staged;
  };

  /// Result of a bounded-wait enqueue attempt.
  enum class Admission : std::uint8_t { Enqueued, Shed, Bypassed };

  /// `control` items (flushes) never shed: they wait for ring space with
  /// only the watchdog as an escape hatch.
  Admission enqueue(Shard& shard, Item&& item, AdmissionClass cls,
                    bool control);
  /// Hands `shard`'s staging batch to its ring: bulk pushes while there is
  /// room, then the per-item bounded-wait admission policy (grace / shed /
  /// watchdog) for whatever is left. Empties `shard.staged`.
  void flush_shard(Shard& shard);
  /// Flushes every shard's staging (control broadcast / drain / teardown).
  void flush_staged();
  /// Drops one staged packet: lazy admission class, drop counter, and a
  /// Shed instant for a sampled flow.
  void shed_staged(Item& item);
  AdmissionClass eval_admission_class(const net::DecodedPacket& decoded) {
    ++admission_class_evals_;
    return admission_class(decoded);
  }
  void broadcast(Item::Kind kind, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0);
  void worker_loop(Shard& shard);
  /// Watchdog bookkeeping while the dispatcher waits on `shard`; returns
  /// true when the shard was just declared stuck and flipped to bypass.
  bool watchdog_check(Shard& shard);
  void count_drop(AdmissionClass cls);
  /// Records a shard-level instant (Stranded/Recovered) naming `shard` in
  /// the dispatcher's span ring, whenever spans are on.
  void record_shard_instant(obs::SpanKind kind, int shard);
  bool quiescent(const Shard& shard) const;
  void check_dispatcher_thread();
  /// Amortized exporter tick from the dispatcher packet path.
  void maybe_export();
  /// Amortized lifecycle poll (canary judgement + generation reclamation)
  /// from the dispatcher packet path.
  void maybe_poll_lifecycle();
  /// Union of scenario keys over all shard drift monitors, merged status
  /// per key. Requires a prior drain().
  std::vector<std::pair<std::pair<fingerprint::Provider, fingerprint::Transport>,
                        DriftMonitor::Status>>
  merged_drift_statuses() const;

  ShardedPipelineOptions options_;
  /// Shared registry bundle; slots [0, n_shards) are the workers, slot
  /// n_shards the dispatcher. Constructed before shards_ so shard
  /// pipelines can bind to it.
  std::shared_ptr<obs::PipelineObs> obs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(int)> stuck_callback_;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  /// tick_now_ns() of the last mark_capture_start(); 0 = none pending.
  /// Dispatcher-thread-only.
  std::uint64_t capture_mark_ns_ = 0;
  std::unique_ptr<obs::PeriodicExporter> exporter_;
  std::uint64_t packets_since_export_check_ = 0;
  std::uint64_t packets_since_lifecycle_poll_ = 0;
  /// Dispatcher-thread-only; see admission_class_evaluations().
  std::uint64_t admission_class_evals_ = 0;
  std::mutex sink_mutex_;
  std::function<void(telemetry::SessionRecord)> sink_;
  // Dispatcher-thread pin for the debug contract check.
  std::atomic<std::size_t> dispatcher_thread_hash_{0};
  std::atomic<bool> dispatcher_thread_pinned_{false};
};

}  // namespace vpscope::pipeline
