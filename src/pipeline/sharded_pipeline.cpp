#include "pipeline/sharded_pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "pipeline/faultpoint.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

// The dispatcher-thread contract check runs in debug builds (assert) and in
// the fault-injection build (counted, so tests can observe a violation
// without dying). Release builds compile it out entirely.
#if !defined(NDEBUG) || (defined(VPSCOPE_FAULT_INJECTION) && VPSCOPE_FAULT_INJECTION)
#define VPSCOPE_CHECK_DISPATCHER 1
#else
#define VPSCOPE_CHECK_DISPATCHER 0
#endif

namespace vpscope::pipeline {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin-then-yield wait: a short busy loop for the common sub-microsecond
/// case, then cooperative yielding so an oversubscribed machine (more
/// shards than cores) still makes progress.
template <typename Predicate>
void spin_until(Predicate&& done) {
  int spins = 0;
  while (!done()) {
    if (++spins < 256)
      cpu_relax();
    else
      std::this_thread::yield();
  }
}

/// Monotonic wall clock for grace/watchdog deadlines. Only consulted on the
/// slow path (a full ring), never per packet.
std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Iterations of pure cpu_relax before the wait loop starts paying for
/// clock reads — covers the common momentary-full case for free.
constexpr int kFreeSpins = 64;

}  // namespace

AdmissionClass admission_class(const net::DecodedPacket& decoded) {
  if (decoded.tcp) {
    if (decoded.tcp->flags.syn) return AdmissionClass::Handshake;
    // TLS handshake record at a segment start: content type 0x16, major
    // version 0x03 (all TLS versions on the wire). Matches ClientHello
    // fragments and the server's reply flight alike.
    if (decoded.payload.size() >= 2 && decoded.payload[0] == 0x16 &&
        decoded.payload[1] == 0x03)
      return AdmissionClass::Handshake;
    return AdmissionClass::Payload;
  }
  if (decoded.udp && !decoded.payload.empty()) {
    // QUIC long header (form+fixed bits set) with packet type Initial (00).
    const std::uint8_t first = decoded.payload[0];
    if ((first & 0xc0) == 0xc0 && (first & 0x30) == 0x00)
      return AdmissionClass::Handshake;
  }
  return AdmissionClass::Payload;
}

ShardedPipeline::ShardedPipeline(const ClassifierBank* bank,
                                 ShardedPipelineOptions options)
    : options_(options) {
  if (options.n_shards <= 0)
    throw std::invalid_argument("ShardedPipeline: n_shards must be >= 1");
  if (options_.batch_size == 0) options_.batch_size = 1;
  const auto n = static_cast<std::size_t>(options.n_shards);
  obs_ = std::make_shared<obs::PipelineObs>(options.n_shards, options.obs);
  // The flow-table budget is global; each shard polices its slice.
  PipelineOptions per_shard = options.flow_table;
  if (per_shard.max_flows > 0)
    per_shard.max_flows = (per_shard.max_flows + n - 1) / n;
  // Batch size propagates into deferred classification unless the caller
  // pinned an explicit classify_batch on the flow table.
  if (per_shard.classify_batch <= 1)
    per_shard.classify_batch = options_.batch_size;
  shards_.reserve(n);
  for (int i = 0; i < options.n_shards; ++i) {
    auto shard =
        std::make_unique<Shard>(bank, options.queue_capacity, per_shard);
    shard->index = i;
    shard->staged.reserve(options_.batch_size);
    // All shards write the one shared registry, each at its own slot.
    shard->pipe.bind_obs(obs_.get(), i);
    shard->pipe.set_sink([this](telemetry::SessionRecord record) {
      const std::lock_guard<std::mutex> lock(sink_mutex_);
      if (sink_) sink_(std::move(record));
    });
    // Per-shard drift monitor: worker-thread-owned, never obs-bound (the
    // merged view at the dispatcher slot is the only gauge writer — summing
    // per-shard gauges at exposition would double-count baselines).
    if (options_.drift) {
      shard->drift = std::make_unique<DriftMonitor>(*options_.drift);
      shard->pipe.set_drift_monitor(shard->drift.get());
    }
    // Attach before the worker starts: the thread launch below is the
    // happens-before edge that publishes the adopted generation.
    if (options_.lifecycle) shard->pipe.attach_lifecycle(options_.lifecycle, i);
    shards_.push_back(std::move(shard));
  }
  if (options_.lifecycle)
    options_.lifecycle->bind_obs(&obs_->registry(), obs_->dispatcher_slot());
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
}

ShardedPipeline::~ShardedPipeline() {
  // Hand over any packets still staged so they are processed (or counted
  // as shed on a bypassed shard) rather than silently discarded.
  flush_staged();
  // Stop must reach every worker, bypassed or not, so the join below
  // terminates. A worker wedged in user code forever cannot be joined —
  // the watchdog's bypass assumes stalls are transient (slow sink, paging)
  // or that the process is exiting anyway.
  for (auto& shard : shards_) {
    Item item;
    item.kind = Item::Kind::Stop;
    spin_until([&] { return shard->queue.try_push(item); });
    shard->enqueued.fetch_add(1, std::memory_order_release);
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

void ShardedPipeline::set_sink(
    std::function<void(telemetry::SessionRecord)> sink) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = std::move(sink);
}

void ShardedPipeline::set_shard_sinks(
    std::vector<std::function<void(telemetry::SessionRecord)>> sinks) {
  if (sinks.size() != shards_.size())
    throw std::invalid_argument(
        "ShardedPipeline: set_shard_sinks needs exactly one sink per shard");
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->pipe.set_sink(std::move(sinks[i]));
}

void ShardedPipeline::set_stuck_callback(
    std::function<void(int shard)> callback) {
  stuck_callback_ = std::move(callback);
}

void ShardedPipeline::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_recorder_ = recorder;
}

void ShardedPipeline::mark_capture_start() {
  if (obs_->spans_enabled()) capture_mark_ns_ = obs::tick_now_ns();
}

void ShardedPipeline::set_exporter(obs::ExportOptions options) {
  exporter_ = std::make_unique<obs::PeriodicExporter>(obs_->registry_ptr(),
                                                      std::move(options));
}

void ShardedPipeline::maybe_export() {
  // Amortized: one clock read per 1024 dispatcher packets, not per packet.
  if (!exporter_) return;
  if ((++packets_since_export_check_ & 1023) != 0) return;
  exporter_->tick(steady_now_us());
}

std::size_t ShardedPipeline::shard_of(const net::FlowKey& key) const {
  return net::FlowKeyHash{}(key) % shards_.size();
}

void ShardedPipeline::check_dispatcher_thread() {
#if VPSCOPE_CHECK_DISPATCHER
  const std::size_t self =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  bool unpinned = false;
  if (dispatcher_thread_pinned_.compare_exchange_strong(
          unpinned, true, std::memory_order_acq_rel)) {
    dispatcher_thread_hash_.store(self, std::memory_order_release);
    return;
  }
  if (dispatcher_thread_hash_.load(std::memory_order_acquire) != self) {
    // Written from the violating (non-dispatcher) thread, so several
    // threads may write this slot: the one contended add in the registry.
    obs_->dispatcher_contract_violations.add_contended(obs_->dispatcher_slot());
#if !(defined(VPSCOPE_FAULT_INJECTION) && VPSCOPE_FAULT_INJECTION)
    assert(false &&
           "ShardedPipeline: on_packet/flush/stats/active_flows are "
           "dispatcher-thread-only (see the threading contract)");
#endif
  }
#endif
}

bool ShardedPipeline::watchdog_check(Shard& shard) {
  if (options_.stuck_timeout_us == 0 ||
      shard.bypassed.load(std::memory_order_relaxed))
    return false;
  const std::uint64_t processed =
      shard.processed.load(std::memory_order_relaxed);
  const std::uint64_t now = steady_now_us();
  if (processed != shard.watchdog_last_processed ||
      shard.watchdog_stall_started_us == 0) {
    shard.watchdog_last_processed = processed;
    shard.watchdog_stall_started_us = now;
    return false;
  }
  if (now - shard.watchdog_stall_started_us < options_.stuck_timeout_us)
    return false;
  // No consumer progress for the full timeout while work is pending: flip
  // to telemetry-only bypass so one wedged shard cannot head-of-line-block
  // the capture loop. The backlog becomes `stranded` until recovery.
  shard.bypassed.store(true, std::memory_order_release);
  obs_->shards_bypassed.add(obs_->dispatcher_slot(), 1);
  record_shard_instant(obs::SpanKind::Stranded, shard.index);
  // Post-mortem before the callback, so the dump reflects the moment of
  // the flip (the callback may mutate the world).
  if (flight_recorder_) {
    char detail[32];
    std::snprintf(detail, sizeof(detail), "shard_%d", shard.index);
    flight_recorder_->dump("watchdog_stuck_shard", detail);
  }
  if (stuck_callback_) stuck_callback_(shard.index);
  return true;
}

void ShardedPipeline::count_drop(AdmissionClass cls) {
  // Release: a packet leaving the staging batch must be visible in its drop
  // counter no later than its staged-gauge decrement is, or a concurrent
  // snapshot (which reads counters before the gauge) could double-count it.
  if (cls == AdmissionClass::Handshake)
    obs_->packets_dropped_handshake.add(obs_->dispatcher_slot(), 1,
                                        std::memory_order_release);
  else
    obs_->packets_dropped_payload.add(obs_->dispatcher_slot(), 1,
                                      std::memory_order_release);
}

void ShardedPipeline::record_shard_instant(obs::SpanKind kind, int shard) {
  obs::SpanRing* ring = obs_->span_ring(obs_->dispatcher_slot());
  if (!ring) return;
  obs::Span event;
  event.kind = kind;
  event.detail = static_cast<std::uint32_t>(shard);
  ring->record_instant(event);
}

// obs::append_span_detail names a Shed instant's class by these values.
static_assert(static_cast<int>(AdmissionClass::Handshake) == 0 &&
              static_cast<int>(AdmissionClass::Payload) == 1);

void ShardedPipeline::shed_staged(Item& item) {
  // The admission class is only evaluated here, at the moment a drop has to
  // be attributed — never on the Block-mode fast path.
  const AdmissionClass cls = eval_admission_class(item.decoded);
  count_drop(cls);
  // A sampled flow's packet carries its Dispatch span id (0 otherwise).
  if (item.span_parent != 0) {
    obs::Span event;
    event.kind = obs::SpanKind::Shed;
    event.flow_hash = item.hash;
    event.parent_id = item.span_parent;
    event.detail = static_cast<std::uint32_t>(cls);
    obs_->span_ring(obs_->dispatcher_slot())->record_instant(event);
  }
  item = Item{};  // release the packet buffer
}

void ShardedPipeline::flush_shard(Shard& shard) {
  const std::size_t n = shard.staged.size();
  if (n == 0) return;
  const int dslot = obs_->dispatcher_slot();
  // Every staged packet reaches a terminal counter (enqueued or dropped)
  // before this function returns, so the whole batch leaves the staged
  // gauge up front. Decrement-before-increment plus snapshot()'s
  // counters-before-gauge read order means a concurrent snapshot can only
  // under-account packets mid-flush (they are in flight), never count one
  // twice.
  obs_->packets_staged.add(dslot, -static_cast<std::int64_t>(n),
                           std::memory_order_release);
  obs_->dispatch_batches.add(dslot);
  std::size_t done = 0;
  if (!shard.bypassed.load(std::memory_order_relaxed)) {
    // Fast path: bulk handover — one release store per accepted chunk.
    while (done < n) {
      const std::size_t pushed =
          shard.queue.try_push_bulk(shard.staged.data() + done, n - done);
      if (pushed == 0) break;
      shard.watchdog_stall_started_us = 0;
      shard.enqueued.fetch_add(pushed, std::memory_order_release);
      obs_->packets_enqueued.add(shard.index, pushed,
                                 std::memory_order_release);
      done += pushed;
    }
    // Slow path: the ring is full. Per item, the PR-4 bounded-wait policy:
    // Block waits (watchdog escape only), Shed waits out the class grace.
    const bool shed_mode =
        options_.overload == ShardedPipelineOptions::Overload::Shed;
    for (; done < n; ++done) {
      Item& item = shard.staged[done];
      bool have_grace = false;
      std::uint64_t grace = 0;
      std::uint64_t wait_started = 0;
      int spins = 0;
      bool pushed = false;
      bool bypassed = false;
      for (;;) {
        if (shard.queue.try_push(item)) {
          pushed = true;
          break;
        }
        if (++spins < kFreeSpins) {
          cpu_relax();
          continue;
        }
        const std::uint64_t now = steady_now_us();
        if (wait_started == 0) wait_started = now;
        if (watchdog_check(shard)) {
          bypassed = true;
          break;
        }
        if (shed_mode) {
          if (!have_grace) {
            grace = eval_admission_class(item.decoded) ==
                            AdmissionClass::Handshake
                        ? options_.handshake_grace_us
                        : options_.payload_grace_us;
            have_grace = true;
          }
          if (now - wait_started >= grace) break;  // shed this packet
        }
        std::this_thread::yield();
      }
      if (pushed) {
        shard.watchdog_stall_started_us = 0;
        shard.enqueued.fetch_add(1, std::memory_order_release);
        obs_->packets_enqueued.add(shard.index, 1, std::memory_order_release);
        continue;
      }
      if (bypassed) break;  // remainder shed below
      shed_staged(item);    // grace expired
    }
  }
  // Bypassed shard (on entry or flipped mid-flush): shed the remainder.
  for (; done < n; ++done) shed_staged(shard.staged[done]);
  shard.staged.clear();
}

void ShardedPipeline::flush_staged() {
  for (auto& shard : shards_) flush_shard(*shard);
}

ShardedPipeline::Admission ShardedPipeline::enqueue(Shard& shard, Item&& item,
                                                    AdmissionClass cls,
                                                    bool control) {
  if (shard.bypassed.load(std::memory_order_relaxed))
    return Admission::Bypassed;
  const Item::Kind kind = item.kind;
  if (!shard.queue.try_push(item)) {
    const bool shed =
        !control && options_.overload == ShardedPipelineOptions::Overload::Shed;
    const std::uint64_t grace = cls == AdmissionClass::Handshake
                                    ? options_.handshake_grace_us
                                    : options_.payload_grace_us;
    std::uint64_t wait_started = 0;
    int spins = 0;
    for (;;) {
      if (shard.queue.try_push(item)) break;
      if (++spins < kFreeSpins) {
        cpu_relax();
        continue;
      }
      const std::uint64_t now = steady_now_us();
      if (wait_started == 0) wait_started = now;
      if (watchdog_check(shard)) return Admission::Bypassed;
      if (shed && now - wait_started >= grace) return Admission::Shed;
      std::this_thread::yield();
    }
  }
  shard.watchdog_stall_started_us = 0;  // the ring made room: not stuck
  shard.enqueued.fetch_add(1, std::memory_order_release);
  // Packet-item handover counter at the TARGET shard's slot, so
  // enqueued(i) - completed(i) is shard i's packet backlog.
  if (kind == Item::Kind::Packet) obs_->packets_enqueued.add(shard.index);
  return Admission::Enqueued;
}

void ShardedPipeline::broadcast(Item::Kind kind, std::uint64_t arg0,
                                std::uint64_t arg1) {
  // Control items are ordered with the packets that preceded them only if
  // those packets are already in the rings.
  flush_staged();
  for (auto& shard : shards_) {
    // Control traffic never sheds, but it skips bypassed shards — their
    // flows are unreachable until the worker recovers.
    Item item;
    item.kind = kind;
    item.arg0 = arg0;
    item.arg1 = arg1;
    enqueue(*shard, std::move(item), AdmissionClass::Handshake,
            /*control=*/true);
  }
}

void ShardedPipeline::on_packet(const net::Packet& packet) {
  on_packet(net::Packet(packet));  // one copy; the shard owns its bytes
}

void ShardedPipeline::on_packet(net::Packet&& packet) {
  check_dispatcher_thread();
  const int dslot = obs_->dispatcher_slot();
  obs_->packets_total.add(dslot);
  // Span timeline (DESIGN.md §5k): clock reads are deferred until the flow
  // hash is known, so the 63-in-64 unsampled packets pay one branch and
  // zero reads. The cost is span fidelity on sampled flows: decode time
  // lands inside the Capture span (mark_capture_start to post-decode)
  // rather than the Dispatch span — per-stage timing belongs to the
  // profiler's histograms, spans carry causality and queueing.
  const bool spanning = obs_->spans_enabled();
  Item item;
  item.kind = Item::Kind::Packet;
  item.packet = std::move(packet);
  bool decoded;
  {
    obs::ScopedTimer timer(&obs_->profiler, obs::Stage::Parse, dslot);
    decoded = net::decode_into(item.packet, item.decoded);
  }
  if (!decoded) {
    obs_->packets_non_ip.add(dslot);  // rejected at decode = handled
    capture_mark_ns_ = 0;
    maybe_export();
    maybe_poll_lifecycle();
    return;
  }
  // Stage for the next bulk handover. The admission class is NOT computed
  // here: under Block-mode dispatch no decision ever needs it, and the shed
  // paths evaluate it lazily at drop time (shed_staged / the grace wait).
  item.key = item.decoded.flow_key();
  const std::uint64_t hash = item.hash = net::FlowKeyHash{}(item.key);
  Shard& shard = *shards_[hash % shards_.size()];
  if (spanning) {
    if (obs_->span_sampled(hash)) {
      obs::SpanRing& dring = *obs_->span_ring(dslot);
      std::uint64_t parent = 0;
      const std::uint64_t t_entry = obs::tick_now_ns();
      if (capture_mark_ns_ != 0 && capture_mark_ns_ <= t_entry)
        parent = dring.record(obs::SpanKind::Capture, hash, 0,
                              capture_mark_ns_, t_entry, 0);
      const std::uint64_t now = obs::tick_now_ns();
      item.span_parent = dring.record(obs::SpanKind::Dispatch, hash, parent,
                                      t_entry, now, 0);
      item.enqueue_ns = now;
    }
    capture_mark_ns_ = 0;
  }
  shard.staged.push_back(std::move(item));
  // Release pairs with snapshot()'s acquire gauge read: a snapshot that
  // sees the staged packet is guaranteed to see its packets_total
  // increment too (read last there), keeping accounted <= total.
  obs_->packets_staged.add(dslot, 1, std::memory_order_release);
  if (shard.staged.size() >= options_.batch_size) flush_shard(shard);
  maybe_export();
  maybe_poll_lifecycle();
}

void ShardedPipeline::on_volume_sample(const net::FlowKey& key,
                                       std::uint64_t ts_us,
                                       std::uint64_t bytes_down,
                                       std::uint64_t bytes_up) {
  check_dispatcher_thread();
  Shard& shard = *shards_[shard_of(key)];
  // Keep the sample ordered behind the shard's staged packets (same-flow
  // FIFO is the sharding invariant).
  flush_shard(shard);
  Item item;
  item.kind = Item::Kind::Volume;
  item.key = key;
  item.arg0 = ts_us;
  item.arg1 = bytes_down;
  item.arg2 = bytes_up;
  if (enqueue(shard, std::move(item), AdmissionClass::Payload,
              /*control=*/false) != Admission::Enqueued)
    obs_->volume_samples_dropped.add(obs_->dispatcher_slot());
}

void ShardedPipeline::flush_idle(std::uint64_t now_us,
                                 std::uint64_t idle_timeout_us) {
  check_dispatcher_thread();
  broadcast(Item::Kind::FlushIdle, now_us, idle_timeout_us);
  drain();
}

void ShardedPipeline::flush_all() {
  check_dispatcher_thread();
  broadcast(Item::Kind::FlushAll);
  drain();
  if (exporter_) exporter_->export_now();  // final snapshot at end of capture
}

void ShardedPipeline::drain() {
  check_dispatcher_thread();
  flush_staged();  // staged packets are not enqueued yet; hand them over
  for (auto& shard : shards_) {
    if (shard->bypassed.load(std::memory_order_relaxed)) continue;
    const std::uint64_t target =
        shard->enqueued.load(std::memory_order_relaxed);
    // The acquire load pairs with the worker's release increment, making
    // all of the shard's pipeline state visible once the count is reached.
    // The watchdog breaks the wait if the worker wedges mid-backlog.
    int spins = 0;
    for (;;) {
      if (shard->processed.load(std::memory_order_acquire) >= target) break;
      if (++spins < kFreeSpins) {
        cpu_relax();
        continue;
      }
      if (watchdog_check(*shard)) break;
      std::this_thread::yield();
    }
  }
}

bool ShardedPipeline::quiescent(const Shard& shard) const {
  return shard.processed.load(std::memory_order_acquire) >=
         shard.enqueued.load(std::memory_order_relaxed);
}

PipelineStats ShardedPipeline::stats() {
  check_dispatcher_thread();
  drain();
  return snapshot();
}

PipelineStats ShardedPipeline::snapshot() const {
  // Pure registry reads: wait-free for the writers, callable from any
  // thread. Even a wedged shard's counters stay exact — they are atomics
  // the worker publishes per item, not flow-table state.
  const obs::PipelineObs& o = *obs_;
  PipelineStats s;
  s.packets_non_ip = o.packets_non_ip.total();
  s.flows_total = o.flows_total.total();
  s.video_flows = o.video_flows.total();
  s.classified_composite = o.classified_composite.total();
  s.classified_partial = o.classified_partial.total();
  s.classified_unknown = o.classified_unknown.total();
  std::uint64_t completed_sum = 0;
  std::uint64_t stranded = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const int slot = static_cast<int>(i);
    // One acquire load feeds both processed and stranded, keeping the
    // identity an exact equality; the release pair is the worker's
    // per-batch completed increment.
    const std::uint64_t done =
        o.packets_completed.value(slot, std::memory_order_acquire);
    completed_sum += done;
    const std::uint64_t sent =
        o.packets_enqueued.value(slot, std::memory_order_acquire);
    if (sent > done) stranded += sent - done;
  }
  s.packets_processed = completed_sum + s.packets_non_ip;
  s.packets_dropped_payload =
      o.packets_dropped_payload.total(std::memory_order_acquire);
  s.packets_dropped_handshake =
      o.packets_dropped_handshake.total(std::memory_order_acquire);
  // The staged gauge is read strictly AFTER the enqueued/dropped counters:
  // the dispatcher decrements it before a packet's terminal counter
  // increment, so this order can momentarily miss an in-flight packet
  // (under-account) but can never see it twice. Staged packets are backlog
  // — counted as stranded, like a live shard's ring occupancy.
  const std::int64_t staged = o.packets_staged.value(
      o.dispatcher_slot(), std::memory_order_acquire);
  if (staged > 0) stranded += static_cast<std::uint64_t>(staged);
  s.packets_stranded = stranded;
  s.volume_samples_dropped = o.volume_samples_dropped.total();
  s.flows_evicted_capacity = o.flows_evicted_capacity.total();
  s.sink_errors = o.sink_errors.total();
  s.worker_errors = o.worker_errors.total();
  const std::int64_t bypassed = o.shards_bypassed.total();
  s.shards_bypassed =
      bypassed > 0 ? static_cast<std::uint64_t>(bypassed) : 0;
  // Read the grand total LAST: every packet visible in a component counter
  // above incremented packets_total first, so a mid-dispatch snapshot is
  // only ever under-accounted (in-flight packets), never over — and
  // exactly balanced once the dispatcher is between calls.
  s.packets_total = o.packets_total.total();
  return s;
}

std::size_t ShardedPipeline::active_flows() {
  check_dispatcher_thread();
  drain();
  std::size_t total = 0;
  for (auto& shard : shards_)
    if (quiescent(*shard)) total += shard->pipe.active_flows();
  return total;
}

int ShardedPipeline::reactivate_recovered_shards() {
  check_dispatcher_thread();
  int recovered = 0;
  for (auto& shard : shards_) {
    if (!shard->bypassed.load(std::memory_order_relaxed)) continue;
    if (!quiescent(*shard)) continue;  // still digesting its backlog
    shard->bypassed.store(false, std::memory_order_release);
    shard->watchdog_stall_started_us = 0;
    shard->watchdog_last_processed =
        shard->processed.load(std::memory_order_relaxed);
    obs_->shards_bypassed.add(obs_->dispatcher_slot(), -1);
    record_shard_instant(obs::SpanKind::Recovered, shard->index);
    ++recovered;
  }
  return recovered;
}

int ShardedPipeline::bypassed_shards() const {
  int n = 0;
  for (const auto& shard : shards_)
    if (shard->bypassed.load(std::memory_order_relaxed)) ++n;
  return n;
}

void ShardedPipeline::maybe_poll_lifecycle() {
  // Amortized like maybe_export: canary judgement + retired-generation
  // reclamation once per 2048 dispatcher packets, not per packet.
  if (!options_.lifecycle) return;
  if ((++packets_since_lifecycle_poll_ & 2047) != 0) return;
  const ModelLifecycle::Decision decision = options_.lifecycle->poll();
  // A rollback is an incident, not routine churn: black-box it so the spans
  // and scoreboard that led to the judgement survive the rollout's undo.
  if (decision == ModelLifecycle::Decision::RolledBack && flight_recorder_)
    flight_recorder_->dump("canary_rollback");
}

std::vector<std::pair<std::pair<fingerprint::Provider, fingerprint::Transport>,
                      DriftMonitor::Status>>
ShardedPipeline::merged_drift_statuses() const {
  std::vector<std::pair<
      std::pair<fingerprint::Provider, fingerprint::Transport>,
      DriftMonitor::Status>>
      out;
  if (!options_.drift) return out;
  // Union of scenario keys: shards see disjoint flow slices, so a scenario
  // may exist on some shards only.
  std::vector<std::pair<fingerprint::Provider, fingerprint::Transport>> keys;
  for (const auto& shard : shards_) {
    if (!shard->drift) continue;
    for (const auto& key : shard->drift->scenario_keys())
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        keys.push_back(key);
  }
  std::vector<DriftMonitor::Status> parts;
  for (const auto& key : keys) {
    parts.clear();
    for (const auto& shard : shards_)
      if (shard->drift)
        parts.push_back(shard->drift->status(key.first, key.second));
    out.emplace_back(key, DriftMonitor::merge(parts, *options_.drift));
  }
  return out;
}

DriftMonitor::Status ShardedPipeline::drift_status(
    fingerprint::Provider provider, fingerprint::Transport transport) {
  check_dispatcher_thread();
  drain();  // acquire on processed: worker-side monitor state is visible
  if (!options_.drift) return {};
  std::vector<DriftMonitor::Status> parts;
  for (const auto& shard : shards_)
    if (shard->drift) parts.push_back(shard->drift->status(provider, transport));
  return DriftMonitor::merge(parts, *options_.drift);
}

bool ShardedPipeline::any_drifting() {
  check_dispatcher_thread();
  drain();
  for (const auto& [key, status] : merged_drift_statuses())
    if (status.drifting) return true;
  return false;
}

void ShardedPipeline::refresh_drift_gauges() {
  check_dispatcher_thread();
  drain();
  obs::Registry& registry = obs_->registry();
  const int dslot = obs_->dispatcher_slot();
  for (const auto& [key, status] : merged_drift_statuses()) {
    // Same series a standalone DriftMonitor::bind_obs would write (the
    // registry is idempotent on name+labels); shard monitors never bind, so
    // the merged view is the sole writer.
    std::string labels = "provider=\"";
    labels += fingerprint::to_string(key.first);
    labels += "\",transport=\"";
    labels += fingerprint::to_string(key.second);
    labels += '"';
    registry
        .gauge("vpscope_drift_flagged",
               "1 when the scenario's recent window drifts from its baseline",
               labels)
        .set(dslot, status.drifting ? 1 : 0);
    registry
        .gauge("vpscope_drift_reject_delta_milli",
               "Recent minus baseline non-composite rate, in 1/1000", labels)
        .set(dslot,
             static_cast<std::int64_t>((status.recent_reject_rate -
                                        status.baseline_reject_rate) *
                                       1000.0));
    registry
        .gauge("vpscope_drift_confidence_delta_milli",
               "Recent minus baseline mean composite confidence, in 1/1000",
               labels)
        .set(dslot,
             static_cast<std::int64_t>((status.recent_confidence -
                                        status.baseline_confidence) *
                                       1000.0));
  }
}

void ShardedPipeline::worker_loop(Shard& shard) {
  // Bulk drain (DESIGN.md §5g): up to batch_size items per pop — one
  // acquire/release pair on the ring and one completed-counter RMW per
  // batch instead of per item. Fault containment stays per item.
  std::vector<Item> batch(options_.batch_size);
  std::size_t got = 0;
  for (;;) {
    // Batch boundary = model-swap safe point. One relaxed load when nothing
    // changed; adoption also keeps the epoch slot advancing so the
    // lifecycle collector can retire superseded generations.
    shard.pipe.maybe_adopt_generation();
    got = shard.queue.try_pop_bulk(batch.data(), batch.size());
    if (got == 0) {
      // About to park: resolve any deferred classifications first, so a
      // partial classify batch never waits on traffic that may not come.
      shard.pipe.classify_pending_flush();
      spin_until([&] {
        // Adopt while parked too — an idle shard pinning an old epoch
        // would otherwise stall generation reclamation indefinitely.
        shard.pipe.maybe_adopt_generation();
        return (got = shard.queue.try_pop_bulk(batch.data(), batch.size())) !=
               0;
      });
    }
    obs_->worker_batches.add(shard.index);
    std::uint64_t packet_items = 0;
    bool stop = false;
    for (std::size_t i = 0; i < got; ++i) {
      Item& item = batch[i];
      const Item::Kind kind = item.kind;
      // Contain everything thrown out of item processing: a worker that
      // escapes its loop would std::terminate the process. Sink exceptions
      // are already absorbed (and counted) inside VideoFlowPipeline; this
      // catches injected faults and anything unforeseen.
      try {
        switch (kind) {
          case Item::Kind::Packet:
            VPSCOPE_FAULTPOINT(fault::Point::WorkerItem);
            // Span-sampled packet (one branch otherwise): the Queue span is
            // the staging + ring residency — Dispatch handover to worker
            // pop — recorded in THIS shard's ring, parented on the
            // dispatcher's Dispatch span; the pipeline chains the flow's
            // Extract/Encode/Classify spans onto it.
            if (item.span_parent != 0) {
              if (obs::SpanRing* sring = obs_->span_ring(shard.index))
                shard.pipe.set_packet_span_parent(sring->record(
                    obs::SpanKind::Queue, item.hash, item.span_parent,
                    item.enqueue_ns, obs::tick_now_ns(), 0));
            }
            shard.pipe.on_decoded(item.decoded, item.key, item.hash);
            // Release the packet buffer before signalling completion so
            // drain() observers never race the deallocation.
            item = Item{};
            break;
          case Item::Kind::Volume:
            VPSCOPE_FAULTPOINT(fault::Point::WorkerItem);
            shard.pipe.on_volume_sample(item.key, item.arg0, item.arg1,
                                        item.arg2);
            break;
          case Item::Kind::FlushIdle:
            shard.pipe.flush_idle(item.arg0, item.arg1);
            break;
          case Item::Kind::FlushAll:
            shard.pipe.flush_all();
            break;
          case Item::Kind::Stop:
            stop = true;
            break;
        }
      } catch (...) {
        obs_->worker_errors.add(shard.index);
        item = Item{};  // release buffers even on a failed item
      }
      if (kind == Item::Kind::Packet) ++packet_items;
    }
    // Completed (even on contained errors) — published once per batch; the
    // release pairs with the acquire in snapshot(), making the shard's
    // registry writes for the whole batch visible.
    if (packet_items != 0)
      obs_->packets_completed.add(shard.index, packet_items,
                                  std::memory_order_release);
    shard.processed.fetch_add(got, std::memory_order_release);
    if (stop) return;
  }
}

}  // namespace vpscope::pipeline
