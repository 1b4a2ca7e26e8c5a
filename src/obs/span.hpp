// Causal flow tracing (DESIGN.md §5k): sampled per-flow spans with explicit
// parent links, covering a packet's whole life across threads —
//
//   capture -> dispatch -> queue -> parse/extract/encode/classify -> sink
//
// — and the flow's lifecycle as zero-length instant spans: admitted,
// rejected, evicted, shed, classified, finalized, plus the shard-level
// stranded/recovered. Sampling is one deterministic 1-in-N decision by
// flow-key hash (PipelineObs::span_sampled): a flow is either fully traced
// or not at all, and two runs over the same traffic trace the same flows.
// Each registry slot (shard workers + the dispatcher) owns one bounded
// SpanRing written only by that slot's thread; span ids embed the owning
// slot so they are process-unique without cross-thread coordination, and
// parent ids point at the causally preceding span (0 = parented to the
// per-flow root synthesized at export time).
//
// Export renders Chrome trace_event JSON ("X" complete events and "i"
// instant events; loadable in chrome://tracing and Perfetto): pid 1, tid =
// slot, timestamps in microseconds on the calibrated tick timeline, args
// carrying the flow hash, span/parent ids, the model generation that served
// the flow and each instant's detail — so one flow's path across >= 2
// shards and a mid-run model swap renders as a single parented timeline.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace vpscope::obs {

enum class SpanKind : std::uint8_t {
  Capture,   // front-end read/pace time for the packet (when reported)
  Dispatch,  // dispatcher decode + hash + staging
  Queue,     // staging + SPSC ring residency (enqueue -> worker pop)
  Parse,     // single-threaded front-end decode
  Extract,   // HandshakeExtractor::feed
  Encode,    // FeatureEncoder::transform_into
  Classify,  // forest descent + confidence logic
  Sink,      // session-record emission
  // Flow-lifecycle instants (dur_ns == 0), recorded for sampled flows.
  Admitted,    // flow inserted into the flow table
  Rejected,    // admission refused (RejectNew policy at capacity)
  Evicted,     // LRU capacity eviction
  Shed,        // dispatch-time load shed (ring full past grace)
  Classified,  // classifier produced a prediction for the flow
  Finalized,   // session record emitted through the sink
  // Shard-level instants (flow_hash 0), recorded whenever spans are on.
  Stranded,   // watchdog flipped the shard to bypass
  Recovered,  // shard re-admitted after drain
};

/// Lifecycle kinds are zero-length instants; the rest have a duration.
constexpr bool is_instant(SpanKind kind) {
  return kind >= SpanKind::Admitted;
}

constexpr std::string_view span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Capture: return "capture";
    case SpanKind::Dispatch: return "dispatch";
    case SpanKind::Queue: return "queue";
    case SpanKind::Parse: return "parse";
    case SpanKind::Extract: return "extract";
    case SpanKind::Encode: return "encode";
    case SpanKind::Classify: return "classify";
    case SpanKind::Sink: return "sink";
    case SpanKind::Admitted: return "admitted";
    case SpanKind::Rejected: return "rejected";
    case SpanKind::Evicted: return "evicted";
    case SpanKind::Shed: return "shed";
    case SpanKind::Classified: return "classified";
    case SpanKind::Finalized: return "finalized";
    case SpanKind::Stranded: return "stranded";
    case SpanKind::Recovered: return "recovered";
  }
  return "?";
}

/// One span, or one instant lifecycle event. POD; 64 bytes. Platform
/// fields are raw fingerprint enum values (rendered to names at export) so
/// this header stays dependency-free.
struct Span {
  /// os/agent value of a Classified event without that prediction.
  static constexpr std::uint8_t kNone = 0xff;

  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = parented to the flow root at export
  std::uint64_t flow_hash = 0;  // 0 for the shard-level instants
  std::uint64_t start_ns = 0;   // tick_now_ns() timeline
  std::uint64_t dur_ns = 0;     // 0 for instants
  std::uint64_t model_gen = 0;  // serving model generation (0 = none)
  std::int32_t slot = 0;        // writer slot = exported tid
  SpanKind kind = SpanKind::Dispatch;
  // ---- instant detail ----
  std::uint8_t os = kNone;     // Classified: fingerprint::Os
  std::uint8_t agent = kNone;  // Classified: fingerprint::Agent
  bool composite = false;      // Classified: a confident platform
  float confidence = 0.0f;     // Classified: winning probability
  /// Shed: the packet's pipeline::AdmissionClass (0 handshake, 1 payload);
  /// Stranded/Recovered: the shard index.
  std::uint32_t detail = 0;
};
static_assert(sizeof(Span) == 64, "one span per cache line");

/// Bounded overwrite-oldest span ring, one per registry slot and written
/// only by that slot's thread. Records happen per sampled flow event, far
/// off the packet hot path, so a plain mutex keeps concurrent record/drain
/// trivially clean.
class SpanRing {
 public:
  /// `slot` is baked into every id this ring assigns, making ids unique
  /// across rings without shared state: id = (slot+1) << 40 | seq.
  SpanRing(std::size_t capacity, int slot) : capacity_(capacity), slot_(slot) {
    spans_.reserve(capacity_);
  }

  /// Records a completed span; returns its id (for use as a child's
  /// parent). The caller decides sampling (PipelineObs::span_sampled).
  std::uint64_t record(SpanKind kind, std::uint64_t flow_hash,
                       std::uint64_t parent_id, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t model_gen) {
    Span span;
    span.flow_hash = flow_hash;
    span.parent_id = parent_id;
    span.start_ns = start_ns;
    span.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
    span.model_gen = model_gen;
    span.kind = kind;
    return push(span);
  }

  /// Records an instant event stamped now: `event` carries the kind, flow,
  /// parent, model_gen and detail; the ring assigns id, slot and time.
  void record_instant(Span event) {
    event.start_ns = tick_now_ns();
    event.dur_ns = 0;
    push(event);
  }

  /// Spans in arrival order (oldest first). Safe concurrently with record.
  std::vector<Span> drain_copy() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out.push_back(spans_[(head_ + i) % spans_.size()]);
    return out;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

 private:
  std::uint64_t push(Span& span) {
    if (capacity_ == 0) return 0;
    span.slot = slot_;
    const std::lock_guard<std::mutex> lock(mutex_);
    span.span_id =
        (static_cast<std::uint64_t>(slot_ + 1) << 40) | ++last_seq_;
    if (spans_.size() < capacity_) {
      spans_.push_back(span);
    } else {
      spans_[head_] = span;
      head_ = (head_ + 1) % capacity_;
    }
    return span.span_id;
  }

  std::size_t capacity_;
  int slot_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t head_ = 0;
  std::uint64_t last_seq_ = 0;
};

/// Per-flow span context threaded through one packet's processing chain.
/// `parent` advances as spans complete, so sequential SpanScopes chain
/// (extract -> encode -> classify -> ...) with explicit parent links.
struct SpanScratch {
  SpanRing* ring = nullptr;
  std::uint64_t flow_hash = 0;
  std::uint64_t parent = 0;
  std::uint64_t model_gen = 0;
  /// Most recently recorded span id (== parent after every SpanScope).
  std::uint64_t last_id = 0;
};

/// RAII span: records [ctor, dtor] into the scratch ring and chains the
/// scratch parent. Null scratch costs one branch and no clock read.
class SpanScope {
 public:
  SpanScope(SpanScratch* scratch, SpanKind kind)
      : scratch_(scratch), kind_(kind) {
    if (scratch_) start_ns_ = tick_now_ns();
  }
  ~SpanScope() {
    if (!scratch_) return;
    scratch_->last_id =
        scratch_->ring->record(kind_, scratch_->flow_hash, scratch_->parent,
                               start_ns_, tick_now_ns(), scratch_->model_gen);
    scratch_->parent = scratch_->last_id;
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanScratch* scratch_;
  SpanKind kind_;
  std::uint64_t start_ns_ = 0;
};

/// Appends an instant's detail as JSON object members — Classified:
/// `,"os":..,"agent":..,"composite":..,"confidence":..`; Shed: `,"class":..`;
/// Stranded/Recovered: `,"shard":..`. Appends nothing for other kinds.
void append_span_detail(std::string& out, const Span& span);

/// Renders spans as Chrome trace_event JSON: {"traceEvents":[...]} of "X"
/// complete events (name/cat/ph/ts/dur/pid/tid + args{flow, span, parent,
/// model_gen}) and "i" thread-scoped instants (no dur; args add the
/// detail), preceded by one synthesized "flow" root span per flow hash that
/// every parentless span attaches to (the shard-level Stranded/Recovered
/// instants get none). ts/dur are microseconds.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace vpscope::obs
