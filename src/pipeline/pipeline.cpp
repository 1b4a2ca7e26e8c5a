#include "pipeline/pipeline.hpp"

#include <algorithm>

#include "pipeline/faultpoint.hpp"

namespace vpscope::pipeline {

using fingerprint::Provider;
using fingerprint::Transport;

namespace {

/// ASCII lowercase; SNI hostnames are ASCII (punycode for anything else).
constexpr char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Case-insensitive suffix match without allocating a lowered copy.
bool iends_with(std::string_view s, std::string_view suffix) {
  if (s.size() < suffix.size()) return false;
  const std::size_t off = s.size() - suffix.size();
  for (std::size_t i = 0; i < suffix.size(); ++i)
    if (ascii_lower(s[off + i]) != suffix[i]) return false;
  return true;
}

/// Video flows ride HTTPS; anything else never enters the flow table.
bool rides_https(const net::DecodedPacket& decoded) {
  return decoded.src_port() == 443 || decoded.dst_port() == 443;
}

}  // namespace

std::optional<Provider> provider_from_sni(std::string_view sni) {
  static const std::pair<const char*, Provider> kSuffixes[] = {
      {"googlevideo.com", Provider::YouTube},
      {"youtube.com", Provider::YouTube},
      {"ytimg.com", Provider::YouTube},
      {"nflxvideo.net", Provider::Netflix},
      {"netflix.com", Provider::Netflix},
      {"dssott.com", Provider::Disney},
      {"bamgrid.com", Provider::Disney},
      {"disneyplus.com", Provider::Disney},
      {"primevideo.com", Provider::Amazon},
      {"amazon.com", Provider::Amazon},
      {"amazonaws.com", Provider::Amazon},
      {"cloudfront.net", Provider::Amazon},
      {"akamaihd.net", Provider::Amazon},
  };
  for (const auto& [suffix, provider] : kSuffixes) {
    const std::size_t len = std::string_view(suffix).size();
    if (iends_with(sni, suffix)) {
      // Match either the bare domain or a subdomain boundary.
      if (sni.size() == len || sni[sni.size() - len - 1] == '.')
        return provider;
    }
  }
  return std::nullopt;
}

PipelineStats& PipelineStats::operator+=(const PipelineStats& other) {
  packets_total += other.packets_total;
  packets_non_ip += other.packets_non_ip;
  flows_total += other.flows_total;
  video_flows += other.video_flows;
  classified_composite += other.classified_composite;
  classified_partial += other.classified_partial;
  classified_unknown += other.classified_unknown;
  packets_processed += other.packets_processed;
  packets_dropped_payload += other.packets_dropped_payload;
  packets_dropped_handshake += other.packets_dropped_handshake;
  packets_stranded += other.packets_stranded;
  volume_samples_dropped += other.volume_samples_dropped;
  flows_evicted_capacity += other.flows_evicted_capacity;
  sink_errors += other.sink_errors;
  worker_errors += other.worker_errors;
  shards_bypassed += other.shards_bypassed;
  return *this;
}

VideoFlowPipeline::VideoFlowPipeline(const ClassifierBank* bank,
                                     PipelineOptions options,
                                     obs::ObsConfig obs_config)
    : bank_(bank), options_(options) {
  // A standalone pipeline is "one shard with no dispatcher": slot 0 of a
  // two-slot registry. The sharded front-end replaces this via bind_obs.
  owned_obs_ = std::make_shared<obs::PipelineObs>(1, obs_config);
  obs_ = owned_obs_.get();
  span_ring_ = obs_->span_ring(0);
  if (options_.classify_batch > 1 && bank_) batch_.emplace(bank_);
}

VideoFlowPipeline::~VideoFlowPipeline() {
  if (lifecycle_) lifecycle_->release(reader_slot_);
}

void VideoFlowPipeline::attach_lifecycle(ModelLifecycle* lifecycle,
                                         int reader_slot) {
  classify_pending_flush();
  lifecycle_ = lifecycle;
  reader_slot_ = reader_slot;
  apply_generation(lifecycle_->acquire(reader_slot_));
}

void VideoFlowPipeline::maybe_adopt_generation() {
  // Steady state: one relaxed load and a pointer compare.
  if (!lifecycle_ || lifecycle_->peek() == generation_) return;
  // Safe point: staged flows were encoded against the current banks'
  // Scenario tables (ClassifyBatch caches Scenario pointers); resolve them
  // before the banks change underneath.
  classify_pending_flush();
  apply_generation(lifecycle_->acquire(reader_slot_));
}

void VideoFlowPipeline::apply_generation(
    const ModelLifecycle::Generation* generation) {
  // Do NOT read through the old generation_ pointer here: our epoch slot
  // already points at the new generation, so the collector may free the
  // old object concurrently. adopted_model_gen_ carries what we need.
  const std::uint64_t previous_model_gen = adopted_model_gen_;
  generation_ = generation;
  adopted_model_gen_ = generation->model_gen;
  bank_ = generation->stable.get();
  batch_.reset();
  canary_batch_.reset();
  if (options_.classify_batch > 1) {
    if (bank_) batch_.emplace(bank_);
    if (generation->canary) canary_batch_.emplace(generation->canary.get());
  }
  // A model_gen bump means the stable bank itself changed (promotion or
  // direct swap): the drift baselines calibrated against the old model are
  // meaningless for the new one.
  if (drift_ && previous_model_gen != 0 &&
      generation->model_gen != previous_model_gen)
    drift_->recalibrate_all();
}

void VideoFlowPipeline::bind_obs(obs::PipelineObs* obs, int slot) {
  obs_ = obs;
  slot_ = slot;
  span_ring_ = obs->span_ring(slot);
  owned_obs_.reset();
}

PipelineStats VideoFlowPipeline::stats() const {
  // Thin read over the registry: this pipeline's own slot only, so a shard
  // pipeline bound to a shared registry reports just its contribution.
  PipelineStats s;
  const obs::PipelineObs& o = *obs_;
  const int i = slot_;
  s.packets_total = o.packets_total.value(i);
  s.packets_non_ip = o.packets_non_ip.value(i);
  s.flows_total = o.flows_total.value(i);
  s.video_flows = o.video_flows.value(i);
  s.classified_composite = o.classified_composite.value(i);
  s.classified_partial = o.classified_partial.value(i);
  s.classified_unknown = o.classified_unknown.value(i);
  // Processed decomposes into completed + decode-rejected; a synchronous
  // pipeline never drops, strands, or bypasses.
  s.packets_processed =
      o.packets_completed.value(i) + o.packets_non_ip.value(i);
  s.packets_dropped_payload = o.packets_dropped_payload.value(i);
  s.packets_dropped_handshake = o.packets_dropped_handshake.value(i);
  s.volume_samples_dropped = o.volume_samples_dropped.value(i);
  s.flows_evicted_capacity = o.flows_evicted_capacity.value(i);
  s.sink_errors = o.sink_errors.value(i);
  s.worker_errors = o.worker_errors.value(i);
  return s;
}

void VideoFlowPipeline::record_instant(const Flows::Record& flow,
                                       obs::Span event) {
  event.flow_hash = flow.hash;
  event.parent_id = flow.value.span_last;
  event.model_gen = adopted_model_gen_;
  span_ring_->record_instant(event);
}

void VideoFlowPipeline::on_packet(const net::Packet& packet) {
  maybe_adopt_generation();
  obs_->packets_total.add(slot_);
  // Span timeline starts at decode in the single-threaded front-end (no
  // dispatcher): the Parse span is the root of this packet's chain.
  std::uint64_t t_parse = 0;
  if (span_ring_) t_parse = obs::tick_now_ns();
  net::DecodedPacket decoded;
  bool ok;
  {
    obs::ScopedTimer timer(&obs_->profiler, obs::Stage::Parse, slot_);
    ok = net::decode_into(packet, decoded);
  }
  if (!ok) {
    obs_->packets_non_ip.add(slot_);  // rejected at decode = fully handled
    return;
  }
  obs_->packets_completed.add(slot_);
  // Packets on_decoded ignores need no key or hash unless spans sample them.
  if (!span_ring_ && !rides_https(decoded)) return;
  const net::FlowKey key = decoded.flow_key();
  const std::uint64_t hash = net::FlowKeyHash{}(key);
  if (span_ring_ && obs_->span_sampled(hash))
    packet_span_parent_ =
        span_ring_->record(obs::SpanKind::Parse, hash, 0, t_parse,
                           obs::tick_now_ns(), adopted_model_gen_);
  on_decoded(decoded, key, hash);
}

void VideoFlowPipeline::release_handshake(FlowRecord& state) {
  if (state.handshake == kNoHandshake) return;
  handshakes_[state.handshake] = core::HandshakeExtractor{};
  free_handshakes_.push_back(state.handshake);
  state.handshake = kNoHandshake;
}

void VideoFlowPipeline::erase_flow(FlowId id) {
  release_handshake(flows_[id].value);
  flows_.erase(id);
}

bool VideoFlowPipeline::admit_flow(FlowId id, bool inserted) {
  if (options_.max_flows == 0) return true;
  // Idle-ordered by construction: insert appends to the LRU list and every
  // packet moves its flow to the back, so the front is the longest-idle
  // flow even when timestamps run backwards (arrival order, not clock
  // order, drives eviction).
  if (!inserted) flows_.touch(id);
  if (flows_.size() <= options_.max_flows) return true;
  obs_->flows_evicted_capacity.add(slot_);
  if (options_.eviction == PipelineOptions::Eviction::RejectNew) {
    // `id` is the newest flow (we only get here on insertion); refuse it.
    // flows_total was not yet counted for it — the caller counts only after
    // admission succeeds, keeping the counter monotone (every packet of a
    // refused flow retries the insert, and retries are not new flows).
    if (flows_[id].value.traced)
      record_instant(flows_[id], {.kind = obs::SpanKind::Rejected});
    erase_flow(id);
    return false;
  }
  // LruIdle: the LRU front is the longest-idle flow; it leaves through the
  // normal sink path. It is never `id` itself — `id` was just touched.
  const FlowId victim = flows_.lru_front();
  // A staged victim must carry its prediction into the sink record: resolve
  // the whole pending batch before finalizing (resolution only mutates flow
  // *states*, never the table).
  if (flows_[victim].value.classify_pending) classify_pending_flush();
  if (flows_[victim].value.traced)
    record_instant(flows_[victim], {.kind = obs::SpanKind::Evicted});
  finalize(flows_[victim]);
  erase_flow(victim);
  return true;
}

void VideoFlowPipeline::on_decoded(const net::DecodedPacket& decoded,
                                   const net::FlowKey& key,
                                   std::uint64_t hash) {
  if (!rides_https(decoded)) return;
  const auto [id, inserted] = flows_.insert(key, hash);
  if (inserted) {
    FlowRecord& state = flows_[id].value;
    // The first packet of a flow comes from the client in our captures
    // (SYN / QUIC Initial); fall back to "not port 443" for robustness.
    if (decoded.dst_port() == 443) {
      state.client_addr = decoded.src;
      state.client_port = decoded.src_port();
    } else {
      state.client_addr = decoded.dst;
      state.client_port = decoded.dst_port();
    }
    state.transport = decoded.udp ? Transport::Quic : Transport::Tcp;
    state.traced = span_ring_ && obs_->span_sampled(hash);
  }
  if (!admit_flow(id, inserted)) {
    sync_flows_active();
    return;
  }
  // Admission may have erased another flow but never moves this one.
  Flows::Record& flow = flows_[id];
  FlowRecord& state = flow.value;
  if (inserted) {
    if (free_handshakes_.empty()) {
      state.handshake = static_cast<std::uint32_t>(handshakes_.size());
      handshakes_.emplace_back();
    } else {
      state.handshake = free_handshakes_.back();
      free_handshakes_.pop_back();
    }
    obs_->flows_total.add(slot_);
    sync_flows_active();
    if (state.traced) record_instant(flow, {.kind = obs::SpanKind::Admitted});
  }

  // Telemetry: every packet counts, direction by client address.
  const bool from_client = decoded.src == state.client_addr &&
                           decoded.src_port() == state.client_port;
  if (from_client)
    state.counters.add_up(decoded.timestamp_us, decoded.ip_packet_size);
  else
    state.counters.add_down(decoded.timestamp_us, decoded.ip_packet_size);

  // Causal span context for this packet: chain onto the cross-thread
  // Queue/Parse span the front-end recorded (packet_span_parent_), or onto
  // the flow's last recorded span when the packet itself was unsampled
  // upstream (spans sample by flow, so the chain stays within one flow).
  obs::SpanScratch* spans = nullptr;
  if (state.traced) {
    const std::uint64_t pkt_parent = packet_span_parent_;
    packet_span_parent_ = 0;
    span_scratch_.ring = span_ring_;
    span_scratch_.flow_hash = hash;
    span_scratch_.parent = pkt_parent != 0 ? pkt_parent : state.span_last;
    span_scratch_.model_gen = adopted_model_gen_;
    span_scratch_.last_id = 0;
    spans = &span_scratch_;
  }

  // Handshake path: feed until complete, then detect provider + classify.
  // A flow past that point holds no handshake slot and only counts.
  if (state.handshake == kNoHandshake) {
    if (spans) state.span_last = span_scratch_.parent;
    return;
  }
  core::HandshakeExtractor& extractor = handshakes_[state.handshake];
  bool fed;
  {
    obs::ScopedTimer timer(&obs_->profiler, obs::Stage::Extract, slot_);
    obs::SpanScope span(spans, obs::SpanKind::Extract);
    fed = extractor.feed(decoded);
  }
  if (spans) state.span_last = span_scratch_.parent;
  if (extractor.failed()) {
    release_handshake(state);  // not a TLS flow
    return;
  }
  if (!fed || !extractor.complete()) return;

  state.sni = extractor.sni();
  state.provider = provider_from_sni(state.sni);
  if (!state.provider) {
    release_handshake(state);  // HTTPS, but not a video provider of interest
    return;
  }

  obs_->video_flows.add(slot_);
  state.video_counted = true;
  const auto& handshake = *extractor.handshake();

  // Canary routing (DESIGN.md §5j): while a rollout is active, a
  // deterministic FlowKeyHash fraction of flows classifies against the
  // candidate bank instead of the stable one. Hash-based, so the same flow
  // always lands on the same route regardless of shard or replay order.
  const ClassifierBank* route_bank = bank_;
  ClassifierBank::ClassifyBatch* route_batch =
      batch_ ? &*batch_ : nullptr;
  if (generation_ && generation_->canary &&
      generation_->routes_to_canary(hash)) {
    state.canary_routed = true;
    route_bank = generation_->canary.get();
    route_batch = canary_batch_ ? &*canary_batch_ : nullptr;
  }

  if (route_batch &&
      route_batch->add(handshake, *state.provider, pending_.size(),
                       &obs_->profiler, slot_, spans)) {
    // Deferred: the flow is encoded, its descent runs with the batch. An
    // untrained scenario stages nothing (add returns false) and falls
    // through to the inline path, which reports it Unknown immediately.
    state.classify_pending = true;
    release_handshake(state);
    const std::uint64_t span_parent = spans ? span_scratch_.parent : 0;
    if (spans) state.span_last = span_parent;
    pending_.push_back({id, decoded.timestamp_us, span_parent});
    if (pending_.size() >= options_.classify_batch) classify_pending_flush();
    return;
  }
  const PlatformPrediction prediction =
      route_bank ? route_bank->classify(handshake, *state.provider,
                                        &obs_->profiler, slot_, spans)
                 : PlatformPrediction{};
  release_handshake(state);
  if (spans) state.span_last = span_scratch_.parent;
  apply_prediction(flow, prediction, decoded.timestamp_us);
}

void VideoFlowPipeline::apply_prediction(Flows::Record& flow,
                                         const PlatformPrediction& prediction,
                                         std::uint64_t ts_us) {
  FlowRecord& state = flow.value;
  switch (prediction.outcome) {
    case telemetry::Outcome::Composite:
      obs_->classified_composite.add(slot_);
      break;
    case telemetry::Outcome::Partial:
      obs_->classified_partial.add(slot_);
      break;
    case telemetry::Outcome::Unknown:
      obs_->classified_unknown.add(slot_);
      break;
  }
  if (state.traced) {
    obs::Span event;
    event.kind = obs::SpanKind::Classified;
    if (prediction.device)
      event.os = static_cast<std::uint8_t>(*prediction.device);
    if (prediction.agent)
      event.agent = static_cast<std::uint8_t>(*prediction.agent);
    event.composite = prediction.platform.has_value();
    event.confidence = static_cast<float>(prediction.platform_confidence);
    record_instant(flow, event);
  }
  // Canary-routed flows stay out of the drift monitor — the stable model's
  // baselines must not be judged on a candidate's outputs — and both routes
  // feed the lifecycle scoreboard that decides promote vs rollback.
  if (drift_ && state.provider && !state.canary_routed)
    drift_->record(*state.provider, state.transport, prediction.outcome,
                   prediction.platform_confidence, ts_us);
  if (lifecycle_)
    lifecycle_->record_outcome(reader_slot_, state.canary_routed,
                               prediction.outcome,
                               prediction.platform_confidence);
  state.prediction = prediction;
}

void VideoFlowPipeline::classify_pending_flush() {
  const bool stable_staged = batch_ && !batch_->empty();
  const bool canary_staged = canary_batch_ && !canary_batch_->empty();
  if (!stable_staged && !canary_staged) return;
  // One Classify stage sample covers the whole batch: the histogram then
  // shows the amortized cost directly (batch latency / flows-per-batch is
  // what the bench tables report).
  obs::ScopedTimer timer(&obs_->profiler, obs::Stage::Classify, slot_);
  // Span-sampled flows each get a Classify span covering the shared batch
  // descent up to their emit, parented on their own Encode span.
  const std::uint64_t batch_start_ns =
      span_ring_ ? obs::tick_now_ns() : 0;
  const std::function<void(std::uint64_t, const PlatformPrediction&)> emit =
      [this, batch_start_ns](std::uint64_t cookie,
                             const PlatformPrediction& prediction) {
        const PendingFlow& pending = pending_[cookie];
        Flows::Record& flow = flows_[pending.flow];
        FlowRecord& state = flow.value;
        state.classify_pending = false;
        if (state.traced)
          state.span_last = span_ring_->record(
              obs::SpanKind::Classify, flow.hash, pending.span_parent,
              batch_start_ns, obs::tick_now_ns(), adopted_model_gen_);
        apply_prediction(flow, prediction, pending.ts_us);
      };
  if (stable_staged) batch_->classify(emit);
  if (canary_staged) canary_batch_->classify(emit);
  pending_.clear();
}

void VideoFlowPipeline::on_volume_sample(const net::FlowKey& key,
                                         std::uint64_t ts_us,
                                         std::uint64_t bytes_down,
                                         std::uint64_t bytes_up) {
  const FlowId id = flows_.find(key, net::FlowKeyHash{}(key));
  if (id == Flows::kNone) return;
  if (options_.max_flows > 0) flows_.touch(id);
  FlowRecord& state = flows_[id].value;
  if (bytes_down) state.counters.add_down(ts_us, bytes_down);
  if (bytes_up) state.counters.add_up(ts_us, bytes_up);
}

void VideoFlowPipeline::finalize(Flows::Record& flow) {
  FlowRecord& state = flow.value;
  if (!state.video_counted || !state.provider) return;  // not a video flow
  if (state.traced) record_instant(flow, {.kind = obs::SpanKind::Finalized});
  telemetry::SessionRecord record;
  record.provider = *state.provider;
  record.transport = state.transport;
  record.sni = state.sni;
  record.counters = state.counters;
  if (state.prediction) {
    record.outcome = state.prediction->outcome;
    record.platform = state.prediction->platform;
    record.device = state.prediction->device;
    record.agent = state.prediction->agent;
    record.confidence = state.prediction->platform_confidence;
  }
  if (sink_) {
    // A throwing sink must not tear down the pipeline (in the sharded
    // front-end it would escape a worker thread and std::terminate the
    // process); the record is lost, the error is counted, the flow table
    // stays consistent.
    const std::uint64_t t_sink = state.traced ? obs::tick_now_ns() : 0;
    try {
      VPSCOPE_FAULTPOINT(fault::Point::SinkEmit);
      obs::ScopedTimer timer(&obs_->profiler, obs::Stage::Sink, slot_);
      sink_(std::move(record));
    } catch (...) {
      obs_->sink_errors.add(slot_);
    }
    if (state.traced)
      state.span_last = span_ring_->record(
          obs::SpanKind::Sink, flow.hash, state.span_last, t_sink,
          obs::tick_now_ns(), adopted_model_gen_);
  }
}

void VideoFlowPipeline::flush_idle(std::uint64_t now_us,
                                   std::uint64_t idle_timeout_us) {
  classify_pending_flush();
  // LRU order over live flows only; erasing a flow never moves another.
  for (FlowId id = flows_.lru_front(); id != Flows::kNone;) {
    const FlowId next = flows_.lru_next(id);
    Flows::Record& flow = flows_[id];
    // idle_us clamps a non-monotonic clock (now behind last_seen) to zero
    // idle, and — unlike the additive `last + timeout <= now` form — cannot
    // wrap when a hostile timestamp pushes last_us near 2^64.
    if (flow.value.counters.idle_us(now_us) >= idle_timeout_us) {
      finalize(flow);
      erase_flow(id);
    }
    id = next;
  }
  compact_after_drain();
  sync_flows_active();
}

void VideoFlowPipeline::compact_after_drain() {
  // Below this peak the slab and handshake slots hold under 1 MB, not worth
  // renumbering for.
  constexpr std::size_t kMinPeak = 1024;
  if (flows_.slab_size() < kMinPeak ||
      flows_.size() * 8 > flows_.slab_size())
    return;
  flows_.compact();
  std::vector<core::HandshakeExtractor> handshakes;
  for (FlowId id = 0; id < flows_.size(); ++id) {
    std::uint32_t& slot = flows_[id].value.handshake;
    if (slot == kNoHandshake) continue;
    handshakes.push_back(std::move(handshakes_[slot]));
    slot = static_cast<std::uint32_t>(handshakes.size() - 1);
  }
  handshakes_.swap(handshakes);
  free_handshakes_ = {};
}

void VideoFlowPipeline::flush_all() {
  classify_pending_flush();
  for (FlowId id = flows_.lru_front(); id != Flows::kNone;
       id = flows_.lru_next(id))
    finalize(flows_[id]);
  flows_.clear();
  handshakes_ = {};
  free_handshakes_ = {};
  sync_flows_active();
}

}  // namespace vpscope::pipeline
