// Traced run (--trace 1). The end-to-end metrics come from untraced runs;
// this run explains them layer by layer. Its centre is the walk: one replay
// of the workload image into a real VideoFlowPipeline in which, for every
// packet and flow, the benchmark also calls each layer's public entry point
// itself on the same inputs, in pipeline order:
//
//   pipeline.on_packet            the real call, every packet
//     net.decode                  net::decode
//     core.extract                HandshakeExtractor::feed until complete
//       quic.unprotect            unprotect_client_initial, client Initials
//         crypto.initial_keys     derive_client_initial_keys(DCID)
//         crypto.aead_open        Aes128Gcm::open, Initial-sized payload
//       tls.parse                 ClientHello::parse_record / parse_handshake
//     pipeline.classify           ClassifierBank::classify
//       core.encode               FeatureEncoder::transform_into
//       ml.forest                 CompiledForest::predict_with_confidence
//   pipeline.flush_idle/flush_all the replay's flush hook and final flush
//     telemetry.insert            SessionStore::insert, in the sink
//
// Each call gets a span (name, start, end, parent, flow). A layer's self
// time is its span time minus its child-layer calls for the same flow;
// what on_packet spends outside decode, extract, classify and the sink is
// reported as the pipeline's own share rather than hidden. Spans live in
// memory and are written as Chrome trace_event JSON at the end.
//
// Around the walk the run also times the calls no walk can reach: the pcap
// reader alone, the sharded dispatcher, the batched forest descent, bank
// loading, and the profiling overhead in alternating windows. It also
// reports the sharded rate with the CPUs the process actually received
// during those passes, which that rate follows on a shared host.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/handshake.hpp"
#include "crypto/aes.hpp"
#include "passes.hpp"
#include "pipeline/bank_serialize.hpp"
#include "quic/initial.hpp"
#include "runs.hpp"
#include "tls/client_hello.hpp"

namespace perfbench {

using namespace vpscope;
using fingerprint::Transport;

namespace {

constexpr int kBankLoadRepetitions = 15;
constexpr std::size_t kMinCycles = 2;
constexpr double kMaxOvertimeSeconds = 60;
/// Spans kept for the trace file (the first walk's, in call order); every
/// call still feeds the metrics.
constexpr std::size_t kMaxFileSpans = 100'000;
/// The sharded front-end's default batch size, used for the batched forest.
constexpr std::size_t kForestBatch = 32;

enum class Layer : std::uint8_t {
  OnPacket,
  Decode,
  Extract,
  Unprotect,
  InitialKeys,
  AeadOpen,
  TlsParse,
  Classify,
  Encode,
  Forest,
  FlushIdle,
  FlushAll,
  Insert,
};

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::OnPacket: return "pipeline.on_packet";
    case Layer::Decode: return "net.decode";
    case Layer::Extract: return "core.extract";
    case Layer::Unprotect: return "quic.unprotect";
    case Layer::InitialKeys: return "crypto.initial_keys";
    case Layer::AeadOpen: return "crypto.aead_open";
    case Layer::TlsParse: return "tls.parse";
    case Layer::Classify: return "pipeline.classify";
    case Layer::Encode: return "core.encode";
    case Layer::Forest: return "ml.forest";
    case Layer::FlushIdle: return "pipeline.flush_idle";
    case Layer::FlushAll: return "pipeline.flush_all";
    case Layer::Insert: return "telemetry.insert";
  }
  return "?";
}

/// In-memory span log. Ids are handed out before a call starts so calls
/// made inside it (the sink) can name it as their parent.
class SpanLog {
 public:
  struct Span {
    std::uint64_t start_ns = 0, end_ns = 0;
    std::uint32_t id = 0, parent = 0, flow = 0;
    Layer layer{};
  };

  std::uint32_t next_id() { return ++last_id_; }
  void record(std::uint32_t id, Layer layer, std::uint64_t start,
              std::uint64_t end, std::uint32_t parent, std::uint32_t flow) {
    if (!recording_) return;
    if (spans_.size() < kMaxFileSpans)
      spans_.push_back({start, end, id, parent, flow, layer});
    else
      ++dropped_;
  }
  void stop() { recording_ = false; }

  /// Chrome trace_event JSON: one "X" event per span, timestamps in µs
  /// from the first span.
  bool write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"flow\":%u}}\n",
                   i ? "," : "", layer_name(s.layer), workload.c_str(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, s.flow);
    }
    std::fprintf(f,
                 "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":"
                 "\"%s\",\"spans\":%zu,\"spans_not_kept\":%llu}}\n",
                 workload.c_str(), spans_.size(),
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

  std::size_t kept() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint32_t last_id_ = 0;
  std::uint64_t dropped_ = 0;
  bool recording_ = true;
};

/// Durations of one call site (ns) and their sum.
struct Calls {
  std::vector<float> ns;
  double total_ns = 0;
  void add(double d) {
    ns.push_back(static_cast<float>(d));
    total_ns += d;
  }
  std::uint64_t count() const { return ns.size(); }
  /// Durations are whole clock nanoseconds, so the median is taken on that
  /// grid (a call of ~100 ns would otherwise read the same integer often).
  double median_ns() const {
    return median_grouped(std::vector<double>(ns.begin(), ns.end()), 1.0);
  }
};

/// Everything the walks measured, pooled over walks.
struct WalkTotals {
  Calls on_packet, open, payload, decode, extract, unprotect, initial_keys,
      aead_open, tls_parse, classify, encode, forest, insert;
  Calls flush;  // per walk: flush_idle calls plus the final flush_all
  Calls extract_tcp_flow, extract_quic_flow;  // per flow: feeds until complete
  double insert_in_on_packet_ns = 0;
  std::uint64_t classified = 0, fallback = 0;
  std::uint64_t packets = 0, allocations = 0;
  std::vector<double> walk_seconds;
};

/// Feature rows per scenario from the first walk, for the batched forest.
struct BatchRows {
  std::vector<std::pair<const pipeline::ClassifierBank::Scenario*,
                        std::vector<double>>>
      by_scenario;
  std::vector<double>& rows(const pipeline::ClassifierBank::Scenario* s) {
    for (auto& [scenario, rows] : by_scenario)
      if (scenario == s) return rows;
    by_scenario.emplace_back(s, std::vector<double>{});
    return by_scenario.back().second;
  }
};

/// The benchmark's own view of one flow during a walk.
struct MirrorFlow {
  struct Handshake {
    core::HandshakeExtractor extractor;
    Bytes tcp_stream;                // client payload, as the extractor sees it
    quic::CryptoReassembler crypto;  // client Initial CRYPTO frames
  };
  std::uint32_t id = 0;
  Transport transport = Transport::Tcp;
  net::IpAddr client;
  std::uint16_t client_port = 0;
  double extract_ns = 0;
  std::unique_ptr<Handshake> handshake = std::make_unique<Handshake>();
  bool done() const { return !handshake; }
};

class Walker {
 public:
  Walker(const Setup& setup, Gate& gate) : setup_(setup), gate_(gate) {}

  /// One traced walk of `capture`. `log`/`rows` are filled when given;
  /// `initial_keys` collects the flow key of every client Initial.
  void walk(const Capture& capture, WalkTotals& t, SpanLog* log,
            BatchRows* rows, std::vector<net::FlowKey>* initial_keys,
            const std::string& pass_name) {
    const pipeline::ClassifierBank& bank = *setup_.bank;
    SpanLog scratch_log;
    scratch_log.stop();
    SpanLog& spans = log ? *log : scratch_log;
    std::unordered_map<net::FlowKey, MirrorFlow, net::FlowKeyHash> mirror;
    std::uint32_t next_flow = 0;
    std::uint32_t context = 0;  // span the sink's inserts parent onto
    bool in_on_packet = false;

    telemetry::SessionStore store;
    PassResult pass;
    {
      pipeline::VideoFlowPipeline pipe(&bank);
      pipe.set_sink([&](telemetry::SessionRecord r) {
        const std::uint32_t id = spans.next_id();
        const std::uint64_t a = now_ns();
        store.insert(std::move(r));
        const std::uint64_t b = now_ns();
        spans.record(id, Layer::Insert, a, b, context, 0);
        t.insert.add(static_cast<double>(b - a));
        if (in_on_packet)
          t.insert_in_on_packet_ns += static_cast<double>(b - a);
      });
      double flush_ns = 0;
      capture::ReplayDriver driver(setup_.workload.replay);
      driver.set_flush_hook([&](std::uint64_t now_us, std::uint64_t idle_us) {
        context = spans.next_id();
        const std::uint64_t a = now_ns();
        pipe.flush_idle(now_us, idle_us);
        const std::uint64_t b = now_ns();
        spans.record(context, Layer::FlushIdle, a, b, 0, 0);
        flush_ns += static_cast<double>(b - a);
      });

      const std::uint64_t walk_start = now_ns();
      const capture::ReplayStats stats = driver.replay(
          capture.image, [&](net::Packet&& packet) {
            // The real pipeline first.
            const std::uint32_t id_p = spans.next_id();
            context = id_p;
            in_on_packet = true;
            const std::uint64_t a0 = thread_allocations();
            const std::uint64_t t0 = now_ns();
            pipe.on_packet(packet);
            const std::uint64_t t1 = now_ns();
            t.allocations += thread_allocations() - a0;
            in_on_packet = false;
            const double on_packet_ns = static_cast<double>(t1 - t0);
            t.on_packet.add(on_packet_ns);

            // Then each layer's entry point on the same packet.
            const std::uint32_t id_d = spans.next_id();
            const std::uint64_t t2 = now_ns();
            const auto decoded = net::decode(packet);
            const std::uint64_t t3 = now_ns();
            t.decode.add(static_cast<double>(t3 - t2));
            if (!decoded) {
              spans.record(id_p, Layer::OnPacket, t0, t1, 0, 0);
              spans.record(id_d, Layer::Decode, t2, t3, id_p, 0);
              return;
            }
            const net::FlowKey key = decoded->flow_key();
            auto [it, inserted] = mirror.try_emplace(key);
            MirrorFlow& flow = it->second;
            if (inserted) {
              flow.id = next_flow++;
              flow.transport = decoded->udp ? Transport::Quic : Transport::Tcp;
              flow.client = decoded->src;
              flow.client_port = decoded->src_port();
              t.open.add(on_packet_ns);
            } else if (flow.done()) {
              t.payload.add(on_packet_ns);
            }
            spans.record(id_p, Layer::OnPacket, t0, t1, 0, flow.id);
            spans.record(id_d, Layer::Decode, t2, t3, id_p, flow.id);
            if (!flow.done())
              extract_and_classify(*decoded, key, flow, id_p, t, spans, rows,
                                   initial_keys);
          });
      context = spans.next_id();
      const std::uint64_t f0 = now_ns();
      pipe.flush_all();
      const std::uint64_t f1 = now_ns();
      spans.record(context, Layer::FlushAll, f0, f1, 0, 0);
      flush_ns += static_cast<double>(f1 - f0);
      t.walk_seconds.push_back(seconds_between(walk_start, now_ns()));
      t.flush.add(flush_ns);
      t.packets += stats.frames;
      pass.frames = stats.frames;
      pass.stats = pipe.stats();
    }
    pass.records = store.records();
    gate_.check(capture, pass, pass_name, false);
  }

 private:
  void extract_and_classify(const net::DecodedPacket& d,
                            const net::FlowKey& key, MirrorFlow& flow,
                            std::uint32_t id_p, WalkTotals& t, SpanLog& spans,
                            BatchRows* rows,
                            std::vector<net::FlowKey>* initial_keys) {
    MirrorFlow::Handshake& h = *flow.handshake;
    const std::uint32_t id_e = spans.next_id();
    const std::uint64_t e0 = now_ns();
    h.extractor.feed(d);
    const std::uint64_t e1 = now_ns();
    spans.record(id_e, Layer::Extract, e0, e1, id_p, flow.id);
    t.extract.add(static_cast<double>(e1 - e0));
    flow.extract_ns += static_cast<double>(e1 - e0);

    const bool from_client =
        d.src == flow.client && d.src_port() == flow.client_port;
    if (d.udp && from_client && quic::looks_like_initial(d.payload)) {
      unprotect_initial(d, key, flow, id_e, t, spans, initial_keys);
    } else if (d.tcp && from_client && !d.payload.empty()) {
      h.tcp_stream.insert(h.tcp_stream.end(), d.payload.begin(),
                          d.payload.end());
    }
    if (!h.extractor.complete()) return;

    // tls.parse on exactly the bytes the extractor completed on.
    const Bytes stream = flow.transport == Transport::Tcp
                             ? h.tcp_stream
                             : h.crypto.contiguous_prefix();
    const std::uint32_t id_t = spans.next_id();
    const std::uint64_t p0 = now_ns();
    const auto chlo = flow.transport == Transport::Tcp
                          ? tls::ClientHello::parse_record(stream)
                          : tls::ClientHello::parse_handshake(stream);
    const std::uint64_t p1 = now_ns();
    spans.record(id_t, Layer::TlsParse, p0, p1, id_e, flow.id);
    t.tls_parse.add(static_cast<double>(p1 - p0));
    if (!chlo) throw std::runtime_error("completed handshake does not reparse");
    Calls& per_flow = flow.transport == Transport::Tcp ? t.extract_tcp_flow
                                                        : t.extract_quic_flow;
    per_flow.add(flow.extract_ns);

    const core::FlowHandshake& hs = *h.extractor.handshake();
    const auto provider = pipeline::provider_from_sni(h.extractor.sni());
    if (provider) classify(hs, *provider, flow, id_p, t, spans, rows);
    flow.handshake.reset();
  }

  void unprotect_initial(const net::DecodedPacket& d, const net::FlowKey& key,
                         MirrorFlow& flow, std::uint32_t id_e, WalkTotals& t,
                         SpanLog& spans,
                         std::vector<net::FlowKey>* initial_keys) {
    const std::uint32_t id_u = spans.next_id();
    const std::uint64_t u0 = now_ns();
    const auto initial = quic::unprotect_client_initial(d.payload);
    const std::uint64_t u1 = now_ns();
    spans.record(id_u, Layer::Unprotect, u0, u1, id_e, flow.id);
    t.unprotect.add(static_cast<double>(u1 - u0));
    if (!initial) return;
    if (initial_keys) initial_keys->push_back(key);
    flow.handshake->crypto.add(*initial);

    const std::uint32_t id_k = spans.next_id();
    const std::uint64_t k0 = now_ns();
    const quic::InitialKeys keys =
        quic::derive_client_initial_keys(initial->dcid);
    const std::uint64_t k1 = now_ns();
    spans.record(id_k, Layer::InitialKeys, k0, k1, id_u, flow.id);
    t.initial_keys.add(static_cast<double>(k1 - k0));

    // An Initial-sized payload (the datagram less 64 bytes of header room)
    // sealed with this flow's key; only the open is timed.
    const crypto::Aes128Gcm gcm(keys.key);
    const std::size_t size = d.payload.size() > 64 ? d.payload.size() - 64 : 0;
    const ByteView body = d.payload.subspan(0, size);
    const Bytes plaintext(body.begin(), body.end());
    const ByteView aad =
        d.payload.subspan(0, std::min<std::size_t>(32, d.payload.size()));
    const Bytes sealed = gcm.seal(keys.iv, aad, plaintext);
    const std::uint32_t id_a = spans.next_id();
    const std::uint64_t a0 = now_ns();
    const auto opened = gcm.open(keys.iv, aad, sealed);
    const std::uint64_t a1 = now_ns();
    spans.record(id_a, Layer::AeadOpen, a0, a1, id_u, flow.id);
    t.aead_open.add(static_cast<double>(a1 - a0));
    if (!opened || *opened != plaintext)
      throw std::runtime_error("AEAD open failed on a freshly sealed payload");
  }

  void classify(const core::FlowHandshake& hs, fingerprint::Provider provider,
                const MirrorFlow& flow, std::uint32_t id_p, WalkTotals& t,
                SpanLog& spans, BatchRows* rows) {
    const pipeline::ClassifierBank& bank = *setup_.bank;
    const std::uint32_t id_c = spans.next_id();
    const std::uint64_t c0 = now_ns();
    const pipeline::PlatformPrediction prediction = bank.classify(hs, provider);
    const std::uint64_t c1 = now_ns();
    spans.record(id_c, Layer::Classify, c0, c1, id_p, flow.id);
    t.classify.add(static_cast<double>(c1 - c0));
    ++t.classified;

    const pipeline::ClassifierBank::Scenario* s =
        bank.scenario(provider, hs.transport);
    if (!s) return;
    features_.resize(s->encoder.dimension());
    const std::uint32_t id_n = spans.next_id();
    const std::uint64_t n0 = now_ns();
    s->encoder.transform_into(hs, raw_, features_);
    const std::uint64_t n1 = now_ns();
    spans.record(id_n, Layer::Encode, n0, n1, id_c, flow.id);
    t.encode.add(static_cast<double>(n1 - n0));

    // The forest calls classify makes: the composite forest, plus the
    // device and agent forests when the composite is under the threshold.
    const std::uint32_t id_f = spans.next_id();
    const std::uint64_t f0 = now_ns();
    const auto [cls, confidence] =
        s->platform_compiled.predict_with_confidence(features_, forest_);
    const bool fallback = confidence < bank.confidence_threshold();
    if (fallback) {
      s->device_compiled.predict_with_confidence(features_, forest_);
      s->agent_compiled.predict_with_confidence(features_, forest_);
    }
    const std::uint64_t f1 = now_ns();
    spans.record(id_f, Layer::Forest, f0, f1, id_c, flow.id);
    t.forest.add(static_cast<double>(f1 - f0));
    if (fallback) ++t.fallback;
    if (confidence != prediction.platform_confidence)
      throw std::runtime_error("forest confidence differs from classify");
    (void)cls;
    if (rows) {
      std::vector<double>& r = rows->rows(s);
      r.insert(r.end(), features_.begin(), features_.end());
    }
  }

  const Setup& setup_;
  Gate& gate_;
  core::RawAttrs raw_;
  std::vector<double> features_;
  ml::CompiledForest::Scratch forest_;
};

/// ReplayDriver::replay into an empty sink: the pcap reader, L2 shim and
/// frame copy alone. Returns ns per frame.
double capture_pass(const Capture& capture,
                    const capture::ReplayOptions& replay) {
  capture::ReplayDriver driver(replay);
  const std::uint64_t t0 = now_ns();
  const capture::ReplayStats stats =
      driver.replay(capture.image, [](net::Packet&&) {});
  const std::uint64_t t1 = now_ns();
  return stats.frames ? static_cast<double>(t1 - t0) /
                            static_cast<double>(stats.frames)
                      : 0.0;
}

struct DispatchTotals {
  Calls dispatch;
  std::vector<double> busy_share, drain_ms;
};

/// ShardedPipeline with each dispatcher-thread on_packet call timed, and
/// the wait inside the final flush_all.
void sharded_traced_pass(const Setup& setup, Gate& gate, DispatchTotals& t,
                         const std::vector<net::FlowKey>& initial_keys,
                         std::vector<double>* shard_skew) {
  const Workload& w = setup.workload;
  telemetry::SessionStore store;
  PassResult pass;
  {
    pipeline::ShardedPipeline pipe(&*setup.bank,
                                   sharded_options(setup.workers));
    pipe.set_sink(
        [&store](telemetry::SessionRecord r) { store.insert(std::move(r)); });
    double dispatch_ns = 0;
    const std::uint64_t start = now_ns();
    const capture::ReplayStats stats =
        replay_feeding(w.main, w.replay, pipe, [&](net::Packet&& p) {
          const std::uint64_t a = now_ns();
          pipe.on_packet(std::move(p));
          const double d = static_cast<double>(now_ns() - a);
          t.dispatch.add(d);
          dispatch_ns += d;
        });
    const std::uint64_t d0 = now_ns();
    pipe.flush_all();
    const std::uint64_t end = now_ns();
    t.drain_ms.push_back(static_cast<double>(end - d0) / 1e6);
    t.busy_share.push_back(dispatch_ns / static_cast<double>(end - start));
    pass.frames = stats.frames;
    pass.stats = pipe.stats();
    if (shard_skew && !initial_keys.empty()) {
      std::vector<double> per_shard(
          static_cast<std::size_t>(pipe.shard_count()));
      for (const net::FlowKey& key : initial_keys)
        per_shard[pipe.shard_of(key)] += 1;
      const double mean = static_cast<double>(initial_keys.size()) /
                          static_cast<double>(per_shard.size());
      shard_skew->push_back(
          *std::max_element(per_shard.begin(), per_shard.end()) / mean);
    }
  }
  pass.records = store.records();
  gate.check(w.main, pass, "traced sharded", true);
}

/// predict_with_confidence_batch over chunks of the sharded batch size, on
/// the walk's own feature rows; one duration per chunk.
void forest_batches(const BatchRows& rows, Calls& out) {
  ml::CompiledForest::BatchScratch scratch;
  std::vector<int> labels(kForestBatch);
  std::vector<double> confidences(kForestBatch);
  for (const auto& [scenario, matrix] : rows.by_scenario) {
    const std::size_t dim = scenario->encoder.dimension();
    const std::size_t chunk = kForestBatch * dim;
    for (std::size_t at = 0; at + chunk <= matrix.size(); at += chunk) {
      const std::uint64_t a = now_ns();
      scenario->platform_compiled.predict_with_confidence_batch(
          std::span<const double>(matrix).subspan(at, chunk), dim, labels,
          confidences, scratch);
      out.add(static_cast<double>(now_ns() - a));
    }
  }
}

/// RSS growth of one plain single-thread pass over the peak number of
/// tracked flows.
double bytes_per_flow(const Setup& setup, Gate& gate, std::size_t* peak_out) {
  const Workload& w = setup.workload;
  trim_and_reset_peak_rss();
  const std::uint64_t before = current_rss_bytes();
  std::size_t peak = 0;
  telemetry::SessionStore store;
  PassResult pass;
  {
    pipeline::VideoFlowPipeline pipe(&*setup.bank);
    pipe.set_sink(
        [&store](telemetry::SessionRecord r) { store.insert(std::move(r)); });
    const capture::ReplayStats stats =
        replay_feeding(w.main, w.replay, pipe, [&](net::Packet&& p) {
          pipe.on_packet(std::move(p));
          peak = std::max(peak, pipe.active_flows());
        });
    pipe.flush_all();
    pass.frames = stats.frames;
    pass.stats = pipe.stats();
  }
  const std::uint64_t after = peak_rss_bytes();
  pass.records = store.records();
  gate.check(w.main, pass, "rss single", false);
  *peak_out = peak;
  return peak ? static_cast<double>(after > before ? after - before : 0) /
                    static_cast<double>(peak)
              : 0.0;
}

double median(const std::vector<double>& v) { return summarize(v).median; }

}  // namespace

int run_traced(Setup& setup, const std::string& span_file) {
  const Workload& w = setup.workload;
  Gate gate;

  std::vector<double> bank_load_ms;
  for (int i = 0; i < kBankLoadRepetitions; ++i) {
    const std::uint64_t a = now_ns();
    const auto bank = pipeline::deserialize_bank(setup.bank_bytes);
    bank_load_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
    if (!bank) throw std::runtime_error("model bundle rejected on reload");
  }

  // Warm-up (discarded), then the RSS-per-flow pass on a quiet heap.
  gate.check(w.main, single_pass(*setup.bank, w.main, w.replay),
             "warm-up single", false);
  std::size_t peak_flows = 0;
  const double flow_bytes = bytes_per_flow(setup, gate, &peak_flows);

  Walker walker(setup, gate);
  WalkTotals main, probe;
  SpanLog log;
  BatchRows rows;
  std::vector<net::FlowKey> initial_keys;
  DispatchTotals dispatch;
  Calls forest_batch;
  std::vector<double> capture_ns, shard_skew, profile_overhead, plain_seconds;
  std::vector<double> sharded_mpps, sharded_cpus;

  const std::uint64_t start = now_ns();
  for (std::size_t cycle = 0;; ++cycle) {
    const bool first = cycle == 0;
    capture_ns.push_back(capture_pass(w.main, w.replay));
    walker.walk(w.main, main, first ? &log : nullptr, first ? &rows : nullptr,
                first ? &initial_keys : nullptr, "traced walk");
    log.stop();
    if (w.verdict_probe)
      walker.walk(*w.verdict_probe, probe, nullptr, nullptr, nullptr,
                  "traced probe walk");
    sharded_traced_pass(setup, gate, dispatch, initial_keys,
                        first ? &shard_skew : nullptr);
    const double cpu0 = process_cpu_seconds();
    const PassResult many =
        sharded_pass(*setup.bank, w.main, w.replay, setup.workers);
    sharded_cpus.push_back((process_cpu_seconds() - cpu0) / many.seconds);
    sharded_mpps.push_back(static_cast<double>(many.frames) / many.seconds /
                           1e6);
    gate.check(w.main, many, "sharded", true);
    forest_batches(rows, forest_batch);

    // Profiling on vs off in alternating order: the overhead of a cycle is
    // 1 - (profiled Mpps / plain Mpps).
    obs::ObsConfig profiled;
    profiled.profile_stages = true;
    const bool plain_first = cycle % 2 == 0;
    PassResult a = single_pass(*setup.bank, w.main, w.replay,
                               plain_first ? obs::ObsConfig{} : profiled);
    PassResult b = single_pass(*setup.bank, w.main, w.replay,
                               plain_first ? profiled : obs::ObsConfig{});
    gate.check(w.main, a, "profile pair", false);
    gate.check(w.main, b, "profile pair", false);
    const PassResult& plain = plain_first ? a : b;
    const PassResult& with = plain_first ? b : a;
    profile_overhead.push_back(1.0 - plain.seconds / with.seconds);
    plain_seconds.push_back(plain.seconds);

    const double elapsed = seconds_between(start, now_ns());
    if ((elapsed >= setup.seconds && cycle + 1 >= kMinCycles) ||
        elapsed >= setup.seconds + kMaxOvertimeSeconds)
      break;
  }
  const bool spans_written = log.write(span_file, w.name);

  // Per-call medians; where the workload has no such call (client Initials
  // on tcp_churn) the time comes from the verdict probe's walk, while the
  // call count stays the workload's own.
  const auto per_call = [&](const Calls WalkTotals::*member, double scale) {
    const Calls& c = main.*member;
    const Calls& fallback = probe.*member;
    return (c.count() ? c.median_ns() : fallback.median_ns()) / scale;
  };
  const double walks = static_cast<double>(main.walk_seconds.size());
  const auto per_walk = [walks](std::uint64_t n) {
    return static_cast<double>(n) / walks;
  };

  // Self-time budget of the single-thread walks (ns, summed over walks).
  const double capture_total =
      median(capture_ns) * static_cast<double>(main.packets);
  // Children timed apart from their parent can sum to more than it; the
  // parent's time is what the pipeline spends, so it caps theirs.
  const double crypto_self =
      std::min(main.unprotect.total_ns,
               main.initial_keys.total_ns + main.aead_open.total_ns);
  const double quic_self = main.unprotect.total_ns - crypto_self;
  const double core_self =
      std::max(0.0, main.extract.total_ns - main.unprotect.total_ns -
                        main.tls_parse.total_ns) +
      main.encode.total_ns;
  const double on_packet_self =
      main.on_packet.total_ns - main.decode.total_ns - main.extract.total_ns -
      main.classify.total_ns - main.insert_in_on_packet_ns;
  const double classify_self = std::max(
      0.0,
      main.classify.total_ns - main.encode.total_ns - main.forest.total_ns);
  const double flush_self = std::max(
      0.0, main.flush.total_ns -
               (main.insert.total_ns - main.insert_in_on_packet_ns));
  const double pipeline_self =
      std::max(0.0, on_packet_self) + classify_self + flush_self;
  const std::vector<std::pair<std::string, double>> budget = {
      {"capture", capture_total},
      {"net", main.decode.total_ns},
      {"quic", quic_self},
      {"crypto", crypto_self},
      {"tls", main.tls_parse.total_ns},
      {"core", core_self},
      {"ml", main.forest.total_ns},
      {"pipeline", pipeline_self},
      {"telemetry", main.insert.total_ns},
  };
  double budget_total = 0;
  for (const auto& [layer, ns] : budget) budget_total += ns;
  const double handshake_total = quic_self + crypto_self +
                                 main.tls_parse.total_ns + core_self +
                                 main.forest.total_ns + classify_self;

  std::vector<Metric> metrics = {
      {"capture.read_ns", median(capture_ns), "ns"},
      {"capture.frames", per_walk(main.packets), "count"},
      {"net.decode_ns", main.decode.median_ns(), "ns"},
      {"net.decode_calls", per_walk(main.decode.count()), "count"},
      {"quic.unprotect_us", per_call(&WalkTotals::unprotect, 1e3), "us"},
      {"quic.unprotect_calls", per_walk(main.unprotect.count()), "count"},
      {"crypto.initial_keys_us", per_call(&WalkTotals::initial_keys, 1e3),
       "us"},
      {"crypto.initial_keys_calls", per_walk(main.initial_keys.count()),
       "count"},
      {"crypto.aead_open_us", per_call(&WalkTotals::aead_open, 1e3), "us"},
      {"crypto.aead_open_calls", per_walk(main.aead_open.count()), "count"},
      {"tls.parse_us", per_call(&WalkTotals::tls_parse, 1e3), "us"},
      {"tls.parse_calls", per_walk(main.tls_parse.count()), "count"},
      {"core.extract_tcp_us", per_call(&WalkTotals::extract_tcp_flow, 1e3),
       "us"},
      {"core.extract_tcp_flows", per_walk(main.extract_tcp_flow.count()),
       "count"},
      {"core.extract_quic_us", per_call(&WalkTotals::extract_quic_flow, 1e3),
       "us"},
      {"core.extract_quic_flows", per_walk(main.extract_quic_flow.count()),
       "count"},
      {"core.encode_us", main.encode.median_ns() / 1e3, "us"},
      {"core.encode_calls", per_walk(main.encode.count()), "count"},
      {"ml.forest_us", main.forest.median_ns() / 1e3, "us"},
      {"ml.forest_flows", per_walk(main.forest.count()), "count"},
      {"ml.forest_batch_us", forest_batch.median_ns() / kForestBatch / 1e3,
       "us"},
      {"ml.forest_batch_rows",
       static_cast<double>(forest_batch.count() * kForestBatch) /
           static_cast<double>(plain_seconds.size()), "count"},
      {"pipeline.classify_us", main.classify.median_ns() / 1e3, "us"},
      {"pipeline.classify_calls", per_walk(main.classify.count()), "count"},
      {"pipeline.fallback_ratio",
       main.classified ? static_cast<double>(main.fallback) /
                             static_cast<double>(main.classified)
                       : 0.0, "ratio"},
      {"pipeline.open_ns", main.open.median_ns(), "ns"},
      {"pipeline.open_calls", per_walk(main.open.count()), "count"},
      {"pipeline.payload_ns", main.payload.median_ns(), "ns"},
      {"pipeline.payload_calls", per_walk(main.payload.count()), "count"},
      {"pipeline.flush_ms", main.flush.median_ns() / 1e6, "ms"},
      {"pipeline.self_share",
       main.on_packet.total_ns > 0 ? on_packet_self / main.on_packet.total_ns
                                   : 0.0, "ratio"},
      {"pipeline.allocs_per_packet",
       main.packets ? static_cast<double>(main.allocations) /
                          static_cast<double>(main.packets)
                    : 0.0, "count"},
      {"pipeline.bytes_per_flow", flow_bytes, "B"},
      {"pipeline.peak_flows", static_cast<double>(peak_flows), "count"},
      {"pipeline.bank_load_ms", median(bank_load_ms), "ms"},
      {"pipeline.sharded_mpps", median(sharded_mpps), "Mpps"},
      {"pipeline.sharded_cpus", median(sharded_cpus), "count"},
      {"pipeline.dispatch_ns", dispatch.dispatch.median_ns(), "ns"},
      {"pipeline.dispatcher_busy_share", median(dispatch.busy_share), "ratio"},
      {"pipeline.drain_ms", median(dispatch.drain_ms), "ms"},
      {"pipeline.quic_shard_skew", shard_skew.empty() ? 0.0 : shard_skew[0],
       "ratio"},
      {"telemetry.insert_ns", main.insert.median_ns(), "ns"},
      {"telemetry.insert_calls", per_walk(main.insert.count()), "count"},
      {"obs.profile_overhead_share", median(profile_overhead), "ratio"},
      {"obs.trace_walk_cost_ratio",
       median(main.walk_seconds) / median(plain_seconds), "ratio"},
  };
  for (const auto& [layer, ns] : budget)
    metrics.push_back({"budget." + layer + "_share",
                       budget_total > 0 ? ns / budget_total : 0.0, "ratio"});
  metrics.push_back({"budget.handshake_share",
                     budget_total > 0 ? handshake_total / budget_total : 0.0,
                     "ratio"});

  std::printf("perfbench traced %s seed=%llu workers=%d walks=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              setup.workers, main.walk_seconds.size());
  for (const Metric& m : metrics)
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("header %s\n", render_run_header(setup).c_str());
  std::printf("counts %s\n",
              JsonObject()
                  .raw("inputs", render_input_counts(setup))
                  .integer("client_initials_walked", initial_keys.size())
                  .render()
                  .c_str());
  std::printf("spans %s\n",
              JsonObject()
                  .str("file", span_file)
                  .boolean("written", spans_written)
                  .integer("kept", log.kept())
                  .integer("not_kept", log.dropped())
                  .render()
                  .c_str());
  for (const std::string& message : gate.messages())
    std::printf("FAIL %s\n", message.c_str());
  const bool correct = gate.failed() == 0 && spans_written;
  std::printf("%s\n",
              render_result(correct, gate.attempted(), gate.failed(), metrics)
                  .c_str());
  return 0;
}

}  // namespace perfbench
