// Live introspection plane suite (ctest -L introspect; DESIGN.md §5k):
// causal span rings and parent chaining, the one flow-sampling decision,
// the Chrome trace_event exporter's golden key set (spans and lifecycle
// instants), the span acceptance scenario (one sampled flow's
// spans crossing >= 2 shards and a mid-run model swap without perturbing
// classification), the embedded scrape server's loopback endpoints and
// threat-model rejections (431/408/405/404/400), a 50k-mutant sweep over
// the pure HTTP request parser (whole-binary in the ASan `fuzz` lane), a
// server start/stop storm (whole-binary in the TSan `concurrency` lane),
// the perf-counter graceful fallback, and the flight recorder's postmortem
// document.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campus/overload.hpp"
#include "fuzz/mutator.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/perf_counters.hpp"
#include "obs/pipeline_obs.hpp"
#include "obs/span.hpp"
#include "pipeline/model_lifecycle.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"
#include "synth/flow_synthesizer.hpp"

namespace vpscope::obs {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;

// ---------------------------------------------------------------------------
// Span rings and parent chaining
// ---------------------------------------------------------------------------

TEST(SpanRing, IdsAreSlotTaggedAndUnique) {
  SpanRing ring3(8, 3);
  SpanRing ring7(8, 7);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.insert(ring3.record(SpanKind::Parse, 42, 0, 100, 200, 0));
    ids.insert(ring7.record(SpanKind::Queue, 42, 0, 100, 200, 0));
  }
  EXPECT_EQ(ids.size(), 16u) << "ids collide across rings";
  for (const std::uint64_t id : ids) {
    const std::uint64_t slot_bits = id >> 40;
    EXPECT_TRUE(slot_bits == 4 || slot_bits == 8)
        << "id must embed slot+1: " << id;
    EXPECT_NE(id & ((std::uint64_t{1} << 40) - 1), 0u);
  }
}

TEST(SpanRing, OverwritesOldestAtCapacity) {
  SpanRing ring(4, 0);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.record(SpanKind::Extract, i, 0, i * 100, i * 100 + 50, 0);
  const std::vector<Span> spans = ring.drain_copy();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and only the newest four survive.
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].flow_hash, 6 + i);
}

// PipelineObs::span_sampled is the one sampling decision: a pure function
// of (flow hash, N), so two bundles with the same N agree on every flow —
// the property that makes two runs over the same traffic trace the same
// flows. It reads the hash's high half; the low bits pick the shard.
TEST(SpanRing, SamplingIsDeterministicOneInN) {
  ObsConfig config;
  config.span_sample_n = 4;
  const PipelineObs quarter(2, config);
  const PipelineObs quarter2(2, config);
  config.span_sample_n = 1;
  const PipelineObs every(2, config);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t hash = i << 32 | (i * 0x9e3779b9u & 0xffffffffu);
    EXPECT_EQ(quarter.span_sampled(hash), i % 4 == 0) << hash;
    EXPECT_EQ(quarter.span_sampled(hash), quarter2.span_sampled(hash));
    EXPECT_TRUE(every.span_sampled(hash));
  }
  const PipelineObs off(2, {});
  EXPECT_FALSE(off.span_sampled(0));
}

TEST(SpanScope, ChainsParentLinksAcrossSequentialScopes) {
  SpanRing ring(16, 2);
  SpanScratch scratch;
  scratch.ring = &ring;
  scratch.flow_hash = 99;
  scratch.parent = 0;
  scratch.model_gen = 5;
  { SpanScope extract(&scratch, SpanKind::Extract); }
  const std::uint64_t extract_id = scratch.last_id;
  EXPECT_NE(extract_id, 0u);
  EXPECT_EQ(scratch.parent, extract_id);
  { SpanScope encode(&scratch, SpanKind::Encode); }
  { SpanScope classify(&scratch, SpanKind::Classify); }

  const std::vector<Span> spans = ring.drain_copy();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kind, SpanKind::Extract);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].kind, SpanKind::Encode);
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_EQ(spans[2].kind, SpanKind::Classify);
  EXPECT_EQ(spans[2].parent_id, spans[1].span_id);
  for (const Span& s : spans) {
    EXPECT_EQ(s.flow_hash, 99u);
    EXPECT_EQ(s.model_gen, 5u);
    EXPECT_EQ(s.slot, 2);
  }
  // A null scratch is a no-op (the tracing-off hot path).
  { SpanScope noop(nullptr, SpanKind::Sink); }
  EXPECT_EQ(ring.size(), 3u);
}

// ---------------------------------------------------------------------------
// Chrome trace_event exporter: the golden key set
// ---------------------------------------------------------------------------

TEST(ChromeTrace, GoldenRequiredKeys) {
  Span extract;
  extract.span_id = (std::uint64_t{1} << 40) | 1;
  extract.parent_id = 0;
  extract.flow_hash = 42;
  extract.start_ns = 1'000'500;
  extract.dur_ns = 2'250;
  extract.model_gen = 1;
  extract.slot = 0;
  extract.kind = SpanKind::Extract;
  Span classify = extract;
  classify.span_id = (std::uint64_t{1} << 40) | 2;
  classify.parent_id = extract.span_id;
  classify.start_ns = 1'003'000;
  classify.kind = SpanKind::Classify;
  Span other;  // second flow: its own synthesized root
  other.span_id = (std::uint64_t{3} << 40) | 1;
  other.flow_hash = 7;
  other.start_ns = 2'000'000;
  other.dur_ns = 100;
  other.slot = 2;
  other.kind = SpanKind::Sink;

  const std::string json = chrome_trace_json({extract, classify, other});
  EXPECT_TRUE(json_valid(json)) << json;
  // The exact keys Perfetto / chrome://tracing load: "X" complete events
  // with microsecond ts/dur, pid/tid, and the vpscope args.
  for (const char* key :
       {"\"displayTimeUnit\":\"ms\"", "\"traceEvents\":[", "\"ph\":\"X\"",
        "\"cat\":\"vpscope\"", "\"pid\":1", "\"tid\":0", "\"tid\":2",
        "\"ts\":", "\"dur\":", "\"name\":\"flow\"", "\"name\":\"extract\"",
        "\"name\":\"classify\"", "\"name\":\"sink\"", "\"args\":{\"flow\":",
        "\"span\":", "\"parent\":", "\"model_gen\":1"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // ts in microseconds with the nanosecond fraction: 1000500 ns -> 1000.500.
  EXPECT_NE(json.find("\"ts\":1000.500"), std::string::npos);
  // One synthesized root per flow, and parentless spans attach to it.
  std::size_t roots = 0;
  for (std::size_t pos = json.find("\"name\":\"flow\"");
       pos != std::string::npos; pos = json.find("\"name\":\"flow\"", pos + 1))
    ++roots;
  EXPECT_EQ(roots, 2u) << "one synthesized root per flow hash";

  // One instant of each lifecycle kind: a thread-scoped "i" event with no
  // dur, its detail in args.
  std::vector<Span> with_instants = {extract, classify, other};
  const std::pair<SpanKind, std::string> instants[] = {
      {SpanKind::Admitted, ""},
      {SpanKind::Rejected, ""},
      {SpanKind::Evicted, ""},
      {SpanKind::Shed, "\"class\":\"payload\""},
      {SpanKind::Classified,
       "\"os\":\"iOS\",\"agent\":\"Safari\",\"composite\":true,"
       "\"confidence\":0.7500"},
      {SpanKind::Finalized, ""},
      {SpanKind::Stranded, "\"shard\":3"},
      {SpanKind::Recovered, "\"shard\":3"},
  };
  std::uint64_t seq = 10;
  for (const auto& [kind, detail] : instants) {
    Span event;
    event.span_id = (std::uint64_t{1} << 40) | ++seq;
    event.parent_id = extract.span_id;
    event.flow_hash = 42;
    event.start_ns = 1'010'000 + seq;
    event.kind = kind;
    if (kind == SpanKind::Shed) event.detail = 1;  // AdmissionClass::Payload
    if (kind == SpanKind::Classified) {
      event.os = static_cast<std::uint8_t>(fingerprint::Os::IOS);
      event.agent = static_cast<std::uint8_t>(fingerprint::Agent::Safari);
      event.composite = true;
      event.confidence = 0.75f;
    }
    if (kind == SpanKind::Stranded || kind == SpanKind::Recovered) {
      event.flow_hash = 0;  // shard-level
      event.parent_id = 0;
      event.detail = 3;
    }
    with_instants.push_back(event);
  }
  const std::string instant_json = chrome_trace_json(with_instants);
  EXPECT_TRUE(json_valid(instant_json)) << instant_json;
  for (const auto& [kind, detail] : instants) {
    const std::string name =
        "{\"name\":\"" + std::string(span_kind_name(kind)) + "\"";
    const std::size_t pos = instant_json.find(name);
    ASSERT_NE(pos, std::string::npos) << name;
    const std::string event =
        instant_json.substr(pos, instant_json.find("}}", pos) - pos);
    EXPECT_NE(event.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos)
        << event;
    EXPECT_EQ(event.find("\"dur\""), std::string::npos) << event;
    EXPECT_NE(event.find("\"args\":{\"flow\":"), std::string::npos) << event;
    if (!detail.empty())
      EXPECT_NE(event.find(detail), std::string::npos) << event;
  }
  // The shard-level instants belong to no flow: still two roots.
  roots = 0;
  for (std::size_t pos = instant_json.find("\"name\":\"flow\"");
       pos != std::string::npos;
       pos = instant_json.find("\"name\":\"flow\"", pos + 1))
    ++roots;
  EXPECT_EQ(roots, 2u);
}

TEST(ChromeTrace, EmptySpanSetIsStillValidJson) {
  const std::string json = chrome_trace_json({});
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ChromeTrace, OutputIsStableAcrossInputOrder) {
  std::vector<Span> spans;
  for (std::uint64_t i = 0; i < 12; ++i) {
    Span s;
    s.span_id = (std::uint64_t{1} << 40) | (i + 1);
    s.flow_hash = i % 3;
    s.start_ns = 1000 * (12 - i);
    s.dur_ns = 10;
    s.kind = SpanKind::Queue;
    spans.push_back(s);
  }
  const std::string a = chrome_trace_json(spans);
  std::reverse(spans.begin(), spans.end());
  EXPECT_EQ(a, chrome_trace_json(spans));
}

// ---------------------------------------------------------------------------
// Shared traffic + bank fixture
// ---------------------------------------------------------------------------

pipeline::BankParams small_params(std::uint64_t seed) {
  pipeline::BankParams params;
  params.forest = {.n_trees = 12, .max_depth = 12, .min_samples_split = 4,
                   .max_features = 20, .bootstrap = true, .seed = seed};
  return params;
}

class IntrospectTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 0.35));
    bank_a_ = std::make_shared<pipeline::ClassifierBank>();
    bank_a_->train(*lab_, small_params(1));
    bank_b_ = std::make_shared<pipeline::ClassifierBank>();
    bank_b_->train(*lab_, small_params(7));
  }
  static void TearDownTestSuite() {
    delete lab_;
    lab_ = nullptr;
    bank_a_.reset();
    bank_b_.reset();
  }

  static synth::Dataset* lab_;
  static std::shared_ptr<pipeline::ClassifierBank> bank_a_;
  static std::shared_ptr<pipeline::ClassifierBank> bank_b_;
};

synth::Dataset* IntrospectTest::lab_ = nullptr;
std::shared_ptr<pipeline::ClassifierBank> IntrospectTest::bank_a_;
std::shared_ptr<pipeline::ClassifierBank> IntrospectTest::bank_b_;

/// Interleaved multi-scenario packet mix (same shape as the sharded suite).
std::vector<net::Packet> interleaved_mix(int flows, std::uint64_t seed) {
  struct Case {
    Provider provider;
    Transport transport;
  };
  static const std::vector<Case> cases = {
      {Provider::YouTube, Transport::Tcp},
      {Provider::YouTube, Transport::Quic},
      {Provider::Netflix, Transport::Tcp},
      {Provider::Disney, Transport::Tcp},
      {Provider::Amazon, Transport::Tcp},
  };
  Rng rng(seed);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c = cases[static_cast<std::size_t>(i) % cases.size()];
    const auto platforms = fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()], c.provider,
        c.transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i % 40) * 1500;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return packets;
}

/// Full record identity (classification + telemetry), for bit-identity
/// comparisons between tracing-on and tracing-off runs.
std::string record_fingerprint(const telemetry::SessionRecord& r) {
  std::ostringstream os;
  os.precision(17);
  os << static_cast<int>(r.provider) << '|' << static_cast<int>(r.transport)
     << '|' << static_cast<int>(r.outcome) << '|';
  if (r.platform)
    os << static_cast<int>(r.platform->os) << ','
       << static_cast<int>(r.platform->agent);
  os << '|';
  if (r.device) os << static_cast<int>(*r.device);
  os << '|';
  if (r.agent) os << static_cast<int>(*r.agent);
  os << '|' << r.sni << '|' << r.confidence << '|' << r.counters.first_us
     << '|' << r.counters.last_us << '|' << r.counters.bytes_down << '|'
     << r.counters.bytes_up;
  return os.str();
}

// ---------------------------------------------------------------------------
// The ISSUE-10 acceptance scenario
// ---------------------------------------------------------------------------

// An 8-shard run with span tracing on every flow, straddling a mid-run model
// swap. The exported spans must cover the full capture -> dispatch -> queue
// -> extract -> encode -> classify -> sink path, land on >= 2 shard
// timelines, carry both model generations, and chain every parent link to a
// recorded span — while classification stays bit-identical to a tracing-off
// run of the same traffic.
TEST_F(IntrospectTest, AcceptanceSpansCrossShardsAndSurviveModelSwap) {
  const auto packets_a = interleaved_mix(10, 11);
  const auto packets_b = interleaved_mix(10, 23);

  // Tracing-off references, one per generation: packets_a classifies under
  // bank A (model_gen 1), packets_b under bank B (model_gen 2).
  std::multiset<std::string> expected;
  for (const auto& [bank, packets] :
       {std::pair{bank_a_.get(), &packets_a},
        std::pair{bank_b_.get(), &packets_b}}) {
    pipeline::VideoFlowPipeline reference(bank);
    reference.set_sink([&](telemetry::SessionRecord r) {
      expected.insert(record_fingerprint(r));
    });
    for (const auto& packet : *packets) reference.on_packet(packet);
    reference.flush_all();
  }
  ASSERT_GE(expected.size(), 10u);

  pipeline::ModelLifecycle lifecycle(bank_a_, 8);
  pipeline::ShardedPipelineOptions options;
  options.n_shards = 8;
  options.queue_capacity = 256;
  options.lifecycle = &lifecycle;
  options.obs.span_sample_n = 1;  // span every flow
  // Every packet of a spanned flow records spans; size the rings so nothing
  // is evicted and the parent-chain check below is exact.
  options.obs.span_ring_capacity = std::size_t{1} << 16;
  pipeline::ShardedPipeline sharded(bank_a_.get(), options);
  std::multiset<std::string> seen;
  std::mutex seen_mutex;
  sharded.set_sink([&](telemetry::SessionRecord r) {
    const std::lock_guard<std::mutex> lock(seen_mutex);
    seen.insert(record_fingerprint(r));
  });

  // First half under generation 1, with the capture mark the replay
  // front-end takes (so Capture spans exist); flush; swap; second half
  // under generation 2.
  for (const auto& packet : packets_a) {
    sharded.mark_capture_start();
    sharded.on_packet(packet);
  }
  sharded.flush_all();
  lifecycle.swap_to(bank_b_);
  ASSERT_TRUE(lifecycle.wait_all_adopted(5'000'000));
  for (const auto& packet : packets_b) {
    sharded.mark_capture_start();
    sharded.on_packet(packet);
  }
  sharded.flush_all();

  // Bit-identical classification: the traced sharded run produced exactly
  // the reference record set.
  EXPECT_EQ(seen, expected);

  const std::vector<Span> spans = sharded.observability().recent_spans(0);
  ASSERT_FALSE(spans.empty());

  // Full path coverage, >= 2 shard timelines, both model generations.
  std::set<SpanKind> kinds;
  std::set<int> shard_slots;
  std::set<std::uint64_t> classify_gens;
  std::set<std::uint64_t> ids;
  for (const Span& s : spans) {
    kinds.insert(s.kind);
    ids.insert(s.span_id);
    if (s.kind == SpanKind::Queue || s.kind == SpanKind::Extract ||
        s.kind == SpanKind::Classify)
      shard_slots.insert(s.slot);
    if (s.kind == SpanKind::Classify) classify_gens.insert(s.model_gen);
  }
  for (const SpanKind kind :
       {SpanKind::Capture, SpanKind::Dispatch, SpanKind::Queue,
        SpanKind::Extract, SpanKind::Encode, SpanKind::Classify,
        SpanKind::Sink})
    EXPECT_TRUE(kinds.count(kind))
        << "missing stage: " << span_kind_name(kind);
  EXPECT_GE(shard_slots.size(), 2u) << "spans must cross >= 2 shards";
  EXPECT_TRUE(classify_gens.count(1)) << "generation 1 classifications";
  EXPECT_TRUE(classify_gens.count(2)) << "generation 2 (post-swap)";

  // Every span is parented: either to the synthesized flow root (0) or to
  // a span that is actually in the buffer.
  for (const Span& s : spans)
    EXPECT_TRUE(s.parent_id == 0 || ids.count(s.parent_id))
        << span_kind_name(s.kind) << " span " << s.span_id
        << " references evicted/unknown parent " << s.parent_id;

  // And the whole thing exports as loadable Chrome trace JSON.
  const std::string json = chrome_trace_json(spans);
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"name\":\"capture\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sink\""), std::string::npos);
  EXPECT_NE(json.find("\"model_gen\":2"), std::string::npos);
}

// Spans off (the default): zero rings, zero ids, sampling always false —
// the hot path stays untouched.
TEST_F(IntrospectTest, SpansOffAllocatesNothing) {
  PipelineObs obs(4, {});
  EXPECT_FALSE(obs.spans_enabled());
  EXPECT_EQ(obs.span_ring(0), nullptr);
  EXPECT_EQ(obs.span_ring(4), nullptr);  // dispatcher slot
  EXPECT_FALSE(obs.span_sampled(0));
  EXPECT_TRUE(obs.recent_spans(0).empty());
}

// ---------------------------------------------------------------------------
// HTTP request parser (pure function)
// ---------------------------------------------------------------------------

TEST(HttpParser, AcceptsWellFormedRequest) {
  HttpRequest request;
  ASSERT_TRUE(parse_http_request(
      "GET /trace?n=32&x HTTP/1.1\r\nHost: localhost\r\n"
      "Accept:  text/plain \r\n\r\n",
      request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/trace");
  EXPECT_EQ(request.query, "n=32&x");
  ASSERT_EQ(request.headers.size(), 2u);
  EXPECT_EQ(request.headers[0].first, "Host");
  EXPECT_EQ(request.headers[0].second, "localhost");
  EXPECT_EQ(request.headers[1].second, "text/plain");
  EXPECT_EQ(request.query_param("n").value_or(""), "32");
  EXPECT_EQ(request.query_param("x").value_or("?"), "");
  EXPECT_FALSE(request.query_param("absent").has_value());
}

TEST(HttpParser, RejectsMalformedRequests) {
  HttpRequest request;
  const char* bad[] = {
      "",                                     // empty
      "GET /metrics HTTP/1.1",                // no CRLF at all
      "GET /metrics HTTP/1.1\r\n",            // no blank-line terminator
      "GET /metrics HTTP/2.0\r\n\r\n",        // unsupported version
      "GET  /metrics HTTP/1.1\r\n\r\n",       // empty target token
      "GET metrics HTTP/1.1\r\n\r\n",         // target must start with /
      "GET /me trics HTTP/1.1\r\n\r\n",       // space inside target
      "G@T /metrics HTTP/1.1\r\n\r\n",        // non-token method char
      "/metrics HTTP/1.1\r\n\r\n",            // missing method
      "GET /m\x01s HTTP/1.1\r\n\r\n",         // control byte in target
      "GET /m HTTP/1.1\r\n: v\r\n\r\n",       // empty header name
      "GET /m HTTP/1.1\r\nno-colon\r\n\r\n",  // header without colon
      "GET /m HTTP/1.1\r\nA: b\x01\r\n\r\n",  // control byte in value
  };
  for (const char* head : bad)
    EXPECT_FALSE(parse_http_request(head, request)) << head;

  // Header-count bomb: 101 fields is rejected.
  std::string bomb = "GET /m HTTP/1.1\r\n";
  for (int i = 0; i < 101; ++i) bomb += "H: v\r\n";
  bomb += "\r\n";
  EXPECT_FALSE(parse_http_request(bomb, request));
}

// 50k structure-aware mutants of valid scrape requests through the pure
// parser: never crashes, never reads past the head, and stays
// deterministic. Whole-binary in the ASan+UBSan `fuzz` lane.
TEST(HttpFuzz, ParserSurvives50kMutants) {
  const std::vector<std::string> seeds = {
      "GET /metrics HTTP/1.1\r\nHost: localhost:9100\r\n"
      "User-Agent: Prometheus/2.45\r\nAccept: */*\r\n\r\n",
      "GET /trace?n=4096 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Accept-Encoding: gzip\r\n\r\n",
      "GET /healthz HTTP/1.0\r\n\r\n",
      "HEAD /snapshot HTTP/1.1\r\nX-Scrape-Interval: 15\r\n"
      "Connection: close\r\n\r\n",
  };
  fuzz::Mutator mutator(0xC0FFEE);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 50'000; ++i) {
    const std::string& base = seeds[static_cast<std::size_t>(i) % seeds.size()];
    Bytes data(base.begin(), base.end());
    if (i % 4 == 0) {
      // Structure-aware step: splice a random line from another seed in at
      // a random line boundary, so mutants exercise header-field structure,
      // not just byte soup.
      const std::string& donor =
          seeds[mutator.rng().uniform(0, seeds.size() - 1)];
      std::vector<std::string> lines;
      std::size_t pos = 0;
      while (pos < donor.size()) {
        const std::size_t eol = donor.find("\r\n", pos);
        if (eol == std::string::npos) break;
        lines.push_back(donor.substr(pos, eol + 2 - pos));
        pos = eol + 2;
      }
      if (!lines.empty()) {
        const std::string& line =
            lines[mutator.rng().uniform(0, lines.size() - 1)];
        const std::size_t at = mutator.rng().uniform(0, data.size());
        data.insert(data.begin() + static_cast<std::ptrdiff_t>(at),
                    line.begin(), line.end());
      }
    }
    const Bytes mutant = mutator.mutate_bytes(std::move(data));
    const std::string_view head(reinterpret_cast<const char*>(mutant.data()),
                                mutant.size());
    HttpRequest first, second;
    const bool ok_first = parse_http_request(head, first);
    const bool ok_second = parse_http_request(head, second);
    ASSERT_EQ(ok_first, ok_second) << "parser must be deterministic";
    if (ok_first) {
      ++accepted;
      ASSERT_EQ(first.method, second.method);
      ASSERT_EQ(first.path, second.path);
      ASSERT_EQ(first.query, second.query);
      ASSERT_FALSE(first.path.empty());
      ASSERT_EQ(first.path[0], '/');
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0) << "some mutants must still parse";
  EXPECT_GT(rejected, 0) << "some mutants must be rejected";
}

// ---------------------------------------------------------------------------
// Embedded scrape server: loopback client
// ---------------------------------------------------------------------------

struct HttpReply {
  int status = -1;
  std::string head;
  std::string body;
  bool connected = false;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `raw` and reads to connection close (the server always closes).
HttpReply http_raw(std::uint16_t port, const std::string& raw) {
  HttpReply reply;
  const int fd = connect_loopback(port);
  if (fd < 0) return reply;
  reply.connected = true;
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string all;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    all.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  const std::size_t split = all.find("\r\n\r\n");
  reply.head = split == std::string::npos ? all : all.substr(0, split);
  reply.body = split == std::string::npos ? "" : all.substr(split + 4);
  if (all.rfind("HTTP/1.1 ", 0) == 0)
    reply.status = std::atoi(all.c_str() + 9);
  return reply;
}

HttpReply http_get(std::uint16_t port, const std::string& target) {
  return http_raw(port,
                  "GET " + target + " HTTP/1.1\r\nHost: loopback\r\n\r\n");
}

TEST_F(IntrospectTest, EndpointsServeLoadedShardedRun) {
  // A loaded 8-shard shedding run, so the identity has nonzero drop classes.
  campus::OverloadConfig traffic_config;
  traffic_config.legit_flows = 30;
  traffic_config.flood_flows = 2000;
  traffic_config.flood_packets_per_legit_flow = 40;
  const auto traffic = campus::make_overload_traffic(traffic_config);

  pipeline::ShardedPipelineOptions options;
  options.n_shards = 8;
  options.queue_capacity = 64;
  options.flow_table.max_flows = 256;
  options.overload = pipeline::ShardedPipelineOptions::Overload::Shed;
  options.payload_grace_us = 0;
  options.handshake_grace_us = 0;
  options.obs.profile_stages = true;
  options.obs.span_sample_n = 4;
  pipeline::ShardedPipeline sharded(bank_a_.get(), options);
  sharded.set_sink([](telemetry::SessionRecord) {});
  for (const auto& packet : traffic.packets) sharded.on_packet(packet);
  sharded.flush_all();

  HttpServer server;  // ephemeral loopback port
  IntrospectionOptions introspection;
  introspection.app_status = [] { return std::string("{\"mode\":\"test\"}"); };
  install_introspection(server, sharded.observability(), introspection);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  // /metrics: the scrape alone proves the drop-accounting identity.
  const HttpReply metrics = http_get(server.port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.head.find("text/plain; version=0.0.4"),
            std::string::npos);
  auto series = [&metrics](const std::string& name) {
    const std::string padded = "\n" + metrics.body;
    const std::string needle = "\n" + name + " ";
    const std::size_t pos = padded.find(needle);
    EXPECT_NE(pos, std::string::npos) << name;
    return pos == std::string::npos
               ? std::uint64_t{0}
               : std::strtoull(padded.c_str() + pos + needle.size(), nullptr,
                               10);
  };
  const std::uint64_t total = series("vpscope_packets_total");
  EXPECT_EQ(total, traffic.packets.size());
  EXPECT_EQ(total,
            series("vpscope_packets_completed_total") +
                series("vpscope_packets_non_ip_total") +
                series("vpscope_packets_dropped_total{class=\"payload\"}") +
                series("vpscope_packets_dropped_total{class=\"handshake\"}") +
                series("vpscope_packets_stranded"));

  // /healthz recomputes the same identity and reports balance.
  const HttpReply healthz = http_get(server.port(), "/healthz");
  ASSERT_EQ(healthz.status, 200);
  EXPECT_TRUE(json_valid(healthz.body)) << healthz.body;
  EXPECT_NE(healthz.body.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(healthz.body.find("\"balanced\":true"), std::string::npos);
  EXPECT_NE(healthz.body.find("\"app\":{\"mode\":\"test\"}"),
            std::string::npos);

  // /snapshot: the full JSON registry.
  const HttpReply snapshot = http_get(server.port(), "/snapshot");
  ASSERT_EQ(snapshot.status, 200);
  EXPECT_TRUE(json_valid(snapshot.body));
  EXPECT_NE(snapshot.body.find("\"vpscope_packets_total\""),
            std::string::npos);

  // /trace: Chrome trace JSON of the sampled spans, the flows' lifecycle
  // instants among them (flush_all just finalized every flow).
  const HttpReply trace = http_get(server.port(), "/trace?n=64");
  ASSERT_EQ(trace.status, 200);
  EXPECT_TRUE(json_valid(trace.body));
  EXPECT_NE(trace.body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.body.find("\"ph\":\"i\""), std::string::npos);

  // Threat-model rejections.
  EXPECT_EQ(http_get(server.port(), "/nope").status, 404);
  EXPECT_EQ(http_raw(server.port(),
                     "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .status,
            405);
  EXPECT_EQ(http_raw(server.port(), "garbage\r\n\r\n").status, 400);
  EXPECT_GE(server.requests_served(), 7u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerGuard, OversizedRequestHeadIsRejected431) {
  HttpServer::Options options;
  options.max_request_bytes = 256;
  HttpServer server{options};
  server.route("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start());
  std::string big = "GET /ok HTTP/1.1\r\n";
  big += "X-Padding: " + std::string(4096, 'a') + "\r\n\r\n";
  EXPECT_EQ(http_raw(server.port(), big).status, 431);
  // The loop is healthy afterwards.
  EXPECT_EQ(http_get(server.port(), "/ok").status, 200);
}

TEST(HttpServerGuard, SlowClientIsTimedOutWithoutWedgingTheLoop) {
  HttpServer::Options options;
  options.io_timeout_ms = 150;
  HttpServer server{options};
  server.route("/ok", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start());

  // A client that sends half a request line and stalls: the io timeout
  // must cut it off with 408 instead of blocking the accept loop forever.
  const auto t0 = std::chrono::steady_clock::now();
  const HttpReply slow = http_raw(server.port(), "GET /o");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(slow.connected);
  EXPECT_EQ(slow.status, 408);
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // And the next well-formed client is served normally.
  EXPECT_EQ(http_get(server.port(), "/ok").status, 200);
}

TEST(HttpServerGuard, BadBindAddressFailsStartWithError) {
  HttpServer::Options options;
  options.bind_address = "not-an-address";
  HttpServer server{options};
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(server.running());
}

// Start/stop storm with concurrent scrapers: lifecycle transitions race
// client connections. Whole-binary in the TSan `concurrency` lane.
TEST(HttpServerStorm, StartStopUnderConcurrentScrapes) {
  PipelineObs obs(2, {});
  for (int round = 0; round < 12; ++round) {
    HttpServer server;
    install_introspection(server, obs);
    ASSERT_TRUE(server.start());
    const std::uint16_t port = server.port();
    std::atomic<int> served{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
      clients.emplace_back([&served, port] {
        for (int i = 0; i < 3; ++i) {
          const HttpReply reply = http_get(port, "/healthz");
          // Connection refusals near stop() are expected; a served request
          // must be complete and well-formed.
          if (reply.status == 200 && json_valid(reply.body))
            served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    if (round % 2 == 0) {
      // Half the rounds stop the server while clients are mid-flight.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      server.stop();
    }
    for (auto& t : clients) t.join();
    server.stop();
    EXPECT_FALSE(server.running());
    if (round % 2 == 1) {
      EXPECT_EQ(served.load(), 12) << "quiescent rounds serve everything";
    }
  }
}

// ---------------------------------------------------------------------------
// Hardware stage profiles: graceful fallback
// ---------------------------------------------------------------------------

// profile_hw must never break a run: with perf access the hw gauges fill,
// without (no CAP_PERFMON / perf_event_paranoid) the group marks itself
// unavailable, the gauges stay zero, and timing keeps working.
TEST_F(IntrospectTest, PerfCountersFallBackGracefullyWithoutPerfAccess) {
  ObsConfig config;
  config.profile_stages = true;
  config.profile_hw = true;
  config.hw_sample_period = 1;  // bracket every stage invocation
  pipeline::VideoFlowPipeline pipe(bank_a_.get(), {}, config);
  pipe.set_sink([](telemetry::SessionRecord) {});
  for (const auto& packet : interleaved_mix(5, 31)) pipe.on_packet(packet);
  pipe.flush_all();

  PipelineObs& obs = pipe.observability();
  // Timing survived regardless of perf availability.
  EXPECT_GT(obs.profiler.histogram(Stage::Classify).snapshot().count, 0u);

  // The derived gauges are always registered (dashboards don't 404)...
  const std::string scrape = prometheus_text(obs.registry());
  for (const char* name :
       {"vpscope_stage_ipc_milli", "vpscope_stage_cache_misses_per_kinstr",
        "vpscope_stage_branch_misses_per_kinstr", "vpscope_stage_hw_samples"})
    EXPECT_NE(scrape.find(name), std::string::npos) << name;

  PerfStageCounters* counters = obs.perf_counters();
  if (!PerfStageCounters::compiled_in()) {
    GTEST_SKIP() << "perf_event_open not compiled in on this platform";
  }
  ASSERT_NE(counters, nullptr);
  const StageHwTotals classify = counters->stage_totals(Stage::Classify);
  if (counters->available()) {
    EXPECT_GT(classify.samples, 0u);
    EXPECT_GT(classify.cycles, 0u);
  } else {
    // Denied by the kernel: the fallback contract — zeros, no errors.
    EXPECT_EQ(classify.samples, 0u);
    EXPECT_EQ(classify.cycles, 0u);
  }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST_F(IntrospectTest, FlightRecorderRendersAndDumpsParseablePostmortem) {
  ObsConfig config;
  config.span_sample_n = 1;
  pipeline::VideoFlowPipeline pipe(bank_a_.get(), {}, config);
  pipe.set_sink([](telemetry::SessionRecord) {});
  for (const auto& packet : interleaved_mix(3, 17)) pipe.on_packet(packet);
  pipe.flush_all();

  FlightRecorderOptions options;
  options.dir = ::testing::TempDir();
  options.prefix = "introspect-postmortem";
  FlightRecorder recorder(&pipe.observability(), options);
  recorder.set_context_provider(
      [] { return std::string("{\"front_end\":\"unit\"}"); });

  const std::string doc = recorder.render("unit_test", "detail-42");
  EXPECT_TRUE(json_valid(doc)) << doc;
  for (const char* key :
       {"\"reason\":\"unit_test\"", "\"detail\":\"detail-42\"",
        "\"wall_ms\":", "\"spans\":[", "\"kind\":\"sink\"",
        "\"kind\":\"admitted\"", "\"kind\":\"classified\"",
        "\"confidence\":", "\"kind\":\"finalized\"", "\"metrics\":",
        "\"vpscope_packets_total\"", "\"context\":{\"front_end\":\"unit\"}"})
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  // The registry is rendered once, under "metrics".
  const std::size_t first = doc.find("\"vpscope_packets_total\"");
  EXPECT_EQ(doc.find("\"vpscope_packets_total\"", first + 1), std::string::npos);

  const std::string path = recorder.dump("unit_test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(recorder.dumps_written(), 1u);
  EXPECT_EQ(recorder.last_path(), path);
  EXPECT_NE(path.find("introspect-postmortem-unit_test-"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(json_valid(content.str()));
  EXPECT_NE(content.str().find("\"reason\":\"unit_test\""),
            std::string::npos);
  std::remove(path.c_str());

  // Sequenced filenames: a second dump the same millisecond never clobbers.
  const std::string path2 = recorder.dump("unit_test");
  EXPECT_NE(path2, path);
  std::remove(path2.c_str());
}

// The crash path end to end, isolated in a forked child: install the
// handler, die on SIGSEGV, and expect the postmortem on disk with the
// signal as its reason — while the child still dies by the original signal
// (the handler re-raises after dumping).
TEST_F(IntrospectTest, CrashHandlerWritesPostmortemAndReRaises) {
  const std::string dir =
      ::testing::TempDir() + "crash-recorder-" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: a tiny obs bundle, the recorder armed, then a fatal signal.
    PipelineObs obs(1, {});
    FlightRecorderOptions options;
    options.dir = dir;
    FlightRecorder recorder(&obs, options);
    recorder.install_crash_handler();
    if (FlightRecorder::crash_recorder() != &recorder) ::_exit(7);
    ::raise(SIGSEGV);
    ::_exit(8);  // unreachable: the handler re-raises with SIG_DFL
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child must die by the signal";
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  // Exactly the postmortem the handler wrote, parseable, reason = signal.
  std::string found;
  {
    const std::string cmd = "ls " + dir;
    FILE* ls = ::popen(cmd.c_str(), "r");
    ASSERT_NE(ls, nullptr);
    char name[512];
    while (std::fgets(name, sizeof(name), ls)) {
      std::string entry(name);
      while (!entry.empty() && (entry.back() == '\n' || entry.back() == '\r'))
        entry.pop_back();
      if (entry.rfind("vpscope-postmortem-", 0) == 0) found = dir + "/" + entry;
    }
    ::pclose(ls);
  }
  ASSERT_FALSE(found.empty()) << "no postmortem in " << dir;
  std::ifstream in(found);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(json_valid(content.str())) << found;
  EXPECT_NE(content.str().find("\"reason\":\"signal_11\""), std::string::npos)
      << content.str().substr(0, 200);
  std::remove(found.c_str());
  ::rmdir(dir.c_str());

  // The parent process never had a handler installed by the child.
  EXPECT_EQ(FlightRecorder::crash_recorder(), nullptr);
}

}  // namespace
}  // namespace vpscope::obs
