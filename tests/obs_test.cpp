// vpscope::obs unit + integration suite (DESIGN.md §5f): histogram bucket
// math and merge correctness, per-slot counter concurrency, golden
// exposition output, deterministic flow-lifecycle instants (admitted,
// rejected, evicted, shed, classified, finalized), and the scrape
// acceptance scenario — a loaded 8-shard pipeline whose Prometheus scrape
// alone must prove the drop-accounting identity and expose per-stage
// latency quantiles.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campus/overload.hpp"
#include "obs/export.hpp"
#include "obs/pipeline_obs.hpp"
#include "pipeline/faultpoint.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"

namespace vpscope::obs {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramBuckets, FirstBlockIsExact) {
  Registry registry(1);
  Histogram& h = registry.histogram("t", "t");
  // With sub_bits=5 the first 32 buckets are exact integers.
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(h.bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(h.bucket_upper(static_cast<int>(v)), v);
  }
}

TEST(HistogramBuckets, BoundariesAtPowersOfTwo) {
  Registry registry(1);
  Histogram& h = registry.histogram("t", "t");
  // 32 starts block 1: index 32, inclusive upper 32.
  EXPECT_EQ(h.bucket_index(32), 32);
  EXPECT_EQ(h.bucket_upper(32), 32u);
  // The last value of block 1 (63) and the first of block 2 (64) must land
  // in different buckets; same for every power of two up to the clamp.
  for (int bit = 6; bit < 36; ++bit) {
    const std::uint64_t p = 1ULL << bit;
    EXPECT_NE(h.bucket_index(p - 1), h.bucket_index(p)) << "bit=" << bit;
    // The upper bound of the bucket containing p-1 is exactly p-1 (the
    // block edge is always a bucket edge).
    EXPECT_EQ(h.bucket_upper(h.bucket_index(p - 1)), p - 1) << "bit=" << bit;
  }
}

TEST(HistogramBuckets, UpperBoundContainsValueWithBoundedError) {
  Registry registry(1);
  Histogram& h = registry.histogram("t", "t");
  std::uint64_t x = 12345;  // xorshift sweep over the representable range
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % (1ULL << 36);
    const int index = h.bucket_index(v);
    const std::uint64_t upper = h.bucket_upper(index);
    ASSERT_GE(upper, v);
    // Relative bucket width is bounded by 2^-sub_bits = 1/32.
    ASSERT_LE(upper - v, v / 32 + 1) << "v=" << v;
    if (index > 0) ASSERT_LT(h.bucket_upper(index - 1), v);
  }
}

TEST(HistogramBuckets, OverflowClampsToLastBucket) {
  Registry registry(1);
  Histogram& h = registry.histogram("t", "t");
  const int last = h.bucket_count() - 1;
  EXPECT_EQ(h.bucket_index(1ULL << 36), last);
  EXPECT_EQ(h.bucket_index(~0ULL), last);
  // The top in-range bucket doubles as the clamp bucket; the block below
  // it still resolves normally.
  EXPECT_EQ(h.bucket_index((1ULL << 36) - 1), last);
  EXPECT_LT(h.bucket_index(1ULL << 35), last);
}

// ---------------------------------------------------------------------------
// Histogram merge + percentiles
// ---------------------------------------------------------------------------

TEST(HistogramMerge, MergedSlotsMatchSingleStreamReference) {
  Registry sharded(8);
  Registry single(1);
  Histogram& h8 = sharded.histogram("t", "t");
  Histogram& h1 = single.histogram("t", "t");
  std::uint64_t x = 99;
  for (int i = 0; i < 50000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 5'000'000;
    h8.record(i % 8, v);  // scattered round-robin across slots
    h1.record(0, v);      // one reference stream
  }
  const HistogramSnapshot merged = h8.snapshot();
  const HistogramSnapshot reference = h1.snapshot();
  EXPECT_EQ(merged.buckets, reference.buckets);
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_EQ(merged.sum, reference.sum);
  EXPECT_EQ(merged.min, reference.min);
  EXPECT_EQ(merged.max, reference.max);
  for (const double p : {50.0, 90.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(merged.percentile(p), reference.percentile(p)) << "p=" << p;
  // Per-slot snapshots partition the merged one.
  std::uint64_t count_sum = 0;
  for (int s = 0; s < 8; ++s) count_sum += h8.snapshot(s).count;
  EXPECT_EQ(count_sum, merged.count);
}

TEST(HistogramPercentiles, UniformRampWithinBucketError) {
  Registry registry(1);
  Histogram& h = registry.histogram("t", "t");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(0, v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  // Bucket upper bounds over-report by at most 1/32 relative.
  const std::uint64_t p50 = snap.percentile(50);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 500u + 500u / 32 + 1);
  const std::uint64_t p99 = snap.percentile(99);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 990u + 990u / 32 + 1);
  EXPECT_EQ(snap.percentile(100), 1000u);
}

TEST(HistogramPercentiles, EdgeCases) {
  Registry registry(1);
  Histogram& h = registry.histogram("t", "t");
  EXPECT_EQ(h.snapshot().percentile(50), 0u) << "empty histogram";
  h.record(0, 77);
  for (const double p : {0.0, 50.0, 99.9, 100.0})
    EXPECT_EQ(h.snapshot().percentile(p), 77u) << "single sample, p=" << p;
  // A clamped sample must not report a fantasy quantile: the observed max
  // bounds the top bucket.
  h.record(0, 1ULL << 40);
  EXPECT_EQ(h.snapshot().percentile(100), 1ULL << 40);
}

// ---------------------------------------------------------------------------
// Counters / gauges / registry
// ---------------------------------------------------------------------------

TEST(Counters, ConcurrentSlotsLoseNothing) {
  Registry registry(4);
  Counter& c = registry.counter("t_total", "t");
  Gauge& g = registry.gauge("t_g", "t");
  std::vector<std::thread> threads;
  for (int slot = 0; slot < 4; ++slot)
    threads.emplace_back([&, slot] {
      for (int i = 0; i < 100000; ++i) {
        c.add(slot);
        g.add(slot, 2);
        g.add(slot, -1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.total(), 400000u);
  EXPECT_EQ(g.total(), 400000);
  for (int slot = 0; slot < 4; ++slot) EXPECT_EQ(c.value(slot), 100000u);
}

TEST(Counters, SingleWriterSlotsStayExactUnderAConcurrentScraper) {
  // One writer per slot, as the registry lays them out: a scraper summing
  // meanwhile sees monotone, never-overshooting totals, and the final sum
  // is exact.
  constexpr int kSlots = 4;
  constexpr std::uint64_t kAdds = 1'000'000;
  Registry registry(kSlots);
  Counter& c = registry.counter("t_total", "t");
  std::atomic<int> running{kSlots};
  std::vector<std::thread> writers;
  for (int slot = 0; slot < kSlots; ++slot)
    writers.emplace_back([&, slot] {
      for (std::uint64_t i = 0; i < kAdds; ++i)
        c.add(slot, 1, std::memory_order_release);
      running.fetch_sub(1, std::memory_order_release);
    });
  std::uint64_t last = 0;
  bool monotone = true;
  bool bounded = true;
  while (running.load(std::memory_order_acquire) > 0) {
    const std::uint64_t sum = c.total(std::memory_order_acquire);
    monotone = monotone && sum >= last;
    bounded = bounded && sum <= kSlots * kAdds;
    last = sum;
  }
  for (auto& t : writers) t.join();
  EXPECT_TRUE(monotone);
  EXPECT_TRUE(bounded);
  EXPECT_EQ(c.total(), kSlots * kAdds);
  for (int slot = 0; slot < kSlots; ++slot) EXPECT_EQ(c.value(slot), kAdds);
}

TEST(Counters, ContendedAddFromFourThreadsOnOneSlotIsExact) {
  // Counter::add_contended is one atomic read-modify-write, so it stays
  // exact when several threads write one slot, as foreign threads do on
  // purpose with the dispatcher's contract-violation counter.
  Registry registry(2);
  Counter& c = registry.counter("t_total", "t");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 250000; ++i) c.add_contended(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(1), 1'000'000u);
  EXPECT_EQ(c.value(0), 0u);
}

TEST(RegistryTest, RegistrationIsIdempotentOnNameAndLabels) {
  Registry registry(2);
  Counter& a = registry.counter("t_total", "help", "k=\"v\"");
  Counter& b = registry.counter("t_total", "ignored on re-registration",
                                "k=\"v\"");
  Counter& c = registry.counter("t_total", "help", "k=\"w\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  Histogram& h1 = registry.histogram("t_lat", "help");
  Histogram& h2 = registry.histogram("t_lat", "help");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(registry.counters().size(), 2u);
  EXPECT_EQ(a.slots(), 2);
}

// ---------------------------------------------------------------------------
// Stage timers
// ---------------------------------------------------------------------------

TEST(StageTimers, DisabledProfilerRecordsNothing) {
  Registry registry(1);
  StageProfiler profiler(registry);
  ASSERT_FALSE(profiler.enabled());
  { ScopedTimer t(&profiler, Stage::Parse, 0); }
  { ScopedTimer t(nullptr, Stage::Parse, 0); }  // null profiler is legal
  EXPECT_EQ(profiler.histogram(Stage::Parse).snapshot().count, 0u);

  profiler.set_enabled(true);
  { ScopedTimer t(&profiler, Stage::Parse, 0); }
  { ScopedTimer t(&profiler, Stage::Sink, 0); }
  EXPECT_EQ(profiler.histogram(Stage::Parse).snapshot().count, 1u);
  EXPECT_EQ(profiler.histogram(Stage::Sink).snapshot().count, 1u);
  EXPECT_EQ(profiler.histogram(Stage::Encode).snapshot().count, 0u);
}

// ---------------------------------------------------------------------------
// Exposition: golden output
// ---------------------------------------------------------------------------

/// A small deterministic registry both golden tests render.
void fill_golden(Registry& registry) {
  Counter& requests = registry.counter("t_requests_total", "Requests.");
  Counter& errors =
      registry.counter("t_requests_total", "Requests.", "code=\"500\"");
  Gauge& temp = registry.gauge("t_temp", "Temp.");
  Histogram& lat = registry.histogram("t_lat", "Latency.");
  requests.add(0, 3);
  requests.add(1, 4);
  errors.add(1, 1);
  temp.set(0, -2);
  temp.set(1, 5);
  lat.record(0, 3);   // bucket upper 3
  lat.record(1, 3);
  lat.record(0, 40);  // bucket upper 40 (block-1 buckets are still exact)
}

TEST(Exposition, PrometheusGolden) {
  Registry registry(2);
  fill_golden(registry);
  const std::string expected =
      "# HELP t_requests_total Requests.\n"
      "# TYPE t_requests_total counter\n"
      "t_requests_total 7\n"
      "t_requests_total{code=\"500\"} 1\n"
      "# HELP t_temp Temp.\n"
      "# TYPE t_temp gauge\n"
      "t_temp 3\n"
      "# HELP t_lat Latency.\n"
      "# TYPE t_lat histogram\n"
      "t_lat_bucket{le=\"3\"} 2\n"
      "t_lat_bucket{le=\"40\"} 3\n"
      "t_lat_bucket{le=\"+Inf\"} 3\n"
      "t_lat_sum 46\n"
      "t_lat_count 3\n"
      "# HELP t_lat_p50 Latency. (precomputed quantile)\n"
      "# TYPE t_lat_p50 gauge\n"
      "t_lat_p50 3\n"
      "# HELP t_lat_p99 Latency. (precomputed quantile)\n"
      "# TYPE t_lat_p99 gauge\n"
      "t_lat_p99 40\n"
      "# HELP t_lat_p999 Latency. (precomputed quantile)\n"
      "# TYPE t_lat_p999 gauge\n"
      "t_lat_p999 40\n";
  EXPECT_EQ(prometheus_text(registry), expected);
}

TEST(Exposition, JsonGolden) {
  Registry registry(2);
  fill_golden(registry);
  const std::string expected =
      "{\"counters\":{"
      "\"t_requests_total\":{\"total\":7,\"slots\":[3,4]},"
      "\"t_requests_total{code=\\\"500\\\"}\":{\"total\":1,\"slots\":[0,1]}"
      "},\"gauges\":{"
      "\"t_temp\":{\"total\":3,\"slots\":[-2,5]}"
      "},\"histograms\":{"
      "\"t_lat\":{\"count\":3,\"sum\":46,\"min\":3,\"max\":40,"
      "\"p50\":3,\"p99\":40,\"p999\":40,"
      "\"buckets\":[{\"le\":3,\"n\":2},{\"le\":40,\"n\":1}]}"
      "}}";
  const std::string text = json_text(registry);
  EXPECT_EQ(text, expected);
  EXPECT_TRUE(json_valid(text));
}

TEST(Exposition, CollectHooksRunBeforeRender) {
  Registry registry(1);
  Counter& base = registry.counter("t_base_total", "t");
  Gauge& derived = registry.gauge("t_derived", "t");
  registry.add_collect_hook([&] {
    derived.set(0, static_cast<std::int64_t>(base.total()) * 2);
  });
  base.add(0, 21);
  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("t_derived 42\n"), std::string::npos);
}

TEST(Exposition, JsonValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1,2.5,-3,1e9,\"a\\n\\u00ff\",true,false,null]"));
  EXPECT_TRUE(json_valid("  {\"a\":{\"b\":[{}]}}  "));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_valid("[1 2]"));
  EXPECT_FALSE(json_valid("{\"a\"}"));
  EXPECT_FALSE(json_valid("{\"unterminated"));
  EXPECT_FALSE(json_valid("nope"));
  EXPECT_FALSE(json_valid("{} trailing"));
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(json_valid(deep)) << "past kMaxDepth";
}

TEST(Exposition, PeriodicExporterHonoursInterval) {
  auto registry = std::make_shared<Registry>(1);
  registry->counter("t_total", "t").add(0, 5);
  const std::string path =
      ::testing::TempDir() + "obs_exporter_test.prom";
  ExportOptions options;
  options.path = path;
  options.interval_us = 1000;
  PeriodicExporter exporter(registry, options);
  EXPECT_TRUE(exporter.tick(500)) << "first tick always exports";
  EXPECT_FALSE(exporter.tick(600)) << "within the interval";
  EXPECT_FALSE(exporter.tick(1499));
  EXPECT_TRUE(exporter.tick(1500));
  EXPECT_TRUE(exporter.export_now()) << "unconditional";
  EXPECT_EQ(exporter.exports_done(), 3u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  const std::string content(buf, n);
  EXPECT_NE(content.find("t_total 5\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pipeline integration: the scrape as the single source of truth
// ---------------------------------------------------------------------------

/// Parses `series value` out of Prometheus text exposition. Fails the test
/// when the series is missing — the scrape alone must carry the accounting.
std::uint64_t scrape_value(const std::string& text, const std::string& series) {
  const std::string padded = "\n" + text;
  const std::string needle = "\n" + series + " ";
  const std::size_t pos = padded.find(needle);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "series not in scrape: " << series;
    return 0;
  }
  return std::strtoull(padded.c_str() + pos + needle.size(), nullptr, 10);
}

bool scrape_has(const std::string& text, const std::string& series) {
  return ("\n" + text).find("\n" + series + " ") != std::string::npos;
}

/// A ring's lifecycle instants, oldest first.
std::vector<Span> instants_of(const SpanRing& ring) {
  std::vector<Span> out;
  for (const Span& s : ring.drain_copy())
    if (is_instant(s.kind)) out.push_back(s);
  return out;
}

class ObsPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 0.35));
    bank_ = new pipeline::ClassifierBank();
    bank_->train(*lab_);
  }
  static void TearDownTestSuite() {
    delete lab_;
    delete bank_;
    lab_ = nullptr;
    bank_ = nullptr;
  }

  static synth::Dataset* lab_;
  static pipeline::ClassifierBank* bank_;
};

synth::Dataset* ObsPipelineTest::lab_ = nullptr;
pipeline::ClassifierBank* ObsPipelineTest::bank_ = nullptr;

TEST_F(ObsPipelineTest, StandaloneScrapeMatchesStatsAndTracesDeterministically) {
  campus::OverloadConfig traffic_config;
  traffic_config.legit_flows = 20;
  traffic_config.flood_flows = 0;
  const auto traffic = campus::make_overload_traffic(traffic_config);

  auto run = [&](std::vector<Span>& events_out) {
    ObsConfig config;
    config.profile_stages = true;
    config.span_sample_n = 2;
    pipeline::VideoFlowPipeline pipe(bank_, {}, config);
    pipe.set_sink([](telemetry::SessionRecord) {});
    for (const auto& packet : traffic.packets) pipe.on_packet(packet);
    pipe.flush_all();
    events_out = instants_of(*pipe.observability().span_ring(0));
    return std::make_pair(pipe.stats(),
                          prometheus_text(pipe.observability().registry()));
  };

  std::vector<Span> events_a;
  const auto [stats, scrape] = run(events_a);

  EXPECT_EQ(scrape_value(scrape, "vpscope_packets_total"),
            stats.packets_total);
  EXPECT_EQ(scrape_value(scrape, "vpscope_flows_total"), stats.flows_total);
  EXPECT_EQ(scrape_value(scrape, "vpscope_video_flows_total"),
            stats.video_flows);
  EXPECT_EQ(
      scrape_value(scrape, "vpscope_classified_total{outcome=\"composite\"}"),
      stats.classified_composite);
  EXPECT_EQ(scrape_value(scrape, "vpscope_flows_active"), 0u)
      << "flush_all empties the table";

  // A 1-in-2 sampled trace saw roughly half the flows, fully: every sampled
  // flow has its Admitted instant, classified video flows their Classified
  // and Finalized ones.
  std::uint64_t admitted = 0, classified = 0, finalized = 0;
  for (const Span& e : events_a) {
    EXPECT_EQ((e.flow_hash >> 32) % 2, 0u)
        << "only sampled flows may appear";
    EXPECT_EQ(e.dur_ns, 0u) << span_kind_name(e.kind);
    admitted += e.kind == SpanKind::Admitted;
    classified += e.kind == SpanKind::Classified;
    finalized += e.kind == SpanKind::Finalized;
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(classified, 0u);
  EXPECT_EQ(admitted, finalized) << "every sampled flow ends through the sink";

  // Determinism: the same traffic yields the identical (kind, flow, detail)
  // sequence; only the tick timestamps differ between runs.
  std::vector<Span> events_b;
  run(events_b);
  ASSERT_EQ(events_a.size(), events_b.size());
  for (std::size_t i = 0; i < events_a.size(); ++i) {
    EXPECT_EQ(events_a[i].kind, events_b[i].kind) << i;
    EXPECT_EQ(events_a[i].flow_hash, events_b[i].flow_hash) << i;
    EXPECT_EQ(events_a[i].os, events_b[i].os) << i;
    EXPECT_EQ(events_a[i].agent, events_b[i].agent) << i;
    EXPECT_EQ(events_a[i].composite, events_b[i].composite) << i;
    EXPECT_EQ(events_a[i].confidence, events_b[i].confidence) << i;
    EXPECT_EQ(events_a[i].detail, events_b[i].detail) << i;
  }
}

// RejectNew at capacity: the legit flows fill the table first and never
// leave it, so every flood SYN after them is refused. Each refusal is one
// Rejected instant (a flood flow sends one SYN), and a refused flow never
// shows an Admitted one.
TEST_F(ObsPipelineTest, RejectNewRecordsRejectedInstantsWithoutAdmission) {
  campus::OverloadConfig traffic_config;
  traffic_config.legit_flows = 4;
  traffic_config.flood_flows = 200;
  const auto traffic = campus::make_overload_traffic(traffic_config);

  pipeline::PipelineOptions options;
  options.max_flows = 16;
  options.eviction = pipeline::PipelineOptions::Eviction::RejectNew;
  ObsConfig config;
  config.span_sample_n = 1;
  config.span_ring_capacity = std::size_t{1} << 16;
  pipeline::VideoFlowPipeline pipe(bank_, options, config);
  pipe.set_sink([](telemetry::SessionRecord) {});
  for (const auto& packet : traffic.packets) pipe.on_packet(packet);
  const pipeline::PipelineStats stats = pipe.stats();

  std::map<std::uint64_t, int> rejected, admitted;
  for (const Span& e : instants_of(*pipe.observability().span_ring(0))) {
    if (e.kind == SpanKind::Rejected) ++rejected[e.flow_hash];
    if (e.kind == SpanKind::Admitted) ++admitted[e.flow_hash];
  }
  ASSERT_GT(stats.flows_evicted_capacity, 0u);
  std::uint64_t refusals = 0;
  for (const auto& [flow, count] : rejected) {
    EXPECT_EQ(count, 1) << "flow " << flow;
    EXPECT_EQ(admitted.count(flow), 0u) << "refused flow " << flow;
    refusals += static_cast<std::uint64_t>(count);
  }
  EXPECT_EQ(refusals, stats.flows_evicted_capacity);
  EXPECT_EQ(admitted.size(), options.max_flows);
}

// LruIdle at capacity: flood SYNs push each finished legit flow to the LRU
// front, so video flows leave by eviction. A sampled victim's Evicted
// instant precedes its Finalized one (it leaves through the normal sink
// path), both parented on the flow's last span.
TEST_F(ObsPipelineTest, LruEvictionRecordsEvictedBeforeFinalized) {
  campus::OverloadConfig traffic_config;
  traffic_config.legit_flows = 6;
  traffic_config.flood_flows = 300;
  traffic_config.flood_packets_per_legit_flow = 40;
  const auto traffic = campus::make_overload_traffic(traffic_config);

  pipeline::PipelineOptions options;
  options.max_flows = 16;
  options.eviction = pipeline::PipelineOptions::Eviction::LruIdle;
  ObsConfig config;
  config.span_sample_n = 1;
  config.span_ring_capacity = std::size_t{1} << 16;
  pipeline::VideoFlowPipeline pipe(bank_, options, config);
  pipe.set_sink([](telemetry::SessionRecord) {});
  for (const auto& packet : traffic.packets) pipe.on_packet(packet);
  pipe.flush_all();

  const std::vector<Span> spans =
      pipe.observability().span_ring(0)->drain_copy();
  std::set<std::uint64_t> ids;
  for (const Span& s : spans) ids.insert(s.span_id);
  std::map<std::uint64_t, std::size_t> first_evicted, first_finalized;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& e = spans[i];
    if (e.kind == SpanKind::Evicted) {
      first_evicted.emplace(e.flow_hash, i);
      EXPECT_TRUE(ids.count(e.parent_id)) << "evicted instant's parent";
    }
    if (e.kind == SpanKind::Finalized) first_finalized.emplace(e.flow_hash, i);
  }
  std::size_t evicted_video = 0;
  for (const auto& [flow, evicted_at] : first_evicted) {
    const auto finalized = first_finalized.find(flow);
    if (finalized == first_finalized.end()) continue;  // not a video flow
    EXPECT_LT(evicted_at, finalized->second) << "flow " << flow;
    ++evicted_video;
  }
  EXPECT_GT(evicted_video, 0u) << "a video flow must leave by eviction";
}

// The ISSUE-5 acceptance scenario: an 8-shard pipeline under a shedding
// overload run, verified exclusively FROM THE SCRAPED TEXT — the identity
// counters and the per-stage latency quantiles must all be readable off
// one Prometheus exposition pass.
TEST_F(ObsPipelineTest, ShardedScrapeProvesIdentityAndStageLatencies) {
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
  // Coprime with the 8 shards, so sampled flows land on every shard, the
  // stalled one included.
  options.obs.span_sample_n = 3;
  pipeline::ShardedPipeline sharded(bank_, options);
  sharded.set_sink([](telemetry::SessionRecord) {});
  {
    // Whether the dispatcher outruns free-running workers depends on the
    // scheduler. Stalling the first worker item makes the overload certain:
    // that shard's ring (64 slots) fills long before the stall ends, while
    // the flood sends every shard hundreds of packets.
    namespace fault = pipeline::fault;
    fault::Scoped stall(fault::Point::WorkerItem,
                        {.action = fault::Plan::Action::Stall,
                         .start = 0,
                         .period = 0,
                         .limit = 1,
                         .stall_ms = 1000});
    for (const auto& packet : traffic.packets) sharded.on_packet(packet);
    sharded.flush_all();
  }
  const pipeline::PipelineStats stats = sharded.stats();

  const std::string scrape =
      prometheus_text(sharded.observability().registry());

  // The drop-accounting identity, from scraped numbers alone.
  const std::uint64_t total = scrape_value(scrape, "vpscope_packets_total");
  const std::uint64_t completed =
      scrape_value(scrape, "vpscope_packets_completed_total");
  const std::uint64_t non_ip =
      scrape_value(scrape, "vpscope_packets_non_ip_total");
  const std::uint64_t dropped_payload =
      scrape_value(scrape, "vpscope_packets_dropped_total{class=\"payload\"}");
  const std::uint64_t dropped_handshake = scrape_value(
      scrape, "vpscope_packets_dropped_total{class=\"handshake\"}");
  const std::uint64_t stranded =
      scrape_value(scrape, "vpscope_packets_stranded");
  EXPECT_EQ(total, traffic.packets.size());
  EXPECT_EQ(total,
            completed + non_ip + dropped_payload + dropped_handshake + stranded);
  EXPECT_EQ(stranded, 0u) << "no shard was stuck; flush_all drained all rings";
  EXPECT_GT(dropped_payload + dropped_handshake, 0u)
      << "the shedding run must actually shed";

  // The scrape agrees with the programmatic stats path.
  EXPECT_EQ(total, stats.packets_total);
  EXPECT_EQ(completed + non_ip, stats.packets_processed);
  EXPECT_EQ(dropped_payload, stats.packets_dropped_payload);
  EXPECT_EQ(dropped_handshake, stats.packets_dropped_handshake);
  EXPECT_EQ(scrape_value(scrape, "vpscope_flows_evicted_capacity_total"),
            stats.flows_evicted_capacity);
  EXPECT_GT(stats.flows_evicted_capacity, 0u)
      << "the flood must hit the flow-table bound";

  // Shed instants sit in the dispatcher's own ring, only for sampled flows,
  // each parented on its packet's Dispatch span and naming its class.
  const PipelineObs& o = sharded.observability();
  const SpanRing& dispatcher = *o.span_ring(o.dispatcher_slot());
  std::vector<Span> shed;
  for (const Span& e : instants_of(dispatcher)) {
    if (e.kind != SpanKind::Shed) continue;
    shed.push_back(e);
    EXPECT_EQ((e.flow_hash >> 32) % 3, 0u)
        << "only sampled flows may appear";
    EXPECT_NE(e.parent_id, 0u) << "parented on the Dispatch span";
    EXPECT_TRUE(
        e.detail ==
            static_cast<std::uint32_t>(pipeline::AdmissionClass::Handshake) ||
        e.detail ==
            static_cast<std::uint32_t>(pipeline::AdmissionClass::Payload))
        << e.detail;
  }
  EXPECT_GT(shed.size(), 0u) << "the stalled shard sheds sampled flows";
  EXPECT_LE(shed.size(), dropped_payload + dropped_handshake);
  const std::string shed_json = chrome_trace_json(shed);
  std::size_t named = 0;
  for (const char* cls : {"\"class\":\"handshake\"", "\"class\":\"payload\""})
    for (std::size_t pos = shed_json.find(cls); pos != std::string::npos;
         pos = shed_json.find(cls, pos + 1))
      ++named;
  EXPECT_EQ(named, shed.size());

  // Every remaining identity/accounting series is exposed.
  for (const char* series :
       {"vpscope_packets_enqueued_total", "vpscope_flows_total",
        "vpscope_video_flows_total", "vpscope_volume_samples_dropped_total",
        "vpscope_classified_total{outcome=\"composite\"}",
        "vpscope_classified_total{outcome=\"partial\"}",
        "vpscope_classified_total{outcome=\"unknown\"}",
        "vpscope_sink_errors_total", "vpscope_worker_errors_total",
        "vpscope_dispatcher_contract_violations_total",
        "vpscope_flows_active", "vpscope_shards_bypassed"})
    EXPECT_TRUE(scrape_has(scrape, series)) << series;

  // Per-stage latency quantiles, one histogram per Fig. 4 stage.
  for (const char* stage :
       {"parse", "extract", "encode", "classify", "sink"}) {
    const std::string labels = std::string("{stage=\"") + stage + "\"}";
    EXPECT_GT(
        scrape_value(scrape, "vpscope_stage_latency_ns_count" + labels), 0u)
        << stage;
    EXPECT_TRUE(scrape_has(scrape, "vpscope_stage_latency_ns_p50" + labels))
        << stage;
    EXPECT_TRUE(scrape_has(scrape, "vpscope_stage_latency_ns_p99" + labels))
        << stage;
  }

  EXPECT_EQ(sharded.dispatcher_contract_violations(), 0u);
}

}  // namespace
}  // namespace vpscope::obs
