// Observability overhead characterization (DESIGN.md §5f/§5k /
// EXPERIMENTS.md): the metrics registry IS the pipeline's accounting, so
// the question is not "metrics on vs off" but what each optional layer
// adds on top of the baseline registry — the periodic exporter, per-stage
// latency profiling (TSC tick reads, obs/clock.hpp), sampled flow tracing
// (causal spans + lifecycle instants), and the embedded scrape server under
// a live scraper — measured as end-to-end throughput deltas on the 8-shard
// front-end. The file records the usable cores: with fewer than 8 shards'
// worth (scaling_valid false) the workers time-slice.
// Acceptance targets: exporter / trace / http lanes within 3% of the
// bare-registry baseline, profiling within 5%. Lanes are interleaved
// per-repetition (repeat r of every lane before repeat r+1 of any — the
// PR-6 scheme), and each lane's overhead is the median over cycles of its
// elapsed time divided by the *same cycle's* base elapsed time, so both
// slow frequency drift and transient scheduler storms cancel pairwise out
// of the lane comparison. Microbenchmarks cover
// the primitive costs (counter add, histogram record, ScopedTimer on/off,
// span record, render). Results are written to BENCH_obs.json.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "obs/export.hpp"
#include "obs/http_server.hpp"
#include "obs/span.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "util/table.hpp"

namespace {

using namespace vpscope;

const pipeline::ClassifierBank& obs_bank() {
  static const pipeline::ClassifierBank bank = [] {
    pipeline::ClassifierBank b;
    b.train(bench::lab_dataset());
    return b;
  }();
  return bank;
}

constexpr int kShards = 8;
constexpr int kFlows = 800;
// Single repetitions are ~60 ms — short enough that scheduler noise on a
// shared host swings one measurement by several percent. 15 interleaved
// cycles give each lane 15 paired ratios against base; the median of those
// is stable to well under 1%.
constexpr int kRepeats = 15;
constexpr const char* kExportPath = "/tmp/vpscope_bench_obs.prom";

/// Full video flows — handshake AND payload packets — cycled over the five
/// scenarios, so the timed loop exercises the real per-packet hot path,
/// not just connection establishment.
const std::vector<net::Packet>& bench_packets() {
  static const std::vector<net::Packet> packets = [] {
    Rng rng(99);
    synth::FlowSynthesizer synth(rng);
    std::vector<net::Packet> out;
    for (int i = 0; i < kFlows; ++i) {
      const auto& c =
          bench::scenario_cases()[static_cast<std::size_t>(i) %
                                  bench::scenario_cases().size()];
      const auto platforms =
          fingerprint::platforms_for(c.provider, c.transport);
      const auto profile = fingerprint::make_profile(
          platforms[static_cast<std::size_t>(i) % platforms.size()],
          c.provider, c.transport);
      synth::FlowOptions opt;
      opt.start_time_us = static_cast<std::uint64_t>(i) * 1000;
      opt.payload_bytes = 200'000;
      opt.payload_duration_us = 1'000'000;
      const auto flow = synth.synthesize(profile, opt);
      out.insert(out.end(), flow.packets.begin(), flow.packets.end());
    }
    return out;
  }();
  return packets;
}

struct Lane {
  const char* name = "";
  const char* detail = "";
  obs::ObsConfig obs = {};
  bool exporter = false;
  /// Embedded scrape server + a live loopback scraper hitting /metrics
  /// every 50 ms for the duration of the timed region.
  bool http = false;
  double target_pct = 3.0;  // acceptance ceiling for this lane's overhead
};

struct LaneResult {
  const Lane* lane = nullptr;
  double elapsed_s = 0;       // best of kRepeats (throughput display)
  double packets_per_sec = 0;
  double overhead_pct = 0;    // median of per-cycle ratios vs base
  std::vector<double> samples;  // elapsed_s per cycle, in cycle order
  std::uint64_t exports = 0;
  std::uint64_t scrapes = 0;  // http lanes: served /metrics requests
  bool identity_ok = false;
};

/// Minimal loopback scrape (GET /metrics, read to close). Returns bytes
/// received — 0 means the scrape failed.
std::size_t scrape_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::size_t received = 0;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    static const char kRequest[] =
        "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";
    if (::send(fd, kRequest, sizeof(kRequest) - 1, 0) > 0) {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        received += static_cast<std::size_t>(n);
    }
  }
  ::close(fd);
  return received;
}

/// One timed feed+flush of the full packet set through a fresh pipeline,
/// folded into `result` (best-of across calls). Lanes are interleaved by
/// the caller — on a single-core box, running a lane's repeats
/// back-to-back would fold scheduler/frequency drift into the lane
/// comparison instead of averaging it out.
void run_once(const Lane& lane, LaneResult& result) {
  const auto& traffic = bench_packets();
  pipeline::ShardedPipelineOptions opt;
  opt.n_shards = kShards;
  opt.obs = lane.obs;
  pipeline::ShardedPipeline pipe(&obs_bank(), opt);
  pipe.set_sink([](telemetry::SessionRecord) {});
  if (lane.exporter) {
    obs::ExportOptions export_options;
    export_options.path = kExportPath;
    export_options.interval_us = 50'000;
    pipe.set_exporter(export_options);
  }
  std::unique_ptr<obs::HttpServer> server;
  std::thread scraper;
  std::atomic<bool> scraping{false};
  if (lane.http) {
    server = std::make_unique<obs::HttpServer>();
    obs::install_introspection(*server, pipe.observability());
    if (server->start()) {
      scraping.store(true, std::memory_order_release);
      scraper = std::thread([port = server->port(), &scraping, &result] {
        while (scraping.load(std::memory_order_acquire)) {
          if (scrape_metrics(port) > 0) ++result.scrapes;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  for (const auto& p : traffic) pipe.on_packet(p);
  pipe.flush_all();
  const auto end = std::chrono::steady_clock::now();

  if (scraper.joinable()) {
    // One guaranteed mid-registry scrape before teardown, so short runs
    // still exercise the serve path inside the measured process.
    if (scrape_metrics(server->port()) > 0) ++result.scrapes;
    scraping.store(false, std::memory_order_release);
    scraper.join();
  }
  if (server) server->stop();

  if (lane.obs.profile_stages && std::getenv("BENCH_OBS_DEBUG")) {
    for (int st = 0; st < static_cast<int>(obs::Stage::kCount); ++st) {
      const auto snap = pipe.observability()
                            .profiler.histogram(static_cast<obs::Stage>(st))
                            .snapshot();
      std::cout << "[debug] stage " << obs::stage_name(static_cast<obs::Stage>(st))
                << " records=" << snap.count << "\n";
    }
  }
  const pipeline::PipelineStats s = pipe.stats();
  result.identity_ok =
      s.packets_total == s.packets_processed + s.packets_dropped_payload +
                             s.packets_dropped_handshake + s.packets_stranded;
  const double elapsed = std::chrono::duration<double>(end - start).count();
  result.elapsed_s = std::min(result.elapsed_s, elapsed);
  result.samples.push_back(elapsed);
  if (lane.exporter) {
    // Exports actually happened (the lane is not a no-op).
    const std::string scrape =
        obs::prometheus_text(pipe.observability().registry());
    result.exports += scrape.empty() ? 0 : 1;
  }
  std::remove(kExportPath);
}

void write_json(const std::vector<LaneResult>& lanes) {
  std::ofstream json("BENCH_obs.json");
  json << "{\n"
       << "  \"bench\": \"obs\",\n"
       << "  \"shards\": " << kShards << ",\n"
       << "  \"flows\": " << kFlows << ",\n"
       << "  \"packets\": " << bench_packets().size() << ",\n"
       << "  \"repeats\": " << kRepeats << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"usable_cores\": " << bench::usable_cores() << ",\n"
       << "  \"scaling_valid\": "
       << (bench::usable_cores() >= kShards ? "true" : "false") << ",\n"
       << "  \"methodology\": \"lanes interleaved per-repetition; overhead = "
          "median of per-cycle elapsed ratios vs base\",\n"
       << "  \"target_overhead_pct\": 3.0,\n"
       << "  \"profile_target_overhead_pct\": 5.0,\n"
       << "  \"lanes\": [\n";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto& r = lanes[i];
    json << "    {\"lane\": \"" << r.lane->name << "\", \"elapsed_s\": "
         << r.elapsed_s << ", \"packets_per_sec\": " << r.packets_per_sec
         << ", \"overhead_pct\": " << r.overhead_pct
         << ", \"target_pct\": " << r.lane->target_pct
         << ", \"scrapes\": " << r.scrapes
         << ", \"identity_ok\": " << (r.identity_ok ? "true" : "false")
         << "}" << (i + 1 < lanes.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

void report() {
  std::cout << "== Observability overhead: registry / exporter / profiling "
               "/ tracing (DESIGN.md §5f) ==\n"
            << kShards << "-shard pipeline, " << kFlows
            << " legitimate video flows ("
            << bench_packets().size()
            << " packets), " << kRepeats
            << " interleaved cycles; throughput = best cycle, overhead = "
               "median of per-cycle ratios vs base.\n"
            << "The registry itself is always on — it IS the accounting; "
               "lanes add the optional layers.\n"
            << "usable cores: " << bench::usable_cores() << " of "
            << std::thread::hardware_concurrency() << " hardware threads\n";
  (void)obs_bank();  // train outside every timed region

  obs::ObsConfig profile_config;
  profile_config.profile_stages = true;
  obs::ObsConfig trace_config;
  trace_config.span_sample_n = 64;
  obs::ObsConfig all_config;
  all_config.profile_stages = true;
  all_config.span_sample_n = 64;
  const std::vector<Lane> lanes = {
      {"base", "registry counters only (production default)", {}, false,
       false, 0.0},
      {"exporter", "+ Prometheus file export every 50 ms", {}, true, false,
       3.0},
      {"profile", "+ stage histograms (TSC ticks, packet stages 1-in-4)",
       profile_config, false, false, 5.0},
      {"trace", "+ 1-in-64 flow tracing (spans + lifecycle instants)",
       trace_config, false, false, 3.0},
      {"http", "+ embedded scrape server, live /metrics scraper", {}, false,
       true, 3.0},
      // No individual budget for the everything-on lane: on a single-core
      // host the live scraper thread serializes against the pipeline, so
      // its cost is the sum of the parts plus scheduling pressure.
      {"all", "exporter + profiling + flow tracing + http", all_config, true,
       true, 0.0},
  };

  std::vector<LaneResult> results(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    results[i].lane = &lanes[i];
    results[i].elapsed_s = 1e30;
  }
  {
    // Untimed warm-up: fault in code, touch the packet set, spin threads
    // once, so the first timed lane is not systematically cold.
    LaneResult warmup = results.front();
    run_once(lanes.front(), warmup);
  }
  // Round-robin: repeat r of every lane before repeat r+1 of any.
  for (int rep = 0; rep < kRepeats; ++rep)
    for (std::size_t i = 0; i < lanes.size(); ++i)
      run_once(lanes[i], results[i]);
  for (LaneResult& r : results)
    r.packets_per_sec = static_cast<double>(bench_packets().size()) /
                        std::max(r.elapsed_s, 1e-12);
  // Overhead: median over cycles of this lane's elapsed time divided by the
  // same cycle's base elapsed time. Pairing within a cycle cancels drift
  // AND transient scheduler storms (a storm inflates both runs of the pair;
  // the ratio survives), where comparing two independent best-of minima
  // still swings by several percent on a noisy single-core host.
  const std::vector<double>& base_samples = results.front().samples;
  for (LaneResult& r : results) {
    std::vector<double> ratios;
    const std::size_t n = std::min(r.samples.size(), base_samples.size());
    for (std::size_t c = 0; c < n; ++c)
      ratios.push_back(r.samples[c] / std::max(base_samples[c], 1e-12));
    if (ratios.empty()) continue;
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    r.overhead_pct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }

  TextTable table({"lane", "pkts/sec", "overhead", "identity", "what"});
  for (const LaneResult& r : results)
    table.add_row({r.lane->name, TextTable::num(r.packets_per_sec, 0),
                   TextTable::num(r.overhead_pct, 2) + "%",
                   r.identity_ok ? "ok" : "VIOLATED", r.lane->detail});
  table.print(std::cout);
  std::cout << "overhead: throughput delta vs the base lane "
               "(negative = within run-to-run noise).\n"
               "acceptance targets: exporter / trace / http lanes within 3% "
               "of base; profiling lane within 5%.\n";

  write_json(results);
  std::cout << "machine-readable results: BENCH_obs.json\n";
}

// ---- microbenchmarks: the primitive costs ----

void BM_CounterAdd(benchmark::State& state) {
  // The hot-path unit: one relaxed fetch_add on the caller's own line.
  obs::Registry registry(8);
  obs::Counter& c = registry.counter("bench_total", "bench");
  for (auto _ : state) c.add(3);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterAdd)->Unit(benchmark::kNanosecond);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry registry(8);
  obs::Histogram& h = registry.histogram("bench_lat", "bench");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(3, v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
    v &= (1ULL << 30) - 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord)->Unit(benchmark::kNanosecond);

void BM_ScopedTimerDisabled(benchmark::State& state) {
  // What every pipeline stage pays when profiling is off: two branches.
  obs::Registry registry(8);
  obs::StageProfiler profiler(registry);
  for (auto _ : state) {
    obs::ScopedTimer timer(&profiler, obs::Stage::Extract, 3);
    benchmark::DoNotOptimize(&timer);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedTimerDisabled)->Unit(benchmark::kNanosecond);

void BM_ScopedTimerEnabled(benchmark::State& state) {
  // Enabled: two TSC tick reads plus one histogram record (conversion to
  // nanoseconds happens once at record time via the calibrated ratio).
  obs::Registry registry(8);
  obs::StageProfiler profiler(registry);
  profiler.set_enabled(true);
  for (auto _ : state) {
    obs::ScopedTimer timer(&profiler, obs::Stage::Extract, 3);
    benchmark::DoNotOptimize(&timer);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedTimerEnabled)->Unit(benchmark::kNanosecond);

void BM_SpanRecord(benchmark::State& state) {
  // One causal-span record on a sampled flow: mutex push into the slot ring.
  // Paid per stage per sampled flow event, never on unsampled flows.
  obs::SpanRing ring(4096, 0);
  std::uint64_t flow = 0x9E3779B97F4A7C15ULL;
  std::uint64_t parent = 0;
  for (auto _ : state) {
    parent = ring.record(obs::SpanKind::Extract, flow, parent, 1000, 2000, 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanRecord)->Unit(benchmark::kNanosecond);

void BM_PrometheusRender(benchmark::State& state) {
  // Scrape cost for a full pipeline registry (off the hot path, but bounds
  // how often an exporter may reasonably fire).
  obs::ObsConfig config;
  config.profile_stages = true;
  obs::PipelineObs obs(kShards, config);
  for (int s = 0; s <= kShards; ++s) {
    obs.packets_total.add(s, 1000);
    obs.profiler.record(obs::Stage::Extract, std::min(s, kShards - 1), 1234);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::prometheus_text(obs.registry()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PrometheusRender)->Unit(benchmark::kMicrosecond);

}  // namespace

VPSCOPE_BENCH_MAIN(report)
