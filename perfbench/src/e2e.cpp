// End-to-end run (tracing off). Three kinds of window rotate until the run
// length is spent, so every metric samples the whole run rather than one
// interval of it:
//
//   single   replay_into(VideoFlowPipeline), final flush included -> Mpps
//   sharded  replay_into(ShardedPipeline, nproc - 1 workers)      -> Mpps
//            (reported beside the metrics, not one of them)
//   verdict  the same single-thread replay with each on_packet call
//            timed; the call after which a flow has its verdict is that
//            flow's time-to-verdict, split by transport; p99 is the median
//            of the p99s of consecutive runs of >= 1,000 verdicts
//
// One warm-up round of each runs first and is discarded. Every pass, timed
// or not, goes through the correctness gate.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "passes.hpp"
#include "pipeline/bank_serialize.hpp"
#include "runs.hpp"

namespace perfbench {

using namespace vpscope;

namespace {

constexpr int kSetupRepetitions = 31;
constexpr std::size_t kMinWindows = 5;
/// Verdicts per p99 window, so ten samples lie beyond each window's p99.
constexpr std::size_t kMinVerdictSamples = 1000;
/// Hard cap on how far the minimums above may stretch a run.
constexpr double kMaxOvertimeSeconds = 60;

std::uint8_t ip_protocol(const net::Packet& p) {
  if (p.data.empty()) return 0;
  const int version = p.data[0] >> 4;
  if (version == 4 && p.data.size() > 9) return p.data[9];
  if (version == 6 && p.data.size() > 6) return p.data[6];
  return 0;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

struct VerdictTimes {
  std::vector<double> tcp_us, quic_us;
  /// The workload's own verdicts, both transports (the probe's excluded).
  std::vector<double> own_us;
  std::uint64_t allocations = 0;  // inside on_packet calls
  std::uint64_t packets = 0;
};

/// Single-thread replay timing every on_packet call. A call after which the
/// pipeline's classified counters moved gave a flow its verdict; with inline
/// classification no queue lies between the packet and the verdict.
PassResult verdict_pass(const pipeline::ClassifierBank& bank,
                        const Capture& capture,
                        const capture::ReplayOptions& replay,
                        VerdictTimes& out) {
  PassResult result;
  telemetry::SessionStore store;
  {
    pipeline::VideoFlowPipeline pipe(&bank);
    pipe.set_sink(
        [&store](telemetry::SessionRecord r) { store.insert(std::move(r)); });
    const obs::PipelineObs& o = pipe.observability();
    const auto verdicts = [&o] {
      return o.classified_composite.value(0) + o.classified_partial.value(0) +
             o.classified_unknown.value(0);
    };
    const std::uint64_t t0 = now_ns();
    const capture::ReplayStats stats =
        replay_feeding(capture, replay, pipe, [&](net::Packet&& p) {
          const bool quic = ip_protocol(p) == net::kProtoUdp;
          const std::uint64_t before = verdicts();
          const std::uint64_t allocations = thread_allocations();
          const std::uint64_t start = now_ns();
          pipe.on_packet(std::move(p));
          const std::uint64_t end = now_ns();
          out.allocations += thread_allocations() - allocations;
          if (verdicts() != before) {
            const double us = static_cast<double>(end - start) / 1e3;
            (quic ? out.quic_us : out.tcp_us).push_back(us);
            out.own_us.push_back(us);
          }
        });
    pipe.flush_all();
    result.seconds = seconds_between(t0, now_ns());
    result.frames = stats.frames;
    result.stats = pipe.stats();
  }
  out.packets += result.frames;
  result.records = store.records();
  return result;
}

/// One verdict window: the main capture, then the probe of the transport
/// the main capture lacks. The probe adds to that transport's p50 only;
/// p99 and allocation counts cover the main capture.
void verdict_window(const Setup& setup, Gate& gate, VerdictTimes& out) {
  const Workload& w = setup.workload;
  gate.check(w.main, verdict_pass(*setup.bank, w.main, w.replay, out),
             "verdict", false);
  if (w.verdict_probe) {
    VerdictTimes probe;
    gate.check(*w.verdict_probe,
               verdict_pass(*setup.bank, *w.verdict_probe, w.replay, probe),
               "verdict probe", false);
    append(out.tcp_us, probe.tcp_us);
    append(out.quic_us, probe.quic_us);
  }
}

/// deserialize_bank (parse, CRC, validate, compile) plus construction of
/// both front-ends, sharded workers started. Teardown is not timed.
double setup_once(const Bytes& bundle, int workers) {
  const std::uint64_t t0 = now_ns();
  auto bank = pipeline::deserialize_bank(bundle);
  if (!bank) throw std::runtime_error("model bundle rejected on reload");
  pipeline::VideoFlowPipeline single(&*bank);
  pipeline::ShardedPipeline sharded(&*bank, sharded_options(workers));
  return seconds_between(t0, now_ns());
}

double mpps(const PassResult& r) {
  return static_cast<double>(r.frames) / r.seconds / 1e6;
}

}  // namespace

int run_end_to_end(Setup& setup) {
  const Workload& w = setup.workload;
  const pipeline::ClassifierBank& bank = *setup.bank;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i)
    setup_s.push_back(setup_once(setup.bank_bytes, setup.workers));
  const bool peak_reset = trim_and_reset_peak_rss();

  Gate gate;
  gate.check(w.main, single_pass(bank, w.main, w.replay), "warm-up single",
             false);
  gate.check(w.main, sharded_pass(bank, w.main, w.replay, setup.workers),
             "warm-up sharded", true);
  {
    VerdictTimes discarded;
    verdict_window(setup, gate, discarded);
  }

  std::vector<double> single, sharded, sharded_cpus, window_tcp, window_quic;
  VerdictTimes pooled;
  const CpuTicks ticks_before = cpu_ticks();
  const std::uint64_t start = now_ns();
  for (;;) {
    const PassResult one = single_pass(bank, w.main, w.replay);
    gate.check(w.main, one, "single", false);
    single.push_back(mpps(one));

    const double cpu0 = process_cpu_seconds();
    const PassResult many = sharded_pass(bank, w.main, w.replay, setup.workers);
    sharded_cpus.push_back((process_cpu_seconds() - cpu0) / many.seconds);
    gate.check(w.main, many, "sharded", true);
    sharded.push_back(mpps(many));

    VerdictTimes window;
    verdict_window(setup, gate, window);
    if (!window.tcp_us.empty())
      window_tcp.push_back(summarize(window.tcp_us).median);
    if (!window.quic_us.empty())
      window_quic.push_back(summarize(window.quic_us).median);
    append(pooled.tcp_us, window.tcp_us);
    append(pooled.quic_us, window.quic_us);
    append(pooled.own_us, window.own_us);
    pooled.allocations += window.allocations;
    pooled.packets += window.packets;

    const double elapsed = seconds_between(start, now_ns());
    const bool enough =
        single.size() >= kMinWindows &&
        pooled.own_us.size() >= kMinVerdictSamples;
    if ((elapsed >= setup.seconds && enough) ||
        elapsed >= setup.seconds + kMaxOvertimeSeconds)
      break;
  }
  const double measured_s = seconds_between(start, now_ns());
  const double stolen = steal_share(ticks_before, cpu_ticks());

  const Summary s_p99 =
      summarize(windowed_p99s(pooled.own_us, kMinVerdictSamples));

  const Summary s_single = summarize(single), s_sharded = summarize(sharded);
  const Summary s_sharded_cpus = summarize(sharded_cpus);
  const Summary s_tcp = summarize(pooled.tcp_us);
  const Summary s_quic = summarize(pooled.quic_us);
  const Summary s_setup = summarize(setup_s);
  const double rss_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
  const double accuracy = gate.composite_accuracy(w.main);

  const std::vector<Metric> metrics = {
      {"mpps_1core", s_single.median, "Mpps"},
      {"verdict_tcp_p50_us", s_tcp.median, "us"},
      {"verdict_quic_p50_us", s_quic.median, "us"},
      {"verdict_p99_us", s_p99.median, "us"},
      {"setup_s", s_setup.median, "s"},
      {"rss_mb", rss_mb, "MB"},
      {"composite_accuracy", accuracy, "ratio"},
  };

  // Steadiness: each metric's spread across this run's own windows.
  const std::vector<std::pair<std::string, Summary>> windows = {
      {"mpps_1core", s_single},
      {"verdict_tcp_p50_us", summarize(window_tcp)},
      {"verdict_quic_p50_us", summarize(window_quic)},
      {"verdict_p99_us", s_p99},
      {"setup_s", s_setup},
  };
  JsonObject steadiness;
  for (const auto& [name, summary] : windows)
    steadiness.raw(name, render_summary(summary));
  steadiness.raw("verdict_tcp_samples", render_summary(s_tcp));
  steadiness.raw("verdict_quic_samples", render_summary(s_quic));
  steadiness.raw("verdict_p99_support",
                 JsonObject()
                     .integer("samples", pooled.own_us.size())
                     .integer("min_window_samples", kMinVerdictSamples)
                     .render());

  // The sharded rate is reported, not gated: it tracks how many CPUs the
  // host actually gave the process during the pass (sharded_cpus), which on
  // a shared virtual machine swings between one and nproc from one minute
  // to the next.
  const JsonObject sharded_report =
      JsonObject()
          .raw("mpps_sharded", render_summary(s_sharded))
          .raw("cpus_received", render_summary(s_sharded_cpus))
          .integer("workers", static_cast<std::uint64_t>(setup.workers));

  const std::uint64_t main_packets = pooled.packets;
  const JsonObject counts =
      JsonObject()
          .raw("inputs", render_input_counts(setup))
          .integer("verdict_samples_tcp", pooled.tcp_us.size())
          .integer("verdict_samples_quic", pooled.quic_us.size())
          .integer("on_packet_allocations", pooled.allocations)
          .num("pipeline.allocs_per_packet",
               main_packets ? static_cast<double>(pooled.allocations) /
                                  static_cast<double>(main_packets)
                            : 0.0)
          .boolean("rss_peak_reset", peak_reset)
          .num("cpu_steal_share", stolen);

  std::printf(
      "perfbench %s seed=%llu workers=%d measured=%.1fs windows=%zu "
      "steal=%.1f%%\n",
      w.name.c_str(), static_cast<unsigned long long>(w.seed), setup.workers,
      measured_s, single.size(), 100 * stolen);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-22s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (i < windows.size())
      std::printf("  window q1 %.6g q3 %.6g n=%zu", windows[i].second.q1,
                  windows[i].second.q3, windows[i].second.n);
    std::printf("\n");
  }
  std::printf(
      "  %-22s %14.6g %-6s  window q1 %.6g q3 %.6g n=%zu (reported, not "
      "gated: %.2f CPUs received)\n",
      "mpps_sharded", s_sharded.median, "Mpps", s_sharded.q1, s_sharded.q3,
      s_sharded.n, s_sharded_cpus.median);
  std::printf("header %s\n", render_run_header(setup).c_str());
  std::printf("counts %s\n", counts.render().c_str());
  std::printf("steadiness %s\n", steadiness.render().c_str());
  std::printf("sharded %s\n", sharded_report.render().c_str());
  for (const std::string& message : gate.messages())
    std::printf("FAIL %s\n", message.c_str());
  const bool correct = gate.failed() == 0;
  std::printf("failure_share %.6g (%llu of %llu flow checks)%s\n",
              static_cast<double>(gate.failed()) /
                  static_cast<double>(
                      std::max<std::uint64_t>(gate.attempted(), 1)),
              static_cast<unsigned long long>(gate.failed()),
              static_cast<unsigned long long>(gate.attempted()),
              correct ? "" : " -- timings are NOT valid");
  std::printf("%s\n",
              render_result(correct, gate.attempted(), gate.failed(), metrics)
                  .c_str());
  return 0;
}

}  // namespace perfbench
