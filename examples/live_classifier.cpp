// live_classifier: an ISP-style live monitor. Three ingest modes feed the
// same pipeline and print one line per classified session as it completes —
// what an operator's console tailing the paper's deployment would show:
//
//   live_classifier [n_flows] [prometheus_path]
//       synthesize a mixed campus workload in memory (default, 120 flows)
//   live_classifier --pcap <file> [--pace <x>]
//       replay a capture file (e.g. a golden pcap or a dataset_tool export)
//       through the DESIGN.md §5i front-end; --pace 1 replays at recorded
//       speed, --pace 100 at 100x, default as-fast-as-possible
//   live_classifier --iface <name> [--seconds <n>]
//       tap a real interface via the TPACKETv3 ring (needs CAP_NET_RAW;
//       try --iface lo and some local HTTPS traffic)
//   live_classifier --model-dir <dir> [n_flows]
//       serve from a watched model directory (DESIGN.md §5j): dir/bank.vpsb
//       is loaded (or trained and published on first run), new *.vpsb drops
//       are admitted through the lifecycle's canary rollout between traffic
//       rounds, and SIGHUP forces an immediate rescan — retrain, save_bank
//       into the directory, kill -HUP, and watch the generation move
//
// With a prometheus_path argument (synth mode), the observability registry
// is written there in Prometheus text format after the run; stage latencies
// are profiled and printed in every mode.
//
// Introspection plane (DESIGN.md §5k), available in every mode:
//   --http-port <p>   serve /metrics /healthz /snapshot /trace on
//                     127.0.0.1:<p> while the run is live (curl it)
//   --trace-out <f>   trace every flow's causal spans and write Chrome
//                     trace_event JSON to <f> at the end (load the file in
//                     chrome://tracing or Perfetto)
// A crash flight recorder is always armed: a fatal signal, canary rollback
// or artifact quarantine dumps a vpscope-postmortem-*.json black box.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "capture/afpacket.hpp"
#include "capture/replay.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "pipeline/bank_serialize.hpp"
#include "pipeline/model_lifecycle.hpp"
#include "pipeline/pipeline.hpp"
#include "synth/dataset.hpp"

using namespace vpscope;
using fingerprint::Provider;
using fingerprint::Transport;

namespace {

// ---- introspection plane (DESIGN.md §5k), shared by every mode ----

int g_http_port = 0;            // 0 = no embedded scrape server
const char* g_trace_out = nullptr;  // null = no span tracing

/// Applies the global introspection flags to a mode's obs config.
void apply_introspection_config(obs::ObsConfig& config) {
  if (g_trace_out) {
    config.span_sample_n = 1;  // console tool: span every flow
    // Every packet of a spanned flow records a span; keep enough buffer
    // that a demo run's handshake spans survive the payload-packet flood.
    config.span_ring_capacity = std::size_t{1} << 16;
  }
}

/// Starts the embedded scrape server when --http-port was given.
std::unique_ptr<obs::HttpServer> start_http(
    const obs::PipelineObs& o, std::function<std::string()> app_status = {}) {
  if (g_http_port == 0) return nullptr;
  obs::HttpServer::Options options;
  options.port = static_cast<std::uint16_t>(g_http_port);
  auto server = std::make_unique<obs::HttpServer>(options);
  obs::IntrospectionOptions introspection;
  introspection.app_status = std::move(app_status);
  obs::install_introspection(*server, o, std::move(introspection));
  std::string error;
  if (!server->start(&error)) {
    std::fprintf(stderr, "introspection server: %s\n", error.c_str());
    return nullptr;
  }
  std::printf(
      "introspection: http://127.0.0.1:%u/metrics  (also /healthz "
      "/snapshot /trace?n=K)\n",
      static_cast<unsigned>(server->port()));
  return server;
}

/// Writes the Chrome trace when --trace-out was given.
void write_trace(const obs::PipelineObs& o) {
  if (!g_trace_out) return;
  if (obs::write_file_atomic(g_trace_out,
                             obs::chrome_trace_json(o.recent_spans())))
    std::printf("chrome trace written to %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                g_trace_out);
  else
    std::printf("FAILED to write %s\n", g_trace_out);
}

void print_session(int session_no, const telemetry::SessionRecord& record) {
  const char* outcome =
      record.outcome == telemetry::Outcome::Composite ? "OK "
      : record.outcome == telemetry::Outcome::Partial ? "PART"
                                                      : "UNKN";
  std::printf(
      "#%03d %-4s %-8s %-4s platform=%-22s conf=%5.1f%%  %6.1fs %7.2fMB\n",
      session_no, outcome, to_string(record.provider).c_str(),
      to_string(record.transport).c_str(),
      record.platform ? to_string(*record.platform).c_str()
      : record.device ? (to_string(*record.device) + "/?").c_str()
                      : "?",
      record.confidence * 100, record.counters.duration_s(),
      static_cast<double>(record.counters.bytes_down) / 1e6);
}

void print_summary(const pipeline::VideoFlowPipeline& pipe) {
  const auto& stats = pipe.stats();
  std::printf(
      "\nsummary: %llu packets, %llu HTTPS flows, %llu video flows "
      "(%llu composite, %llu partial, %llu unknown)\n",
      static_cast<unsigned long long>(stats.packets_total),
      static_cast<unsigned long long>(stats.flows_total),
      static_cast<unsigned long long>(stats.video_flows),
      static_cast<unsigned long long>(stats.classified_composite),
      static_cast<unsigned long long>(stats.classified_partial),
      static_cast<unsigned long long>(stats.classified_unknown));

  std::puts("stage latency p50/p99 (ns):");
  const obs::PipelineObs& o = pipe.observability();
  for (int s = 0; s < static_cast<int>(obs::Stage::kCount); ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const obs::HistogramSnapshot snap = o.profiler.histogram(stage).snapshot();
    std::printf("  %-10s %8llu %8llu  (%llu samples)\n",
                std::string(obs::stage_name(stage)).c_str(),
                static_cast<unsigned long long>(snap.percentile(50)),
                static_cast<unsigned long long>(snap.percentile(99)),
                static_cast<unsigned long long>(snap.count));
  }
}

pipeline::ClassifierBank train_bank() {
  std::puts("training classifier bank on the lab dataset...");
  pipeline::ClassifierBank bank;
  bank.train(synth::generate_lab_dataset(42, 0.5));
  return bank;
}

/// --pcap: the offline twin of the tap — a capture file through the §5i
/// replay driver into the exact pipeline the live path feeds.
int run_pcap(const char* path, double pace) {
  const auto bank = train_bank();
  obs::ObsConfig obs_config;
  obs_config.profile_stages = true;
  apply_introspection_config(obs_config);
  pipeline::VideoFlowPipeline pipe(&bank, {}, obs_config);
  const auto http = start_http(pipe.observability());
  obs::FlightRecorder recorder(&pipe.observability());
  recorder.install_crash_handler();
  int session_no = 0;
  pipe.set_sink([&session_no](telemetry::SessionRecord record) {
    print_session(++session_no, record);
  });

  std::printf("replaying %s%s...\n\n", path,
              pace > 0 ? " (paced)" : " (as fast as possible)");
  capture::ReplayOptions options;
  options.pace = pace;
  options.flush_interval_us = 1'000'000;  // age idle flows per packet-second
  const auto image = capture::read_file_bytes(path);
  if (!image) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  const auto stats = capture::replay_into(ByteView(*image), pipe, options);
  if (!stats.ok) {
    std::fprintf(stderr, "replay failed after %llu frames: %s\n",
                 static_cast<unsigned long long>(stats.frames),
                 stats.error.c_str());
    return 1;
  }
  std::printf(
      "\nreplay: %llu frames (%llu non-IP skipped, %llu truncated), "
      "%.3f Mpps, %.2f Gbps offered wire rate\n",
      static_cast<unsigned long long>(stats.frames),
      static_cast<unsigned long long>(stats.non_ip_frames),
      static_cast<unsigned long long>(stats.truncated_frames), stats.mpps(),
      stats.gbps());
  print_summary(pipe);
  write_trace(pipe.observability());
  return 0;
}

/// --iface: the real thing — a TPACKETv3 ring on a live interface.
int run_live(const char* iface, int seconds) {
  if (!capture::AfPacketRing::compiled_in()) {
    std::fprintf(stderr, "AF_PACKET support not compiled in\n");
    return 1;
  }
  const auto bank = train_bank();
  obs::ObsConfig obs_config;
  apply_introspection_config(obs_config);
  pipeline::VideoFlowPipeline pipe(&bank, {}, obs_config);
  const auto http = start_http(pipe.observability());
  obs::FlightRecorder recorder(&pipe.observability());
  recorder.install_crash_handler();
  int session_no = 0;
  pipe.set_sink([&session_no](telemetry::SessionRecord record) {
    print_session(++session_no, record);
  });

  capture::AfPacketOptions options;
  options.interface_name = iface;
  options.block_size = 1 << 20;
  options.block_count = 16;
  capture::LiveCapture capture(options);
  if (const auto err = capture.open()) {
    std::fprintf(stderr, "cannot open %s: %s\n", iface, err->c_str());
    return 1;
  }

  std::printf("capturing on %s for %d s...\n\n", iface, seconds);
  std::atomic<bool> stop{false};
  std::thread timer([&stop, seconds] {
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    stop.store(true, std::memory_order_relaxed);
  });
  const auto delivered =
      capture.run(stop, [&pipe](net::Packet&& p) {
        const std::uint64_t now = p.timestamp_us;
        pipe.on_packet(std::move(p));
        pipe.flush_idle(now, 300'000'000);
      });
  timer.join();
  pipe.flush_all();
  std::printf("\ncapture: %llu IP packets delivered, %llu non-IP frames, "
              "%llu kernel drops\n",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(capture.non_ip_frames()),
              static_cast<unsigned long long>(capture.kernel_drops()));
  print_summary(pipe);
  write_trace(pipe.observability());
  return 0;
}

int run_synth(int n_flows, const char* prometheus_path) {
  const auto bank = train_bank();
  obs::ObsConfig obs_config;
  obs_config.profile_stages = true;
  obs_config.span_sample_n = 1;  // console tool: trace every flow
  apply_introspection_config(obs_config);
  pipeline::VideoFlowPipeline pipe(&bank, {}, obs_config);
  const auto http = start_http(pipe.observability());
  obs::FlightRecorder recorder(&pipe.observability());
  recorder.install_crash_handler();
  int session_no = 0;
  pipe.set_sink([&session_no](telemetry::SessionRecord record) {
    print_session(++session_no, record);
  });

  // A mixed workload: every supported platform x provider, some unknown
  // stacks, and non-video HTTPS flows the pipeline must ignore.
  Rng rng(1234);
  synth::FlowSynthesizer synthesizer(rng.fork());
  std::uint64_t now = 0;
  std::vector<net::Packet> stream;

  for (int i = 0; i < n_flows; ++i) {
    fingerprint::StackProfile profile;
    if (rng.bernoulli(0.12)) {
      profile = fingerprint::make_unknown_profile(
          fingerprint::all_providers()[rng.uniform_int(0, 3)],
          rng.uniform_int(0, fingerprint::num_unknown_profiles() - 1));
    } else {
      // Draw a supported (platform, provider, transport) uniformly.
      while (true) {
        const auto platform = rng.pick(fingerprint::all_platforms());
        const auto provider =
            fingerprint::all_providers()[rng.uniform_int(0, 3)];
        const bool quic = rng.bernoulli(0.4);
        const auto transport = quic ? Transport::Quic : Transport::Tcp;
        const bool ok = quic ? fingerprint::supports_quic(platform, provider)
                             : fingerprint::supports_tcp(platform, provider);
        if (!ok) continue;
        profile = fingerprint::make_profile(platform, provider, transport);
        break;
      }
    }
    if (rng.bernoulli(0.1)) {
      // Non-video HTTPS flow: same stacks, uninteresting SNI.
      profile.sni_candidates = {"cdn.example.net", "www.example.org"};
    }

    synth::FlowOptions options;
    options.start_time_us = now;
    options.capture_hops = rng.uniform_int(1, 4);
    options.payload_bytes = rng.uniform(500'000, 80'000'000);
    options.payload_duration_us = rng.uniform(10, 180) * 1'000'000;
    const auto flow = synthesizer.synthesize(profile, options);
    stream.insert(stream.end(), flow.packets.begin(), flow.packets.end());
    now += rng.uniform(50'000, 2'000'000);
  }

  // Interleave by timestamp, as a capture tap would deliver them.
  std::sort(stream.begin(), stream.end(),
            [](const net::Packet& a, const net::Packet& b) {
              return a.timestamp_us < b.timestamp_us;
            });

  std::printf("feeding %zu packets...\n\n", stream.size());
  for (const auto& packet : stream) {
    pipe.on_packet(packet);
    pipe.flush_idle(packet.timestamp_us, 300'000'000);  // 5 min idle timeout
  }
  pipe.flush_all();

  print_summary(pipe);
  if (prometheus_path) {
    const obs::PipelineObs& o = pipe.observability();
    if (obs::write_file_atomic(prometheus_path,
                               obs::prometheus_text(o.registry())))
      std::printf("prometheus scrape written to %s\n", prometheus_path);
    else
      std::printf("FAILED to write %s\n", prometheus_path);
  }
  write_trace(pipe.observability());
  return 0;
}

// ---- --model-dir: zero-downtime model lifecycle (DESIGN.md §5j) ----

/// Async-signal-safe flag only: the handler must not touch the lifecycle.
volatile std::sig_atomic_t g_sighup = 0;
void on_sighup(int) { g_sighup = 1; }

int run_model_dir(const char* dir, int n_flows) {
  // Install before the (seconds-long) initial training: a HUP arriving
  // while we bootstrap must queue a rescan, not kill the process.
  std::signal(SIGHUP, on_sighup);
  const std::string bank_path = std::string(dir) + "/bank.vpsb";
  std::string why;
  std::shared_ptr<const pipeline::ClassifierBank> initial;
  if (auto loaded = pipeline::load_bank(bank_path, &why)) {
    std::printf("loaded %s\n", bank_path.c_str());
    initial = std::make_shared<const pipeline::ClassifierBank>(
        std::move(*loaded));
  } else {
    std::printf("no servable bank at %s (%s)\n", bank_path.c_str(),
                why.c_str());
    auto trained = std::make_shared<pipeline::ClassifierBank>(train_bank());
    if (const auto ec = pipeline::save_bank(*trained, bank_path))
      std::printf("warning: cannot publish %s: %s\n", bank_path.c_str(),
                  ec.message().c_str());
    else
      std::printf("published %s\n", bank_path.c_str());
    initial = std::move(trained);
  }

  // Console-demo scale: route 40% of flows to an armed canary and judge it
  // after 10 flows per route, so a rollout resolves within the few rounds
  // the demo runs (production defaults would need thousands of flows).
  pipeline::LifecycleOptions lifecycle_options;
  lifecycle_options.canary_permille = 400;
  lifecycle_options.canary_min_flows = 10;
  lifecycle_options.stable_min_flows = 10;
  pipeline::ModelLifecycle lifecycle(initial, 1, lifecycle_options);
  pipeline::ModelDirWatcher watcher(&lifecycle, dir);
  watcher.poll();  // adopt the directory's initial inventory silently

  obs::ObsConfig obs_config;
  apply_introspection_config(obs_config);
  pipeline::VideoFlowPipeline pipe(nullptr, {}, obs_config);
  pipe.attach_lifecycle(&lifecycle, 0);
  // Lifecycle state rides along in /healthz ("app") and in every
  // flight-recorder postmortem ("context").
  const auto lifecycle_json = [&lifecycle] {
    const auto status = lifecycle.status();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"generation\":%llu,\"model_gen\":%llu,\"canary\":%s,"
                  "\"swaps\":%llu,\"rollbacks\":%llu,\"quarantined\":%llu}",
                  static_cast<unsigned long long>(status.generation),
                  static_cast<unsigned long long>(status.model_generation),
                  status.canary_active ? "true" : "false",
                  static_cast<unsigned long long>(status.swaps),
                  static_cast<unsigned long long>(status.rollbacks),
                  static_cast<unsigned long long>(status.quarantined));
    return std::string(buf);
  };
  const auto http = start_http(pipe.observability(), lifecycle_json);
  obs::FlightRecorder recorder(&pipe.observability());
  recorder.set_context_provider(lifecycle_json);
  recorder.install_crash_handler();
  int session_no = 0;
  pipe.set_sink([&session_no](telemetry::SessionRecord record) {
    print_session(++session_no, record);
  });

  constexpr int kRounds = 6;
  const int flows_per_round = std::max(1, n_flows / kRounds);
  Rng rng(1234);
  synth::FlowSynthesizer synthesizer(rng.fork());
  std::uint64_t now = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<net::Packet> stream;
    for (int i = 0; i < flows_per_round; ++i) {
      const auto platform = rng.pick(fingerprint::all_platforms());
      const auto provider = fingerprint::all_providers()[rng.uniform_int(0, 3)];
      const auto transport =
          fingerprint::supports_quic(platform, provider) && rng.bernoulli(0.4)
              ? Transport::Quic
              : Transport::Tcp;
      if (!fingerprint::supports_tcp(platform, provider) &&
          transport == Transport::Tcp) {
        --i;
        continue;
      }
      synth::FlowOptions options;
      options.start_time_us = now;
      const auto flow = synthesizer.synthesize(
          fingerprint::make_profile(platform, provider, transport), options);
      stream.insert(stream.end(), flow.packets.begin(), flow.packets.end());
      now += rng.uniform(50'000, 500'000);
    }
    std::sort(stream.begin(), stream.end(),
              [](const net::Packet& a, const net::Packet& b) {
                return a.timestamp_us < b.timestamp_us;
              });
    for (const auto& packet : stream) pipe.on_packet(packet);
    pipe.flush_all();

    // Control plane between rounds: rescan the directory (immediately on
    // SIGHUP), feed the canary scoreboard judge.
    if (g_sighup) {
      g_sighup = 0;
      std::puts("SIGHUP: rescanning model directory");
    }
    std::string log;
    const std::uint64_t quarantined_before = lifecycle.status().quarantined;
    if (watcher.poll(&log) > 0) std::fputs(log.c_str(), stdout);
    const auto decision = lifecycle.poll();
    if (decision == pipeline::ModelLifecycle::Decision::Promoted)
      std::puts("canary PROMOTED to stable");
    else if (decision == pipeline::ModelLifecycle::Decision::RolledBack)
      std::puts("canary ROLLED BACK (artifact quarantined)");
    const auto status = lifecycle.status();
    // Black-box the incident paths (DESIGN.md §5k): the spans/metrics that
    // led to the judgement survive the rollout's undo.
    if (decision == pipeline::ModelLifecycle::Decision::RolledBack)
      recorder.dump("canary_rollback");
    else if (status.quarantined > quarantined_before)
      recorder.dump("artifact_quarantine");
    std::printf(
        "round %d/%d: generation=%llu model_gen=%llu canary=%s "
        "swaps=%llu rollbacks=%llu quarantined=%llu\n",
        round + 1, kRounds, static_cast<unsigned long long>(status.generation),
        static_cast<unsigned long long>(status.model_generation),
        status.canary_active ? "ACTIVE" : "-",
        static_cast<unsigned long long>(status.swaps),
        static_cast<unsigned long long>(status.rollbacks),
        static_cast<unsigned long long>(status.quarantined));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  print_summary(pipe);
  write_trace(pipe.observability());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* pcap_path = nullptr;
  const char* iface = nullptr;
  const char* model_dir = nullptr;
  double pace = 0.0;
  int seconds = 10;
  int n_flows = 120;
  const char* prometheus_path = nullptr;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pcap") == 0 && i + 1 < argc) {
      pcap_path = argv[++i];
    } else if (std::strcmp(argv[i], "--iface") == 0 && i + 1 < argc) {
      iface = argv[++i];
    } else if (std::strcmp(argv[i], "--pace") == 0 && i + 1 < argc) {
      pace = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--model-dir") == 0 && i + 1 < argc) {
      model_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--http-port") == 0 && i + 1 < argc) {
      g_http_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      g_trace_out = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr,
                   "usage: live_classifier [n_flows] [prometheus_path]\n"
                   "       live_classifier --pcap <file> [--pace <x>]\n"
                   "       live_classifier --iface <name> [--seconds <n>]\n"
                   "       live_classifier --model-dir <dir> [n_flows]\n"
                   "any mode: [--http-port <p>] [--trace-out <file>]\n");
      return 2;
    } else if (positional == 0) {
      n_flows = std::atoi(argv[i]);
      ++positional;
    } else {
      prometheus_path = argv[i];
      ++positional;
    }
  }

  if (pcap_path) return run_pcap(pcap_path, pace);
  if (iface) return run_live(iface, seconds);
  if (model_dir) return run_model_dir(model_dir, n_flows);
  return run_synth(n_flows, prometheus_path);
}
