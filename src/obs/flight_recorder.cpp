#include "obs/flight_recorder.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>

#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"

namespace vpscope::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::uint64_t wall_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::atomic<FlightRecorder*> g_crash_recorder{nullptr};

extern "C" void vpscope_crash_signal_handler(int signo) {
  // Best-effort: rendering allocates, which is not async-signal-safe; on a
  // crash path the choice is a likely dump versus a guaranteed nothing.
  if (FlightRecorder* recorder =
          g_crash_recorder.exchange(nullptr, std::memory_order_acq_rel)) {
    char reason[32];
    std::snprintf(reason, sizeof(reason), "signal_%d", signo);
    recorder->dump(reason);
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT, SIGILL};

}  // namespace

FlightRecorder::FlightRecorder(const PipelineObs* obs,
                               FlightRecorderOptions options)
    : obs_(obs), options_(std::move(options)) {}

FlightRecorder::~FlightRecorder() {
  if (!handler_installed_) return;
  FlightRecorder* self = this;
  if (g_crash_recorder.compare_exchange_strong(self, nullptr,
                                               std::memory_order_acq_rel)) {
    for (int signo : kCrashSignals) std::signal(signo, SIG_DFL);
  }
}

void FlightRecorder::set_context_provider(
    std::function<std::string()> provider) {
  const std::lock_guard<std::mutex> lock(mutex_);
  context_ = std::move(provider);
}

std::string FlightRecorder::render(std::string_view reason,
                                   std::string_view detail) const {
  std::string out;
  out.reserve(16384);
  out += "{\"reason\":";
  append_json_string(out, reason);
  out += ",\"detail\":";
  append_json_string(out, detail);
  out += ",\"wall_ms\":";
  append_u64(out, wall_ms());
  out += ",\"mono_ns\":";
  append_u64(out, tick_now_ns());
  // Last-N spans, merged and ordered; the flow timeline and lifecycle at
  // the moment of the event.
  out += ",\"spans\":[";
  bool first = true;
  for (const Span& s : obs_->recent_spans(options_.max_spans)) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"";
    out += span_kind_name(s.kind);
    out += "\",\"flow\":";
    append_u64(out, s.flow_hash);
    out += ",\"span\":";
    append_u64(out, s.span_id);
    out += ",\"parent\":";
    append_u64(out, s.parent_id);
    out += ",\"slot\":";
    append_u64(out, static_cast<std::uint64_t>(s.slot));
    out += ",\"start_ns\":";
    append_u64(out, s.start_ns);
    out += ",\"dur_ns\":";
    append_u64(out, s.dur_ns);
    out += ",\"model_gen\":";
    append_u64(out, s.model_gen);
    append_span_detail(out, s);
    out += '}';
  }
  out += "],\"metrics\":";
  out += json_text(obs_->registry());
  out += ",\"context\":";
  std::function<std::string()> context;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    context = context_;
  }
  const std::string app = context ? context() : std::string{};
  out += app.empty() ? "null" : app.c_str();
  out += '}';
  return out;
}

std::string FlightRecorder::dump(std::string_view reason,
                                 std::string_view detail) {
  const std::string body = render(reason, detail);
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    path = options_.dir;
    if (!path.empty() && path.back() != '/') path += '/';
    path += options_.prefix;
    path += '-';
    path += std::string(reason);
    path += '-';
    char stamp[48];
    std::snprintf(stamp, sizeof(stamp), "%" PRIu64 "-%" PRIu64, wall_ms(),
                  ++seq_);
    path += stamp;
    path += ".json";
  }
  if (!write_file_atomic(path, body)) return {};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_path_ = path;
  }
  dumps_written_.fetch_add(1, std::memory_order_relaxed);
  return path;
}

std::string FlightRecorder::last_path() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_path_;
}

void FlightRecorder::install_crash_handler() {
  g_crash_recorder.store(this, std::memory_order_release);
  handler_installed_ = true;
  for (int signo : kCrashSignals)
    std::signal(signo, &vpscope_crash_signal_handler);
}

FlightRecorder* FlightRecorder::crash_recorder() {
  return g_crash_recorder.load(std::memory_order_acquire);
}

}  // namespace vpscope::obs
