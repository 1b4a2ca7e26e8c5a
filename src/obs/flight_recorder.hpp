// Crash flight recorder (DESIGN.md §5k): the black box a 4-month unattended
// deployment needs, and the one postmortem path. A fixed-size window of
// recent state — the last-N spans across every slot ring, flow-lifecycle
// instants and the watchdog's stranded/recovered marks included, one
// registry snapshot, caller-supplied app context — is rendered into one
// JSON document and atomically written to a timestamped file when
// something goes wrong:
//
//   * watchdog trip        (ShardedPipeline::set_flight_recorder; written
//                           before the stuck callback runs)
//   * canary rollback      (lifecycle poll in the dispatcher path)
//   * admission quarantine (front-end model-dir wiring)
//   * fatal signal         (install_crash_handler: SIGSEGV/SIGBUS/SIGFPE/
//                           SIGABRT/SIGILL — best-effort: the handler
//                           renders into a heap string and writes it with
//                           stdio, neither of which is async-signal-safe,
//                           but on a crash path the alternative is nothing
//                           at all)
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/pipeline_obs.hpp"

namespace vpscope::obs {

struct FlightRecorderOptions {
  /// Directory postmortems land in (must exist).
  std::string dir = ".";
  std::string prefix = "vpscope-postmortem";
  /// Most recent spans captured per dump (merged across slots).
  std::size_t max_spans = 2048;
};

class FlightRecorder {
 public:
  /// `obs` must outlive the recorder.
  FlightRecorder(const PipelineObs* obs, FlightRecorderOptions options = {});
  ~FlightRecorder();

  /// Extra JSON value recorded under "context" in every dump (lifecycle
  /// status, front-end state). Called at dump time; must be thread-safe.
  void set_context_provider(std::function<std::string()> provider);

  /// Renders the postmortem document (testable without I/O): reason,
  /// wall/mono timestamps, spans with each instant's detail, registry
  /// snapshot, context. Valid JSON by construction.
  std::string render(std::string_view reason,
                     std::string_view detail = {}) const;

  /// Renders and atomically writes a timestamped postmortem. Returns the
  /// path, or "" on I/O failure. Thread-safe (serialized).
  std::string dump(std::string_view reason, std::string_view detail = {});

  std::uint64_t dumps_written() const {
    return dumps_written_.load(std::memory_order_relaxed);
  }
  /// Path of the most recent successful dump ("" before the first).
  std::string last_path() const;

  /// Installs fatal-signal handlers that dump through this recorder, then
  /// restore the default disposition and re-raise. Process-wide; the last
  /// recorder to install wins. Uninstalled automatically on destruction.
  void install_crash_handler();
  /// The recorder the crash handler currently dumps through (test hook).
  static FlightRecorder* crash_recorder();

  const FlightRecorderOptions& options() const { return options_; }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  const PipelineObs* obs_;
  FlightRecorderOptions options_;
  std::function<std::string()> context_;
  mutable std::mutex mutex_;
  std::string last_path_;
  std::atomic<std::uint64_t> dumps_written_{0};
  std::uint64_t seq_ = 0;
  bool handler_installed_ = false;
};

}  // namespace vpscope::obs
