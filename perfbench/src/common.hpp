// Shared helpers of the tap benchmark: the clock, sample summaries, the
// counting allocator's per-thread counter, process memory probes, the
// machine block, and a minimal JSON writer for the report lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Heap allocations made by the calling thread so far (operator new calls;
/// see alloc_count.cpp). Exact, and never touched by other threads.
std::uint64_t thread_allocations();

/// Median and quartiles of a sample, the quartiles as
/// statistics.quantiles(n=4, method="exclusive") computes them.
struct Summary {
  std::size_t n = 0;
  double median = 0, q1 = 0, q3 = 0;
};
double quantile(std::vector<double> values, double p);
/// p99s of a time-ordered sample, one per run of at least `per_window`
/// consecutive samples (so ten lie beyond each window's p99); a single
/// window when the sample is shorter.
std::vector<double> windowed_p99s(const std::vector<double>& samples,
                                  std::size_t per_window);
/// Median of values measured on a grid of `interval` (clock ticks), as
/// statistics.median_grouped computes it: ties at the middle are spread
/// over their tick instead of all reading the tick's value.
double median_grouped(std::vector<double> values, double interval);
Summary summarize(const std::vector<double>& values);

/// Peak resident set (VmHWM) and current resident set (VmRSS), in bytes.
std::uint64_t peak_rss_bytes();
std::uint64_t current_rss_bytes();
/// Returns freed heap to the kernel and resets VmHWM to the current RSS, so
/// a later peak_rss_bytes() reports only what happened after this call.
/// False when the kernel refused the high-water-mark reset.
bool trim_and_reset_peak_rss();

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks:
/// all states, and the share the hypervisor stole from this guest.
struct CpuTicks {
  std::uint64_t total = 0, steal = 0;
};
CpuTicks cpu_ticks();
/// Share of CPU time stolen between two readings.
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// CPU time consumed so far by all threads of this process, in seconds.
double process_cpu_seconds();

/// CPUs this process may run on: min(hardware threads, affinity mask).
int usable_cores();

/// The machine block every output carries.
struct Machine {
  int nproc = 0;
  int affinity = 0;
  std::string cpu_model;
  bool aes = false, pclmulqdq = false, avx2 = false;
  std::string compiler;
  std::string build_type;
};
Machine probe_machine();

/// Tiny ordered JSON object builder (values are pre-rendered).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::uint64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One reported metric: {"value": ..., "unit": ...} under its name.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
/// The result object every run prints as its last line.
std::string render_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<Metric>& metrics);

std::string json_string(const std::string& s);
std::string json_number(double value);
std::string render_summary(const Summary& s);
std::string render_machine(const Machine& m, int workers);

}  // namespace perfbench
