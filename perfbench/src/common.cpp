#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> windowed_p99s(const std::vector<double>& samples,
                                  std::size_t per_window) {
  const std::size_t k = std::max<std::size_t>(1, samples.size() / per_window);
  std::vector<double> p99s;
  for (std::size_t i = 0; i < k; ++i) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(
                                             i * samples.size() / k);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>(
                                           (i + 1) * samples.size() / k);
    p99s.push_back(quantile(std::vector<double>(begin, end), 0.99));
  }
  return p99s;
}

double median_grouped(std::vector<double> values, double interval) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double x = values[values.size() / 2];
  const auto lo = std::lower_bound(values.begin(), values.end(), x);
  const auto hi = std::upper_bound(lo, values.end(), x);
  const auto below = static_cast<double>(lo - values.begin());
  const auto ties = static_cast<double>(hi - lo);
  return x - interval / 2 +
         interval * (static_cast<double>(values.size()) / 2 - below) / ties;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(v, n=4), default 'exclusive' method.
  const std::size_t m = n + 1;
  auto cut = [&](std::size_t i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

namespace {

std::uint64_t status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0)
      return std::stoull(line.substr(prefix.size()));
  }
  return 0;
}

}  // namespace

std::uint64_t peak_rss_bytes() { return status_kib("VmHWM") * 1024; }
std::uint64_t current_rss_bytes() { return status_kib("VmRSS") * 1024; }

bool trim_and_reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total ? static_cast<double>(after.steal - before.steal) /
                     static_cast<double>(total)
               : 0.0;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int usable_cores() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : hw;
  return std::max(1, std::min(hw > 0 ? hw : 1, affinity));
}

Machine probe_machine() {
  Machine m;
  m.nproc = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  m.affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                            : m.nproc;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (m.cpu_model.empty() && line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) m.cpu_model = line.substr(colon + 2);
    }
    if (line.rfind("flags", 0) == 0) {
      std::istringstream words(line.substr(line.find(':') + 1));
      std::string w;
      while (words >> w) {
        m.aes |= w == "aes";
        m.pclmulqdq |= w == "pclmulqdq";
        m.avx2 |= w == "avx2";
      }
      break;
    }
  }
  m.compiler = PERFBENCH_COMPILER;
  m.build_type = PERFBENCH_BUILD_TYPE;
  return m;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}
JsonObject& JsonObject::integer(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}
JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}
JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
  return *this;
}
JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string render_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const Metric& metric : metrics)
    m.raw(metric.name, JsonObject()
                           .num("value", metric.value)
                           .str("unit", metric.unit)
                           .render());
  return JsonObject()
      .boolean("correct", correct)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("metrics", m.render())
      .render();
}

std::string render_summary(const Summary& s) {
  return JsonObject()
      .num("median", s.median)
      .num("q1", s.q1)
      .num("q3", s.q3)
      .num("iqr_share", s.median != 0 ? (s.q3 - s.q1) / s.median : 0.0)
      .integer("n", s.n)
      .render();
}

std::string render_machine(const Machine& m, int workers) {
  return JsonObject()
      .integer("nproc", static_cast<std::uint64_t>(m.nproc))
      .integer("affinity", static_cast<std::uint64_t>(m.affinity))
      .str("cpu_model", m.cpu_model)
      .boolean("aes", m.aes)
      .boolean("pclmulqdq", m.pclmulqdq)
      .boolean("avx2", m.avx2)
      .str("compiler", m.compiler)
      .str("build_type", m.build_type)
      .integer("workers", static_cast<std::uint64_t>(workers))
      .boolean("threads_within_nproc",
               workers + 1 <= std::min(m.nproc, m.affinity))
      .render();
}

}  // namespace perfbench
