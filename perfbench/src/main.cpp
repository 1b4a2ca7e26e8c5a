// Tap benchmark: replays a seeded, synthesized campus capture through the
// real vpscope front-ends and reports end-to-end metrics (--trace 0) or
// per-layer metrics from a traced walk of the same capture (--trace 1).
//
//   perfbench --workload campus_mix --seed 1 --seconds 10 --trace 0
//             [--span-file spans.json] [--bundle-cache dir]
//
// The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runs.hpp"
#include "setup.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-file <path>] [--bundle-cache <dir>]\n"
               "workloads:");
  for (const std::string& name : perfbench::workload_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
}

bool parse_unsigned(const std::string& text, unsigned long long& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, span_file = "perfbench-spans.json", bundle_cache;
  unsigned long long seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = parse_unsigned(value, seed);
      have_seed = ok;
    } else if (flag == "--seconds") {
      ok = parse_unsigned(value, seconds);
    } else if (flag == "--trace") {
      ok = parse_unsigned(value, trace);
    } else if (flag == "--span-file") {
      span_file = value;
    } else if (flag == "--bundle-cache") {
      bundle_cache = value;
    } else {
      ok = false;
    }
    if (!ok) {
      usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names())
    known |= name == workload;
  if (!known || !have_seed || seconds == 0 || trace > 1) {
    usage();
    return 2;
  }

  try {
    perfbench::Setup setup = perfbench::prepare(
        workload, seed, static_cast<double>(seconds), bundle_cache);
    return trace ? perfbench::run_traced(setup, span_file)
                 : perfbench::run_end_to_end(setup);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
