// The two kinds of run. Both print human-readable lines and report lines
// first and the result object as the last line of stdout; both return the
// process exit code.
#pragma once

#include <string>

#include "setup.hpp"

namespace perfbench {

/// Tracing off: the end-to-end metrics, each the median over many
/// interleaved windows, with the correctness gate on every pass.
int run_end_to_end(Setup& setup);

/// Tracing on: walks the same image calling each layer's entry point,
/// records one span per call, and reports the per-layer metrics. The spans
/// are written to `span_file` as Chrome trace_event JSON.
int run_traced(Setup& setup, const std::string& span_file);

}  // namespace perfbench
