#include "obs/span.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "fingerprint/platform.hpp"

namespace vpscope::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// Microseconds with nanosecond fraction, as Chrome expects.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

/// One trace event: "X" with a duration, or, when `instant` is set, an "i"
/// thread-scoped instant whose detail joins the args.
void append_event(std::string& out, std::string_view name, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, int tid, std::uint64_t flow,
                  std::uint64_t span_id, std::uint64_t parent_id,
                  std::uint64_t model_gen, const Span* instant, bool first) {
  if (!first) out += ',';
  out += "{\"name\":\"";
  out += name;
  out += instant ? "\",\"cat\":\"vpscope\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
                 : "\",\"cat\":\"vpscope\",\"ph\":\"X\",\"ts\":";
  append_us(out, ts_ns);
  if (!instant) {
    out += ",\"dur\":";
    append_us(out, dur_ns);
  }
  out += ",\"pid\":1,\"tid\":";
  append_u64(out, static_cast<std::uint64_t>(tid));
  out += ",\"args\":{\"flow\":";
  append_u64(out, flow);
  out += ",\"span\":";
  append_u64(out, span_id);
  out += ",\"parent\":";
  append_u64(out, parent_id);
  out += ",\"model_gen\":";
  append_u64(out, model_gen);
  if (instant) append_span_detail(out, *instant);
  out += "}}";
}

}  // namespace

void append_span_detail(std::string& out, const Span& span) {
  switch (span.kind) {
    case SpanKind::Classified: {
      out += ",\"os\":\"";
      if (span.os == Span::kNone)
        out += '?';
      else
        out += fingerprint::to_string(static_cast<fingerprint::Os>(span.os));
      out += "\",\"agent\":\"";
      if (span.agent == Span::kNone)
        out += '?';
      else
        out += fingerprint::to_string(
            static_cast<fingerprint::Agent>(span.agent));
      out += "\",\"composite\":";
      out += span.composite ? "true" : "false";
      out += ",\"confidence\":";
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%.4f",
                    static_cast<double>(span.confidence));
      out += buf;
      break;
    }
    case SpanKind::Shed:
      out += span.detail == 0 ? ",\"class\":\"handshake\""
                              : ",\"class\":\"payload\"";
      break;
    case SpanKind::Stranded:
    case SpanKind::Recovered:
      out += ",\"shard\":";
      append_u64(out, span.detail);
      break;
    default:
      break;
  }
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  // Stable output: sort by (flow, start, id) so identical span sets render
  // identically regardless of ring drain order.
  std::vector<const Span*> ordered;
  ordered.reserve(spans.size());
  for (const Span& s : spans) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const Span* a, const Span* b) {
              if (a->flow_hash != b->flow_hash)
                return a->flow_hash < b->flow_hash;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->span_id < b->span_id;
            });

  std::string out;
  out.reserve(128 + ordered.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::size_t i = 0;
  while (i < ordered.size()) {
    // One flow's run of spans: synthesize the root covering min..max, then
    // emit the spans themselves. Parentless spans attach to the root. The
    // shard-level Stranded/Recovered instants belong to no flow, so a run
    // of only those gets no root.
    const std::uint64_t flow = ordered[i]->flow_hash;
    std::size_t end = i;
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    bool rooted = false;
    for (; end < ordered.size() && ordered[end]->flow_hash == flow; ++end) {
      const Span& s = *ordered[end];
      if (s.kind == SpanKind::Stranded || s.kind == SpanKind::Recovered)
        continue;
      rooted = true;
      lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.start_ns + s.dur_ns);
    }
    // Root id: reserved slot 0 in the (slot+1)<<40 id scheme, so it can
    // never collide with a ring-assigned id; `| 1` keeps it nonzero even
    // for flow 0.
    const std::uint64_t root_id = rooted ? flow | 1 : 0;
    if (rooted) {
      append_event(out, "flow", lo, hi - lo, ordered[i]->slot, flow, root_id,
                   0, 0, nullptr, first);
      first = false;
    }
    for (; i < end; ++i) {
      const Span& s = *ordered[i];
      append_event(out, span_kind_name(s.kind), s.start_ns, s.dur_ns, s.slot,
                   flow, s.span_id, s.parent_id ? s.parent_id : root_id,
                   s.model_gen, is_instant(s.kind) ? &s : nullptr, first);
      first = false;
    }
  }
  out += "]}";
  return out;
}

}  // namespace vpscope::obs
