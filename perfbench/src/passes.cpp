#include "passes.hpp"

#include <algorithm>

#include "capture/replay.hpp"
#include "common.hpp"

namespace perfbench {

using namespace vpscope;

PassResult single_pass(const pipeline::ClassifierBank& bank,
                       const Capture& capture,
                       const capture::ReplayOptions& replay,
                       obs::ObsConfig obs) {
  PassResult out;
  telemetry::SessionStore store;
  {
    pipeline::VideoFlowPipeline pipe(&bank, {}, obs);
    pipe.set_sink(
        [&store](telemetry::SessionRecord r) { store.insert(std::move(r)); });
    const std::uint64_t t0 = now_ns();
    const capture::ReplayStats stats =
        capture::replay_into(capture.image, pipe, replay);
    out.seconds = seconds_between(t0, now_ns());
    out.frames = stats.frames;
    out.stats = pipe.stats();
  }
  out.records = store.records();
  return out;
}

pipeline::ShardedPipelineOptions sharded_options(int workers) {
  pipeline::ShardedPipelineOptions options;
  options.n_shards = workers;
  return options;
}

PassResult sharded_pass(const pipeline::ClassifierBank& bank,
                        const Capture& capture,
                        const capture::ReplayOptions& replay, int workers) {
  PassResult out;
  telemetry::SessionStore store;
  {
    pipeline::ShardedPipeline pipe(&bank, sharded_options(workers));
    pipe.set_sink(
        [&store](telemetry::SessionRecord r) { store.insert(std::move(r)); });
    const std::uint64_t t0 = now_ns();
    const capture::ReplayStats stats =
        capture::replay_into(capture.image, pipe, replay);
    out.seconds = seconds_between(t0, now_ns());
    out.frames = stats.frames;
    out.stats = pipe.stats();
  }
  out.records = store.records();
  return out;
}

namespace {

bool verdict_matches(const telemetry::SessionRecord& r, const FlowTruth& f) {
  const pipeline::PlatformPrediction& e = f.expected;
  return r.provider == f.provider && r.transport == f.transport &&
         r.outcome == e.outcome && r.platform == e.platform &&
         r.device == e.device && r.agent == e.agent &&
         r.confidence == e.platform_confidence;
}

}  // namespace

const Gate::Baseline* Gate::baseline(const Capture& capture) const {
  for (const Baseline& b : baselines_)
    if (b.capture == &capture) return &b;
  return nullptr;
}

void Gate::note(const std::string& message) {
  if (messages_.size() < 20) messages_.push_back(message);
}

void Gate::check(const Capture& capture, const PassResult& pass,
                 const std::string& pass_name, bool sharded) {
  const std::size_t n = capture.flows.size();
  std::vector<std::uint32_t> seen(n, 0);
  std::vector<bool> bad(n, false);
  std::vector<const telemetry::SessionRecord*> matched(n, nullptr);
  std::uint64_t stray = 0;
  const Baseline* base = sharded ? baseline(capture) : nullptr;
  if (sharded && !base)
    note(pass_name + ": no single-thread pass to compare against");
  for (const telemetry::SessionRecord& r : pass.records) {
    const auto it = capture.flow_by_first_us.find(r.counters.first_us);
    if (it == capture.flow_by_first_us.end()) {
      ++stray;
      note(pass_name + ": record with no synthesized flow (first_us=" +
           std::to_string(r.counters.first_us) + ")");
      continue;
    }
    const std::uint32_t i = it->second;
    ++seen[i];
    matched[i] = &r;
    if (!verdict_matches(r, capture.flows[i])) {
      bad[i] = true;
      note(pass_name + ": flow " + std::to_string(i) +
           " verdict differs from ClassifierBank::classify");
    }
    if (base && !(r == base->by_flow[i])) {
      bad[i] = true;
      note(pass_name + ": flow " + std::to_string(i) +
           " sharded record differs from the single-thread record");
    }
  }
  std::uint64_t failed = stray;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i] != 1) {
      note(pass_name + ": flow " + std::to_string(i) + " yielded " +
           std::to_string(seen[i]) + " records");
      ++failed;
    } else if (bad[i]) {
      ++failed;
    }
  }
  const pipeline::PipelineStats& s = pass.stats;
  const bool identity =
      s.packets_total == pass.frames &&
      s.packets_total == s.packets_processed + s.packets_dropped_payload +
                             s.packets_dropped_handshake + s.packets_stranded;
  if (!identity) {
    note(pass_name + ": drop-accounting identity fails (total=" +
         std::to_string(s.packets_total) +
         " processed=" + std::to_string(s.packets_processed) +
         " frames=" + std::to_string(pass.frames) + ")");
    failed = n;
  }
  attempted_ += n;
  failed_ += std::min<std::uint64_t>(failed, n);

  if (!sharded && failed == 0 && !baseline(capture)) {
    Baseline b;
    b.capture = &capture;
    b.by_flow.resize(n);
    for (std::size_t i = 0; i < n; ++i) b.by_flow[i] = *matched[i];
    baselines_.push_back(std::move(b));
  }
}

double Gate::composite_accuracy(const Capture& capture) const {
  const Baseline* base = baseline(capture);
  if (!base) return 0.0;
  std::uint64_t known = 0, correct = 0;
  for (std::size_t i = 0; i < capture.flows.size(); ++i) {
    const FlowTruth& f = capture.flows[i];
    if (!f.known_platform) continue;
    ++known;
    const telemetry::SessionRecord& r = base->by_flow[i];
    if (r.outcome == telemetry::Outcome::Composite && r.platform == f.label)
      ++correct;
  }
  return known ? static_cast<double>(correct) / static_cast<double>(known)
               : 0.0;
}

}  // namespace perfbench
