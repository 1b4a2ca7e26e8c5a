// One replay pass of a capture through a pipeline front-end, and the
// correctness gate every pass goes through.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "capture/replay.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "workload.hpp"

namespace perfbench {

struct PassResult {
  double seconds = 0;  // replay including the final flush
  std::uint64_t frames = 0;
  vpscope::pipeline::PipelineStats stats;
  std::vector<vpscope::telemetry::SessionRecord> records;
};

/// Replays into a fresh VideoFlowPipeline (inline classification) whose
/// records land in a SessionStore. Only the replay is timed.
PassResult single_pass(const vpscope::pipeline::ClassifierBank& bank,
                       const Capture& capture,
                       const vpscope::capture::ReplayOptions& replay,
                       vpscope::obs::ObsConfig obs = {});

/// ReplayDriver::replay of `capture` into `feed`, with the replay's flush
/// hook aging `pipe`'s idle flows, as capture::replay_into does; for passes
/// that wrap each packet call. The caller makes the final flush_all.
template <typename Pipeline, typename Feed>
vpscope::capture::ReplayStats replay_feeding(
    const Capture& capture, const vpscope::capture::ReplayOptions& replay,
    Pipeline& pipe, Feed&& feed) {
  vpscope::capture::ReplayDriver driver(replay);
  driver.set_flush_hook([&pipe](std::uint64_t now_us, std::uint64_t idle_us) {
    pipe.flush_idle(now_us, idle_us);
  });
  return driver.replay(capture.image, std::forward<Feed>(feed));
}

/// Default ShardedPipeline options (Block, batch 32) with `workers` shards.
vpscope::pipeline::ShardedPipelineOptions sharded_options(int workers);

/// Replays into a fresh ShardedPipeline with default options (Block,
/// batch 32) and `workers` shards. Construction and worker start are not
/// timed; the final flush_all is.
PassResult sharded_pass(const vpscope::pipeline::ClassifierBank& bank,
                        const Capture& capture,
                        const vpscope::capture::ReplayOptions& replay,
                        int workers);

/// Checks every pass: each flow yields exactly one record, carrying the
/// verdict the bank gives its handshake; sharded records equal the
/// single-thread records; the drop-accounting identity holds.
class Gate {
 public:
  /// Checks one pass of `capture`, counting its flows as attempted and
  /// failed. The first clean single-thread pass of a capture becomes the
  /// reference its sharded passes are compared against.
  void check(const Capture& capture, const PassResult& pass,
             const std::string& pass_name, bool sharded);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }
  /// Share of known-platform flows whose composite verdict equals the
  /// synthesized label, over the single-thread records of `capture`.
  double composite_accuracy(const Capture& capture) const;

 private:
  struct Baseline {
    const Capture* capture = nullptr;
    std::vector<vpscope::telemetry::SessionRecord> by_flow;
  };
  const Baseline* baseline(const Capture& capture) const;
  void note(const std::string& message);

  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> messages_;
  std::vector<Baseline> baselines_;
};

}  // namespace perfbench
