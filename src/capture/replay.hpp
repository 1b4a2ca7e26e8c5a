// Deterministic pcap replay (DESIGN.md §5i): the offline twin of the
// AF_PACKET capture path. Frames stream out of a pcap image through the L2
// decode shim and into a packet sink — in practice the existing pipeline
// front-ends via replay_into(), so a replayed campus day travels the exact
// dispatch -> ring -> parse -> classify -> telemetry path a live tap feeds.
//
// Determinism contract: the sink observes the same packets, in the same
// order, with the same recorded timestamps, regardless of pacing mode —
// pacing changes only the wall-clock at which each packet is delivered.
// Combined with the sharded pipeline's per-flow FIFO invariant, two replays
// of one file at any pacing rate and shard count produce identical per-flow
// records (pinned by capture_equivalence_test).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "capture/frame.hpp"
#include "capture/pcap.hpp"
#include "net/packet.hpp"

namespace vpscope::capture {

struct ReplayOptions {
  /// 0 = as fast as possible. Otherwise a multiple of recorded time: 1.0
  /// replays at the capture's original rate, 100.0 at 100x speed. Pacing
  /// sleeps the *delivery*, never reorders or retimes the packets.
  double pace = 0.0;
  /// When > 0, the flush hook fires every this many microseconds of
  /// *packet* time — how the live front-ends age out idle flows.
  std::uint64_t flush_interval_us = 0;
  std::uint64_t idle_timeout_us = 300'000'000;  // 5 min, the deployment value
};

struct ReplayStats {
  std::uint64_t frames = 0;            // delivered to the sink
  std::uint64_t non_ip_frames = 0;     // well-formed, not IP: skipped
  std::uint64_t truncated_frames = 0;  // caplen < orig_len (still delivered)
  std::uint64_t wire_bytes = 0;        // sum of orig_len — what the tap saw
  std::uint64_t captured_bytes = 0;    // sum of caplen
  double wall_seconds = 0.0;
  bool ok = false;        // the file parsed to a clean EOF
  std::string error;      // reader failure description when !ok

  double mpps() const {
    return wall_seconds > 0
               ? static_cast<double>(frames) / wall_seconds / 1e6
               : 0.0;
  }
  /// Offered wire rate, the number a "20 Gbps tap" claim is denominated in.
  double gbps() const {
    return wall_seconds > 0
               ? static_cast<double>(wire_bytes) * 8 / wall_seconds / 1e9
               : 0.0;
  }
};

class ReplayDriver {
 public:
  using PacketSink = std::function<void(net::Packet&&)>;
  using FlushHook =
      std::function<void(std::uint64_t now_us, std::uint64_t idle_timeout_us)>;

  explicit ReplayDriver(ReplayOptions options = {}) : options_(options) {}

  /// Invoked per ReplayOptions::flush_interval_us of packet time, between
  /// packets (never concurrently with the sink).
  void set_flush_hook(FlushHook hook) { flush_hook_ = std::move(hook); }

  /// Replays an in-memory pcap image into the sink. The image must stay
  /// valid for the duration of the call only: packet bytes are copied into
  /// the net::Packet handed to the sink. A sink that keeps the packet moves
  /// it out and so owns its bytes (the sharded pipeline's move-ingest); a
  /// sink that only reads it leaves the buffer to be reused for the next
  /// frame, so replay into the single-threaded pipeline allocates nothing
  /// per frame.
  ReplayStats replay(ByteView pcap_image, const PacketSink& sink);

  ReplayStats replay_file(const std::string& path, const PacketSink& sink);

 private:
  ReplayOptions options_;
  FlushHook flush_hook_;
};

/// Glues a replay onto a pipeline front-end: packets via on_packet (move
/// ingest), idle aging via flush_idle, then flush_all + the final record
/// drain. Works for both VideoFlowPipeline and ShardedPipeline without a
/// link dependency on either.
template <typename Pipeline>
ReplayStats replay_into(ByteView pcap_image, Pipeline& pipe,
                        ReplayOptions options = {}) {
  ReplayDriver driver(options);
  driver.set_flush_hook([&pipe](std::uint64_t now_us, std::uint64_t idle_us) {
    pipe.flush_idle(now_us, idle_us);
  });
  // Front-ends that trace causal spans (ShardedPipeline) take a capture
  // mark after each delivery: the mark-to-dispatch gap — frame read plus
  // pacing of the NEXT packet — exports as that packet's Capture span. The
  // single-threaded pipeline has no such hook and skips all of it.
  constexpr bool kMarksCapture = requires { pipe.mark_capture_start(); };
  if constexpr (kMarksCapture) pipe.mark_capture_start();
  ReplayStats stats =
      driver.replay(pcap_image, [&pipe](net::Packet&& p) {
        pipe.on_packet(std::move(p));
        if constexpr (kMarksCapture) pipe.mark_capture_start();
      });
  pipe.flush_all();
  return stats;
}

}  // namespace vpscope::capture
