#include "capture/replay.hpp"

#include <chrono>
#include <thread>

namespace vpscope::capture {

ReplayStats ReplayDriver::replay(ByteView pcap_image, const PacketSink& sink) {
  ReplayStats stats;
  auto reader = PcapReader::open(pcap_image);
  if (!reader) {
    stats.error = "not a classic pcap image (magic/version/linktype)";
    return stats;
  }
  const LinkType link_type = reader->info().link_type;

  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  bool have_first_ts = false;
  std::uint64_t first_ts_us = 0;
  std::uint64_t next_flush_us = 0;
  // One frame buffer for the whole replay: a sink that only reads the
  // packet leaves its capacity for the next frame; a sink that moves it out
  // takes the buffer along, and the next assign allocates a fresh one.
  net::Packet packet;

  while (const auto frame = reader->next()) {
    if (!have_first_ts) {
      have_first_ts = true;
      first_ts_us = frame->timestamp_us;
      next_flush_us = options_.flush_interval_us > 0
                          ? first_ts_us + options_.flush_interval_us
                          : 0;
    }
    if (options_.pace > 0) {
      // Deliver when scaled recorded time has elapsed on the wall clock.
      const double recorded_s =
          static_cast<double>(frame->timestamp_us - first_ts_us) / 1e6;
      const auto due =
          wall_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(recorded_s /
                                                         options_.pace));
      std::this_thread::sleep_until(due);
    }
    if (options_.flush_interval_us > 0 && flush_hook_) {
      while (frame->timestamp_us >= next_flush_us) {
        flush_hook_(next_flush_us, options_.idle_timeout_us);
        next_flush_us += options_.flush_interval_us;
      }
    }

    const auto datagram = ip_datagram_of(frame->bytes, link_type);
    if (!datagram) {
      ++stats.non_ip_frames;
      continue;
    }
    if (frame->bytes.size() < frame->orig_len) ++stats.truncated_frames;
    stats.wire_bytes += frame->orig_len;
    stats.captured_bytes += frame->bytes.size();
    ++stats.frames;
    packet.timestamp_us = frame->timestamp_us;
    packet.data.assign(datagram->begin(), datagram->end());
    sink(std::move(packet));
  }
  stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  if (reader->error()) {
    stats.error = reader->error_message();
    return stats;
  }
  stats.ok = true;
  return stats;
}

ReplayStats ReplayDriver::replay_file(const std::string& path,
                                      const PacketSink& sink) {
  const auto bytes = read_file_bytes(path);
  if (!bytes) {
    ReplayStats stats;
    stats.error = "cannot read " + path;
    return stats;
  }
  return replay(*bytes, sink);
}

}  // namespace vpscope::capture
