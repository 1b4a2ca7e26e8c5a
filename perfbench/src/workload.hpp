// The benchmark's workloads. Each is a seeded population of campus-model
// flows (campus::CampusSimulator::plan_session) synthesized into packets,
// merged into capture order and exported as one in-memory Ethernet pcap
// image: the only input the measured program sees. Alongside the image the
// workload keeps, per flow, the facts the correctness gate checks session
// records against (computed outside every timed region).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/replay.hpp"
#include "pipeline/classifier_bank.hpp"

namespace perfbench {

/// What one synthesized flow must turn into: exactly one session record,
/// keyed by the timestamp of the flow's first packet (unique per capture by
/// construction), carrying the bank's verdict for the flow's handshake.
struct FlowTruth {
  std::uint64_t first_us = 0;
  vpscope::fingerprint::Provider provider{};
  vpscope::fingerprint::Transport transport{};
  bool known_platform = false;
  vpscope::fingerprint::PlatformId label;  // valid when known_platform
  /// ClassifierBank::classify(core::extract_handshake(flow)).
  vpscope::pipeline::PlatformPrediction expected;
};

/// Packets of a capture by what the pipeline does with them.
struct PacketClasses {
  std::uint64_t tcp_syn = 0;         // SYN and SYN-ACK
  std::uint64_t tcp_ack = 0;         // empty client segments (handshake ACK)
  std::uint64_t tls_record = 0;      // ClientHello / ServerHello segments
  std::uint64_t client_initial = 0;  // QUIC client Initials
  std::uint64_t server_initial = 0;  // QUIC server handshake datagrams
  std::uint64_t payload = 0;         // snap-truncated server payload
};

/// One replayable pcap image and the truth about its flows.
struct Capture {
  vpscope::Bytes image;
  std::uint64_t packets = 0;
  std::vector<FlowTruth> flows;
  std::unordered_map<std::uint64_t, std::uint32_t> flow_by_first_us;
  PacketClasses classes;
  std::uint64_t tcp_flows = 0, quic_flows = 0, unknown_flows = 0;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// Replay pacing/aging: the flush hook ages idle flows out as the live
  /// front-ends do.
  vpscope::capture::ReplayOptions replay;
  Capture main;
  /// Handshakes of the transport the main capture lacks (tcp_churn has no
  /// QUIC flows), replayed only in the verdict-timing windows so each
  /// workload reports both per-transport verdict times.
  std::optional<Capture> verdict_probe;
};

/// The names build_workload accepts, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Synthesizes the named workload for `seed` and computes every flow's
/// expected verdict with `bank`. Throws std::invalid_argument for an
/// unknown name.
Workload build_workload(const std::string& name, std::uint64_t seed,
                        const vpscope::pipeline::ClassifierBank& bank);

/// Derives an independent sub-seed (SplitMix64 of seed and stream).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
