#include "workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "campus/campus.hpp"
#include "capture/export.hpp"
#include "core/handshake.hpp"
#include "fingerprint/profiles.hpp"
#include "pipeline/pipeline.hpp"
#include "quic/initial.hpp"
#include "synth/dataset.hpp"

namespace perfbench {

using namespace vpscope;
using fingerprint::Transport;

namespace {

constexpr std::uint64_t kSecondUs = 1'000'000;
constexpr std::uint64_t kHourUs = 3600 * kSecondUs;
/// Largest IPv4 total_length one snap-truncated payload packet may report;
/// the synthesizer emits payload_bytes / kMaxSnapBytes packets at least.
constexpr std::uint64_t kMaxSnapBytes = 65535;

// Workload sizes: one single-core pass takes ~0.25-0.4 s on a 4-vCPU Xeon
// VM, so a run holds many windows (a median over many short windows shrugs
// off bursts of stolen CPU) and every window holds thousands of calls.
constexpr int kCampusFlows = 1200;
constexpr std::uint64_t kCampusPayloadPackets = 64;
constexpr int kChurnFlows = 12000;
constexpr std::uint64_t kChurnSpacingUs = 20;
constexpr int kStreamFlows = 150;
constexpr std::uint64_t kStreamMinPayloadPackets = 6144;
constexpr std::uint64_t kStreamMaxPayloadPackets = 8192;
constexpr int kQuicProbeFlows = 256;

/// Synthesizes flows one at a time, rejecting draws whose 5-tuple or
/// first-packet timestamp repeats an earlier flow (records are matched to
/// flows by that timestamp), and computes each flow's expected verdict.
class CaptureBuilder {
 public:
  CaptureBuilder(std::uint64_t seed, const pipeline::ClassifierBank& bank)
      : synth_(Rng(sub_seed(seed, 1))), hops_(sub_seed(seed, 2)), bank_(bank) {}

  void add(const campus::SessionPlan& plan, synth::FlowOptions options) {
    const fingerprint::StackProfile profile =
        plan.unknown_platform
            ? fingerprint::make_unknown_profile(plan.provider,
                                                plan.unknown_variant,
                                                plan.transport)
            : fingerprint::make_profile(plan.platform, plan.provider,
                                        plan.transport);
    options.capture_hops = hops_.uniform_int(2, 4);
    for (;;) {
      synth::LabeledFlow flow = synth_.synthesize(profile, options);
      std::stable_sort(flow.packets.begin(), flow.packets.end(),
                       [](const net::Packet& a, const net::Packet& b) {
                         return a.timestamp_us < b.timestamp_us;
                       });
      const std::uint64_t first_us = flow.packets.front().timestamp_us;
      const net::FlowKey key = net::FlowKey::canonical(
          flow.client_ip, flow.client_port, flow.server_ip, flow.server_port,
          plan.transport == Transport::Tcp ? net::kProtoTcp : net::kProtoUdp);
      if (first_seen_.count(first_us) || keys_.count(key)) {
        ++options.start_time_us;
        continue;
      }
      const auto handshake = core::extract_handshake(flow.packets);
      const auto provider =
          handshake ? pipeline::provider_from_sni(
                          handshake->chlo.server_name_view().value_or(""))
                    : std::nullopt;
      if (!provider)
        throw std::runtime_error("synthesized flow carries no video handshake");
      first_seen_.insert(first_us);
      keys_.insert(key);

      FlowTruth truth;
      truth.first_us = first_us;
      truth.provider = *provider;
      truth.transport = plan.transport;
      truth.known_platform = !plan.unknown_platform;
      truth.label = plan.platform;
      truth.expected = bank_.classify(*handshake, *provider);
      truths_.push_back(truth);
      flows_.push_back(std::move(flow));
      return;
    }
  }

  Capture finish() {
    Capture cap;
    const std::vector<net::Packet> stream = synth::packet_stream(flows_);
    flows_.clear();
    flows_.shrink_to_fit();
    for (const net::Packet& packet : stream)
      classify_packet(packet, cap.classes);
    cap.packets = stream.size();
    cap.image = capture::export_pcap(stream);
    cap.flows = std::move(truths_);
    for (std::uint32_t i = 0; i < cap.flows.size(); ++i) {
      const FlowTruth& f = cap.flows[i];
      cap.flow_by_first_us.emplace(f.first_us, i);
      (f.transport == Transport::Tcp ? cap.tcp_flows : cap.quic_flows)++;
      if (!f.known_platform) ++cap.unknown_flows;
    }
    return cap;
  }

 private:
  static void classify_packet(const net::Packet& packet, PacketClasses& c) {
    const auto d = net::decode(packet);
    if (!d) return;
    const bool from_server = d->src_port() == 443;
    if (d->tcp) {
      if (d->tcp->flags.syn)
        ++c.tcp_syn;
      else if (!d->payload.empty())
        ++c.tls_record;
      else if (from_server)
        ++c.payload;
      else
        ++c.tcp_ack;
    } else if (d->udp) {
      if (!from_server)
        ++c.client_initial;
      else if (!d->payload.empty())
        ++c.server_initial;
      else
        ++c.payload;
    }
  }

  synth::FlowSynthesizer synth_;
  Rng hops_;
  const pipeline::ClassifierBank& bank_;
  std::vector<synth::LabeledFlow> flows_;
  std::vector<FlowTruth> truths_;
  std::unordered_set<std::uint64_t> first_seen_;
  std::unordered_set<net::FlowKey, net::FlowKeyHash> keys_;
};

campus::CampusSimulator make_campus(std::uint64_t seed) {
  campus::CampusConfig config;
  config.days = 1;
  config.seed = sub_seed(seed, 3);
  return campus::CampusSimulator(config);
}

std::uint64_t plan_bytes(const campus::SessionPlan& plan) {
  return static_cast<std::uint64_t>(plan.bandwidth_mbps * 1e6 / 8.0 *
                                    plan.duration_s);
}

/// Deployment mix: every plan as drawn, arrivals folded into one hour, each
/// flow a handshake plus 64 snap-truncated payload packets.
Capture campus_mix(std::uint64_t seed, const pipeline::ClassifierBank& bank) {
  campus::CampusSimulator campus = make_campus(seed);
  CaptureBuilder builder(seed, bank);
  for (int i = 0; i < kCampusFlows; ++i) {
    const campus::SessionPlan plan = campus.plan_session();
    synth::FlowOptions options;
    options.start_time_us = plan.start_us % kHourUs;
    options.payload_bytes =
        std::clamp(plan_bytes(plan), kCampusPayloadPackets * 1400,
                   kCampusPayloadPackets * kMaxSnapBytes);
    options.payload_duration_us =
        static_cast<std::uint64_t>(plan.duration_s * 1e6);
    builder.add(plan, options);
  }
  return builder.finish();
}

/// Handshake-only flows of one transport, drawn from the campus mix by
/// rejection, arriving every `spacing_us` of packet time.
Capture handshakes(std::uint64_t seed, const pipeline::ClassifierBank& bank,
                   Transport transport, int flows, std::uint64_t spacing_us) {
  campus::CampusSimulator campus = make_campus(seed);
  CaptureBuilder builder(seed, bank);
  Rng jitter(sub_seed(seed, 4));
  for (int i = 0; i < flows;) {
    const campus::SessionPlan plan = campus.plan_session();
    if (plan.transport != transport) continue;
    synth::FlowOptions options;
    options.start_time_us = static_cast<std::uint64_t>(i) * spacing_us +
                            jitter.uniform(0, spacing_us - 1);
    builder.add(plan, options);
    ++i;
  }
  return builder.finish();
}

/// Long flows: campus plans whose payload is held to 6k-8k packets, so
/// handshake work stays under a tenth of single-core time.
Capture payload_stream(std::uint64_t seed,
                       const pipeline::ClassifierBank& bank) {
  campus::CampusSimulator campus = make_campus(seed);
  CaptureBuilder builder(seed, bank);
  Rng starts(sub_seed(seed, 5));
  for (int i = 0; i < kStreamFlows; ++i) {
    const campus::SessionPlan plan = campus.plan_session();
    synth::FlowOptions options;
    options.start_time_us = starts.uniform(0, 60 * kSecondUs);
    options.payload_bytes =
        std::clamp(plan_bytes(plan), kStreamMinPayloadPackets * kMaxSnapBytes,
                   kStreamMaxPayloadPackets * kMaxSnapBytes);
    options.payload_duration_us =
        static_cast<std::uint64_t>(plan.duration_s * 1e6);
    builder.add(plan, options);
  }
  return builder.finish();
}

}  // namespace

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"campus_mix", "tcp_churn",
                                                 "payload_stream"};
  return names;
}

Workload build_workload(const std::string& name, std::uint64_t seed,
                        const pipeline::ClassifierBank& bank) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // campus_mix and payload_stream span hours of packet time that replay in
  // well under a second, so an idle flush every few seconds of packet time
  // would put thousands of cross-shard flush barriers into one pass; their
  // flows are finalized by the final flush_all instead.
  if (name == "campus_mix") {
    w.main = campus_mix(seed, bank);
  } else if (name == "tcp_churn") {
    // Flows idle for 100 ms are finalized by the replay's flush hook, so
    // the flow table churns through every flow within the pass.
    w.replay.flush_interval_us = 50'000;
    w.replay.idle_timeout_us = 100'000;
    w.main = handshakes(seed, bank, Transport::Tcp, kChurnFlows,
                        kChurnSpacingUs);
    w.verdict_probe = handshakes(sub_seed(seed, 6), bank, Transport::Quic,
                                 kQuicProbeFlows, 1000);
  } else if (name == "payload_stream") {
    w.main = payload_stream(seed, bank);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
