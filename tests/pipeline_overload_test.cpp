// Overload control at the single-flow-table level (DESIGN.md §5e): the
// bounded flow table must keep memory constant under a SYN flood, evict
// idle-ordered through the normal sink path, and survive hostile clocks
// and throwing sinks — all without changing unbounded-mode behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "campus/overload.hpp"
#include "net/packet.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"
#include "synth/flow_synthesizer.hpp"

namespace vpscope::pipeline {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;

synth::LabeledFlow make_video_flow(std::uint64_t start_us, Provider provider,
                                   Transport transport, std::uint64_t seed) {
  Rng rng(seed);
  synth::FlowSynthesizer synthesizer(rng);
  const auto platforms = fingerprint::platforms_for(provider, transport);
  const auto profile =
      fingerprint::make_profile(platforms.front(), provider, transport);
  synth::FlowOptions opt;
  opt.start_time_us = start_us;
  return synthesizer.synthesize(profile, opt);
}

void feed(VideoFlowPipeline& pipe, const synth::LabeledFlow& flow) {
  for (const auto& p : flow.packets) pipe.on_packet(p);
}

TEST(BoundedFlowTable, NeverExceedsMaxFlowsUnderSynFlood) {
  VideoFlowPipeline pipe(nullptr, {.max_flows = 4});
  for (std::uint32_t i = 0; i < 10; ++i) {
    pipe.on_packet(campus::make_flood_syn(i, i * 10, /*seed=*/1));
    EXPECT_LE(pipe.active_flows(), 4u);
  }
  EXPECT_EQ(pipe.active_flows(), 4u);
  EXPECT_EQ(pipe.stats().flows_total, 10u);
  EXPECT_EQ(pipe.stats().flows_evicted_capacity, 6u);
  // Flood flows never complete a handshake, so eviction emits no records —
  // but the identity still holds: nothing dropped single-threaded.
  EXPECT_EQ(pipe.stats().packets_total, pipe.stats().packets_processed);
}

TEST(BoundedFlowTable, LruEvictsLongestIdleThroughSink) {
  const auto a = make_video_flow(0, Provider::YouTube, Transport::Tcp, 10);
  const auto b = make_video_flow(1'000'000, Provider::Netflix, Transport::Tcp, 11);
  const auto c = make_video_flow(2'000'000, Provider::Disney, Transport::Tcp, 12);

  VideoFlowPipeline pipe(nullptr, {.max_flows = 2});
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&](telemetry::SessionRecord r) { records.push_back(r); });

  feed(pipe, a);
  feed(pipe, b);
  EXPECT_EQ(pipe.active_flows(), 2u);
  EXPECT_TRUE(records.empty());

  // Admitting c must evict exactly the longest-idle flow (a), and its
  // session record must leave through the normal sink path, classification
  // intact.
  feed(pipe, c);
  EXPECT_EQ(pipe.active_flows(), 2u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].counters.first_us, a.packets.front().timestamp_us);
  EXPECT_EQ(records[0].provider, Provider::YouTube);
  EXPECT_EQ(pipe.stats().flows_evicted_capacity, 1u);

  pipe.flush_all();
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(pipe.stats().video_flows, 3u);
}

TEST(BoundedFlowTable, VolumeSampleRefreshesIdleOrder) {
  const auto a = make_video_flow(0, Provider::YouTube, Transport::Tcp, 20);
  const auto b = make_video_flow(1'000'000, Provider::Netflix, Transport::Tcp, 21);
  const auto c = make_video_flow(2'000'000, Provider::Disney, Transport::Tcp, 22);

  VideoFlowPipeline pipe(nullptr, {.max_flows = 2});
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&](telemetry::SessionRecord r) { records.push_back(r); });

  feed(pipe, a);
  feed(pipe, b);
  // A volume sample for `a` makes `b` the longest-idle flow.
  const auto key_a =
      net::FlowKey::canonical(a.client_ip, a.client_port, a.server_ip,
                              a.server_port, net::kProtoTcp);
  pipe.on_volume_sample(key_a, 1'500'000, 1000, 10);
  feed(pipe, c);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].provider, Provider::Netflix);
}

TEST(BoundedFlowTable, RejectNewKeepsEstablishedFlows) {
  const auto a = make_video_flow(0, Provider::YouTube, Transport::Tcp, 30);
  const auto b = make_video_flow(1'000'000, Provider::Netflix, Transport::Tcp, 31);
  const auto c = make_video_flow(2'000'000, Provider::Disney, Transport::Tcp, 32);

  VideoFlowPipeline pipe(
      nullptr,
      {.max_flows = 2, .eviction = PipelineOptions::Eviction::RejectNew});
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&](telemetry::SessionRecord r) { records.push_back(r); });

  feed(pipe, a);
  feed(pipe, b);
  feed(pipe, c);  // refused packet-by-packet; a and b stay
  EXPECT_EQ(pipe.active_flows(), 2u);
  EXPECT_TRUE(records.empty());
  // Every packet of the refused flow retries the insert and is refused
  // again; each refusal counts, but flows_total counts admitted flows only.
  EXPECT_EQ(pipe.stats().flows_evicted_capacity, c.packets.size());
  EXPECT_EQ(pipe.stats().flows_total, 2u);

  pipe.flush_all();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) EXPECT_NE(r.provider, Provider::Disney);
}

TEST(BoundedFlowTable, UnboundedModeIsUntouched) {
  // max_flows = 0 must keep the exact pre-overload-layer behaviour: no
  // eviction, no LRU bookkeeping observable in stats.
  VideoFlowPipeline pipe(nullptr);
  for (std::uint32_t i = 0; i < 100; ++i)
    pipe.on_packet(campus::make_flood_syn(i, i, /*seed=*/3));
  EXPECT_EQ(pipe.active_flows(), 100u);
  EXPECT_EQ(pipe.stats().flows_evicted_capacity, 0u);
}

TEST(FlushIdle, SurvivesNonMonotonicAndHostileTimestamps) {
  VideoFlowPipeline pipe(nullptr, {.max_flows = 8});
  // One flow stamped near 2^64 (a hostile capture clock), one sane flow.
  const std::uint64_t huge = ~std::uint64_t{0} - 100;
  pipe.on_packet(campus::make_flood_syn(0, huge, /*seed=*/4));
  pipe.on_packet(campus::make_flood_syn(1, 5'000'000, /*seed=*/4));
  ASSERT_EQ(pipe.active_flows(), 2u);

  // The additive form `last + timeout <= now` would wrap for the huge
  // timestamp and evict it spuriously; the clamped idle_us form must not.
  pipe.flush_idle(/*now=*/2'000'000, /*idle=*/1'000'000);
  EXPECT_EQ(pipe.active_flows(), 2u);

  // A clock stepping backwards reads as "not idle" for every flow.
  pipe.flush_idle(/*now=*/1'000, /*idle=*/1);
  EXPECT_EQ(pipe.active_flows(), 2u);

  // A consistent late clock still evicts both (the sane flow is hugely
  // idle relative to the end of time, the hostile one exactly 100us idle).
  pipe.flush_idle(/*now=*/~std::uint64_t{0}, /*idle=*/100);
  EXPECT_EQ(pipe.active_flows(), 0u);
}

TEST(FlushIdle, DrainAfterSynFloodKeepsInFlightHandshakes) {
  // A trained bank, so a handshake that lost or swapped its SYN state on
  // the way through the drain would change a verdict.
  const synth::Dataset lab = synth::generate_lab_dataset(42, 0.1);
  ClassifierBank bank;
  bank.train(lab);
  const Provider providers[] = {Provider::YouTube, Provider::Netflix,
                                Provider::Disney, Provider::Amazon};
  std::vector<synth::LabeledFlow> legit;
  for (std::size_t i = 0; i < 8; ++i) {
    const Provider provider = providers[i % 4];
    const auto platforms = fingerprint::platforms_for(provider, Transport::Tcp);
    Rng rng(100 + i);
    synth::FlowSynthesizer synthesizer(rng);
    synth::FlowOptions opt;
    opt.start_time_us = 2'000'000 + i * 1'000;
    legit.push_back(synthesizer.synthesize(
        fingerprint::make_profile(platforms[i % platforms.size()], provider,
                                  Transport::Tcp),
        opt));
  }
  // The eight flows' TCP handshakes (SYN, SYN-ACK, ACK), then the rest.
  const auto feed_part = [&legit](VideoFlowPipeline& pipe, bool head) {
    for (const auto& flow : legit)
      for (std::size_t i = head ? 0 : 3;
           i < (head ? std::size_t{3} : flow.packets.size()); ++i)
        pipe.on_packet(flow.packets[i]);
  };

  std::vector<telemetry::SessionRecord> expected;
  {
    VideoFlowPipeline pipe(&bank);
    pipe.set_sink([&](telemetry::SessionRecord r) { expected.push_back(r); });
    feed_part(pipe, true);
    feed_part(pipe, false);
    pipe.flush_all();
  }
  ASSERT_EQ(expected.size(), legit.size());

  // Unbounded table: a 5000-flow SYN flood, the eight flows mid-handshake,
  // then an idle flush that drains the flood down to those eight — far
  // below an eighth of the peak, so the table compacts around them.
  VideoFlowPipeline pipe(&bank);
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&](telemetry::SessionRecord r) { records.push_back(r); });
  constexpr std::uint32_t kFlood = 5000;
  for (std::uint32_t i = 0; i < kFlood; ++i)
    pipe.on_packet(campus::make_flood_syn(i, i * 10, /*seed=*/6));
  feed_part(pipe, true);
  ASSERT_EQ(pipe.active_flows(), kFlood + legit.size());
  pipe.flush_idle(/*now=*/2'100'000, /*idle=*/1'000'000);
  EXPECT_EQ(pipe.active_flows(), legit.size());
  EXPECT_TRUE(records.empty());  // flood flows never became video flows

  feed_part(pipe, false);
  pipe.flush_all();
  EXPECT_EQ(pipe.stats().flows_total, kFlood + legit.size());
  ASSERT_EQ(records.size(), expected.size());
  const auto by_start = [](const telemetry::SessionRecord& a,
                           const telemetry::SessionRecord& b) {
    return a.counters.first_us < b.counters.first_us;
  };
  std::sort(records.begin(), records.end(), by_start);
  std::sort(expected.begin(), expected.end(), by_start);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_TRUE(records[i] == expected[i]) << records[i].sni;
}

TEST(SinkErrors, ThrowingSinkIsCountedAndPipelineSurvives) {
  VideoFlowPipeline pipe(nullptr);
  int calls = 0;
  pipe.set_sink([&](telemetry::SessionRecord) {
    ++calls;
    if (calls == 1) throw std::runtime_error("downstream store unavailable");
  });
  feed(pipe, make_video_flow(0, Provider::YouTube, Transport::Tcp, 40));
  pipe.flush_all();  // first record: sink throws
  EXPECT_EQ(pipe.stats().sink_errors, 1u);
  EXPECT_EQ(pipe.active_flows(), 0u);

  // The pipeline keeps working after the sink failure.
  feed(pipe, make_video_flow(1'000'000, Provider::Netflix, Transport::Tcp, 41));
  pipe.flush_all();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(pipe.stats().sink_errors, 1u);
  EXPECT_EQ(pipe.stats().video_flows, 2u);
}

TEST(AdmissionClassHeuristic, ClassifiesHandshakeBearingPackets) {
  // TCP: the SYN and every TLS handshake record lead the admission queue.
  const auto tcp_flow =
      make_video_flow(0, Provider::YouTube, Transport::Tcp, 50);
  bool saw_syn = false, saw_tls_handshake = false, saw_payload = false;
  for (const auto& p : tcp_flow.packets) {
    const auto decoded = net::decode(p);
    ASSERT_TRUE(decoded.has_value());
    const AdmissionClass cls = admission_class(*decoded);
    if (decoded->tcp->flags.syn) {
      EXPECT_EQ(cls, AdmissionClass::Handshake);
      saw_syn = true;
    } else if (decoded->payload.size() >= 2 && decoded->payload[0] == 0x16 &&
               decoded->payload[1] == 0x03) {
      EXPECT_EQ(cls, AdmissionClass::Handshake);
      saw_tls_handshake = true;
    } else {
      EXPECT_EQ(cls, AdmissionClass::Payload);
      saw_payload = true;
    }
  }
  EXPECT_TRUE(saw_syn);
  EXPECT_TRUE(saw_tls_handshake);
  EXPECT_TRUE(saw_payload);

  // QUIC: the long-header Initial flight is handshake class, short-header
  // packets are payload class.
  const auto quic_flow =
      make_video_flow(0, Provider::YouTube, Transport::Quic, 51);
  const auto first = net::decode(quic_flow.packets.front());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->udp.has_value());
  EXPECT_EQ(admission_class(*first), AdmissionClass::Handshake);
  // A hand-built short-header QUIC packet (form bit clear) is payload class.
  net::UdpHeader udp;
  udp.src_port = 51000;
  udp.dst_port = 443;
  net::Ipv4Header ip;
  ip.protocol = net::kProtoUdp;
  ip.src = net::IpAddr::v4(10, 0, 0, 1);
  ip.dst = net::IpAddr::v4(142, 250, 0, 1);
  const Bytes short_header = {0x4f, 0x01, 0x02, 0x03, 0x04};
  const net::Packet short_pkt{0, ip.serialize(udp.serialize(short_header))};
  const auto short_decoded = net::decode(short_pkt);
  ASSERT_TRUE(short_decoded.has_value());
  ASSERT_TRUE(short_decoded->udp.has_value());
  EXPECT_EQ(admission_class(*short_decoded), AdmissionClass::Payload);

  // The flood SYN generator produces handshake-class packets by design.
  const auto syn = net::decode(campus::make_flood_syn(7, 0, 5));
  ASSERT_TRUE(syn.has_value());
  EXPECT_EQ(admission_class(*syn), AdmissionClass::Handshake);
}

TEST(DropAccounting, SingleThreadedIdentityHolds) {
  VideoFlowPipeline pipe(nullptr, {.max_flows = 2});
  // A non-IP packet, a flood, and a full video flow: total == processed in
  // every single-threaded configuration (nothing sheds, nothing strands).
  pipe.on_packet({0, Bytes{0xde, 0xad}});
  for (std::uint32_t i = 0; i < 20; ++i)
    pipe.on_packet(campus::make_flood_syn(i, i, /*seed=*/6));
  feed(pipe, make_video_flow(1'000, Provider::Amazon, Transport::Tcp, 60));
  pipe.flush_all();

  const PipelineStats& s = pipe.stats();
  EXPECT_EQ(s.packets_total,
            s.packets_processed + s.packets_dropped_payload +
                s.packets_dropped_handshake + s.packets_stranded);
  EXPECT_EQ(s.packets_dropped_payload, 0u);
  EXPECT_EQ(s.packets_dropped_handshake, 0u);
  EXPECT_EQ(s.packets_stranded, 0u);
  EXPECT_EQ(s.packets_non_ip, 1u);
}

}  // namespace
}  // namespace vpscope::pipeline
