// Failure-injection and fuzz robustness: an on-path classifier ingests
// hostile, truncated and corrupted traffic all day. Nothing here may crash,
// hang, or fabricate a confident classification from garbage.
#include <gtest/gtest.h>

#include "core/handshake.hpp"
#include "net/pcap.hpp"
#include "pipeline/pipeline.hpp"
#include "quic/initial.hpp"
#include "quic/transport_params.hpp"
#include "synth/dataset.hpp"
#include "tls/client_hello.hpp"

namespace vpscope {
namespace {

using fingerprint::Agent;
using fingerprint::Os;
using fingerprint::Provider;
using fingerprint::Transport;

class RandomBytes {
 public:
  explicit RandomBytes(std::uint64_t seed) : rng_(seed) {}
  Bytes make(std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng_.next_u32());
    return out;
  }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

// ---- parser fuzz: random bytes must be rejected, never crash ----

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashParsers) {
  RandomBytes fuzz(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const Bytes data = fuzz.make(fuzz.rng().uniform(0, 300));
    (void)tls::ClientHello::parse_handshake(data);
    (void)tls::ClientHello::parse_record(data);
    (void)quic::TransportParameters::parse(data);
    (void)quic::unprotect_client_initial(data);
    (void)net::Ipv4Header::parse(data, nullptr);
    (void)net::TcpHeader::parse(data, nullptr);
    (void)net::UdpHeader::parse(data, nullptr);
    net::Packet packet{0, data};
    (void)net::decode(packet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 10));

// ---- bit-flip fuzz on valid flows ----

class BitFlipFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BitFlipFuzz, CorruptedFlowsNeverCrashExtraction) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  synth::FlowSynthesizer synth(rng.fork());
  const auto profiles = {
      fingerprint::make_profile({Os::Windows, Agent::Chrome},
                                Provider::YouTube, Transport::Quic),
      fingerprint::make_profile({Os::MacOS, Agent::Safari},
                                Provider::Netflix, Transport::Tcp),
  };
  for (const auto& profile : profiles) {
    auto flow = synth.synthesize(profile);
    for (int round = 0; round < 50; ++round) {
      auto packets = flow.packets;
      // Flip a handful of random bytes across the flow.
      for (int f = 0; f < 5; ++f) {
        auto& packet = packets[rng.uniform(0, packets.size() - 1)];
        if (packet.data.empty()) continue;
        packet.data[rng.uniform(0, packet.data.size() - 1)] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
      }
      (void)core::extract_handshake(packets);  // must not crash
    }
  }
}

TEST_P(BitFlipFuzz, TruncatedFlowsNeverCrashExtraction) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
  synth::FlowSynthesizer synth(rng.fork());
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Firefox}, Provider::YouTube, Transport::Quic);
  auto flow = synth.synthesize(profile);
  for (int round = 0; round < 50; ++round) {
    auto packets = flow.packets;
    auto& packet = packets[rng.uniform(0, packets.size() - 1)];
    packet.data.resize(rng.uniform(0, packet.data.size()));
    (void)core::extract_handshake(packets);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitFlipFuzz, ::testing::Range(0, 5));

// ---- pipeline under hostile traffic ----

TEST(PipelineRobustness, GarbagePacketStreamIsHarmless) {
  pipeline::VideoFlowPipeline pipe(nullptr);  // even without a bank
  int records = 0;
  pipe.set_sink([&records](telemetry::SessionRecord) { ++records; });
  RandomBytes fuzz(4242);
  for (int i = 0; i < 2000; ++i) {
    net::Packet packet{static_cast<std::uint64_t>(i),
                       fuzz.make(fuzz.rng().uniform(0, 200))};
    pipe.on_packet(packet);
  }
  pipe.flush_all();
  EXPECT_EQ(records, 0);  // nothing real in there
  EXPECT_EQ(pipe.stats().video_flows, 0u);
}

TEST(PipelineRobustness, SynFloodBoundedByFlushIdle) {
  // Tens of thousands of orphan SYNs (a scan / flood) must be evictable.
  pipeline::VideoFlowPipeline pipe(nullptr);
  pipe.set_sink([](telemetry::SessionRecord) {});
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    net::TcpHeader syn;
    syn.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    syn.dst_port = 443;
    syn.flags.syn = true;
    net::Ipv4Header ip;
    ip.src = net::IpAddr::v4_from_u32(static_cast<std::uint32_t>(rng.next_u32()));
    ip.dst = net::IpAddr::v4(1, 2, 3, 4);
    pipe.on_packet({static_cast<std::uint64_t>(i), ip.serialize(syn.serialize({}))});
  }
  EXPECT_GT(pipe.active_flows(), 10000u);
  pipe.flush_idle(30'000'000'000ULL, 1'000'000);
  EXPECT_EQ(pipe.active_flows(), 0u);
}

TEST(PipelineRobustness, ReplayedHandshakeClassifiedOnce) {
  synth::Dataset lab = synth::generate_lab_dataset(42, 0.15);
  pipeline::ClassifierBank bank;
  bank.train(lab);
  pipeline::VideoFlowPipeline pipe(&bank);
  int records = 0;
  pipe.set_sink([&records](telemetry::SessionRecord) { ++records; });

  Rng rng(6);
  synth::FlowSynthesizer synth(rng);
  const auto flow = synth.synthesize(fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Netflix, Transport::Tcp));
  // Replay the same flow's packets three times (retransmission storm).
  for (int round = 0; round < 3; ++round)
    for (const auto& packet : flow.packets) pipe.on_packet(packet);
  pipe.flush_all();
  EXPECT_EQ(records, 1);
  EXPECT_EQ(pipe.stats().video_flows, 1u);
}

TEST(PipelineRobustness, ChloSplitAcrossTinySegmentsStillExtracts) {
  // A ClientHello delivered in 10-byte TCP segments must reassemble.
  Rng rng(7);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::MacOS, Agent::Firefox}, Provider::Disney, Transport::Tcp);
  const auto flow = synth.synthesize(profile);

  // Find the CHLO packet and re-split its payload.
  std::vector<net::Packet> packets(flow.packets.begin(),
                                   flow.packets.begin() + 3);
  const auto chlo_packet = net::decode(flow.packets[3]);
  ASSERT_TRUE(chlo_packet && chlo_packet->tcp);
  const ByteView payload = chlo_packet->payload;
  for (std::size_t off = 0; off < payload.size(); off += 10) {
    net::TcpHeader seg = *chlo_packet->tcp;
    seg.seq += static_cast<std::uint32_t>(off);
    net::Ipv4Header ip;
    ip.ttl = 64;
    ip.src = flow.client_ip;
    ip.dst = flow.server_ip;
    const std::size_t len = std::min<std::size_t>(10, payload.size() - off);
    packets.push_back({flow.packets[3].timestamp_us + off,
                       ip.serialize(seg.serialize(payload.subspan(off, len)))});
  }
  const auto handshake = core::extract_handshake(packets);
  ASSERT_TRUE(handshake.has_value());
  EXPECT_EQ(handshake->chlo.server_name_view(), flow.sni);
}

TEST(PipelineRobustness, PcapRoundTripOfCorruptedCaptureIsRejectedCleanly) {
  Rng rng(8);
  synth::FlowSynthesizer synth(rng);
  const auto flow = synth.synthesize(fingerprint::make_profile(
      {Os::Android, Agent::NativeApp}, Provider::YouTube, Transport::Quic));
  std::stringstream ss;
  ASSERT_TRUE(net::write_pcap(ss, flow.packets));
  std::string blob = ss.str();
  // Corrupt the record headers region.
  for (std::size_t i = 24; i < blob.size() && i < 80; i += 7)
    blob[i] = static_cast<char>(~blob[i]);
  std::stringstream corrupted(blob);
  // Either cleanly rejected or parsed into packets that then fail decode —
  // never a crash.
  const auto packets = net::read_pcap(corrupted);
  if (packets) {
    for (const auto& packet : *packets) (void)net::decode(packet);
  }
  SUCCEED();
}

}  // namespace
}  // namespace vpscope
