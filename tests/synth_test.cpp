#include <gtest/gtest.h>

#include <sstream>

#include "core/handshake.hpp"
#include "net/pcap.hpp"
#include "synth/dataset.hpp"
#include "synth/flow_synthesizer.hpp"

namespace vpscope::synth {
namespace {

using fingerprint::Agent;
using fingerprint::Environment;
using fingerprint::Os;
using fingerprint::PlatformId;
using fingerprint::Provider;
using fingerprint::Transport;

TEST(FlowSynthesizer, TcpFlowHasHandshakeAnatomy) {
  Rng rng(1);
  FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Netflix, Transport::Tcp);
  const LabeledFlow flow = synth.synthesize(profile);

  // SYN, SYN-ACK, ACK, ClientHello, ServerHello stub.
  ASSERT_EQ(flow.packets.size(), 5u);
  const auto syn = net::decode(flow.packets[0]);
  ASSERT_TRUE(syn && syn->tcp);
  EXPECT_TRUE(syn->tcp->flags.syn);
  EXPECT_FALSE(syn->tcp->flags.ack);
  EXPECT_EQ(syn->ttl, 128);  // Windows
  EXPECT_EQ(syn->tcp->window, 64240);
  ASSERT_TRUE(syn->tcp->options.mss.has_value());

  const auto synack = net::decode(flow.packets[1]);
  ASSERT_TRUE(synack && synack->tcp);
  EXPECT_TRUE(synack->tcp->flags.syn);
  EXPECT_TRUE(synack->tcp->flags.ack);
  EXPECT_EQ(synack->src, flow.server_ip);
}

TEST(FlowSynthesizer, AppleSynSetsEcn) {
  Rng rng(2);
  FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::MacOS, Agent::Safari}, Provider::Netflix, Transport::Tcp);
  const LabeledFlow flow = synth.synthesize(profile);
  const auto syn = net::decode(flow.packets[0]);
  ASSERT_TRUE(syn && syn->tcp);
  EXPECT_TRUE(syn->tcp->flags.cwr);
  EXPECT_TRUE(syn->tcp->flags.ece);
  EXPECT_TRUE(syn->tcp->options.timestamps);
}

TEST(FlowSynthesizer, HandshakeExtractionRecoversChloForEveryCombo) {
  Rng rng(3);
  FlowSynthesizer synth(rng);
  for (const auto& platform : fingerprint::all_platforms()) {
    for (Provider provider : fingerprint::all_providers()) {
      for (Transport transport : {Transport::Tcp, Transport::Quic}) {
        const bool ok = transport == Transport::Quic
                            ? fingerprint::supports_quic(platform, provider)
                            : fingerprint::supports_tcp(platform, provider);
        if (!ok) continue;
        const auto profile =
            fingerprint::make_profile(platform, provider, transport);
        const LabeledFlow flow = synth.synthesize(profile);
        const auto handshake = core::extract_handshake(flow.packets);
        ASSERT_TRUE(handshake.has_value())
            << fingerprint::to_string(platform) << " "
            << fingerprint::to_string(provider) << " "
            << fingerprint::to_string(transport);
        EXPECT_EQ(handshake->transport, transport);
        EXPECT_EQ(handshake->chlo.server_name_view(), flow.sni);
        if (transport == Transport::Quic) {
          EXPECT_TRUE(handshake->quic_tp.has_value());
          EXPECT_GE(handshake->init_packet_size, 1200u);
        }
      }
    }
  }
}

TEST(FlowSynthesizer, QuicInitialSizeTracksProfile) {
  Rng rng(4);
  FlowSynthesizer synth(rng);
  const auto chrome = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::YouTube, Transport::Quic);
  const auto firefox = fingerprint::make_profile(
      {Os::Windows, Agent::Firefox}, Provider::YouTube, Transport::Quic);
  const auto f1 = synth.synthesize(chrome);
  const auto f2 = synth.synthesize(firefox);
  const auto h1 = core::extract_handshake(f1.packets);
  const auto h2 = core::extract_handshake(f2.packets);
  ASSERT_TRUE(h1 && h2);
  // IP datagram = profile initial size + IP(20) + UDP(8).
  EXPECT_EQ(h1->init_packet_size, chrome.quic.initial_datagram_size + 28);
  EXPECT_EQ(h2->init_packet_size, firefox.quic.initial_datagram_size + 28);
}

TEST(FlowSynthesizer, CaptureHopsDecrementTtl) {
  Rng rng(5);
  FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::MacOS, Agent::Chrome}, Provider::Disney, Transport::Tcp);
  FlowOptions opt;
  opt.capture_hops = 3;
  const auto flow = synth.synthesize(profile, opt);
  const auto h = core::extract_handshake(flow.packets);
  ASSERT_TRUE(h);
  EXPECT_EQ(h->ttl, 61);
}

TEST(FlowSynthesizer, GreaseVariesAcrossFlowsButStructureStable) {
  Rng rng(6);
  FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Netflix, Transport::Tcp);
  const auto f1 = synth.synthesize(profile);
  const auto f2 = synth.synthesize(profile);
  const auto h1 = core::extract_handshake(f1.packets);
  const auto h2 = core::extract_handshake(f2.packets);
  ASSERT_TRUE(h1 && h2);
  // First suite is GREASE in both, and the remaining list is identical.
  const auto suites1 = tls::ClientHello::from_wire(h1->chlo).cipher_suites;
  const auto suites2 = tls::ClientHello::from_wire(h2->chlo).cipher_suites;
  EXPECT_TRUE(tls::is_grease(suites1.front()));
  EXPECT_TRUE(tls::is_grease(suites2.front()));
  EXPECT_EQ(std::vector<std::uint16_t>(suites1.begin() + 1, suites1.end()),
            std::vector<std::uint16_t>(suites2.begin() + 1, suites2.end()));
}

TEST(FlowSynthesizer, PayloadPacketsCarrySnaplenVolume) {
  Rng rng(7);
  FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Netflix, Transport::Tcp);
  FlowOptions opt;
  opt.payload_bytes = 5'000'000;
  opt.payload_duration_us = 60'000'000;
  const auto flow = synth.synthesize(profile, opt);
  std::uint64_t downstream = 0;
  for (std::size_t i = 5; i < flow.packets.size(); ++i) {
    const auto d = net::decode(flow.packets[i]);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->src, flow.server_ip);
    downstream += d->ip_packet_size;
  }
  // Aggregate within integer-division slack of the requested volume.
  EXPECT_NEAR(static_cast<double>(downstream), 5'000'000.0, 100.0 * 64);
}

TEST(FlowSynthesizer, FlowsSurvivePcapRoundTrip) {
  Rng rng(8);
  FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::IOS, Agent::NativeApp}, Provider::YouTube, Transport::Quic);
  const auto flow = synth.synthesize(profile);

  std::stringstream ss;
  ASSERT_TRUE(net::write_pcap(ss, flow.packets));
  const auto readback = net::read_pcap(ss);
  ASSERT_TRUE(readback.has_value());
  const auto handshake = core::extract_handshake(*readback);
  ASSERT_TRUE(handshake.has_value());
  EXPECT_EQ(handshake->transport, Transport::Quic);
  EXPECT_EQ(handshake->chlo.server_name_view(), flow.sni);
}

TEST(Dataset, Table1CountsReproduced) {
  // Spot checks against the paper's Table 1.
  EXPECT_EQ(table1_flow_count({Os::Windows, Agent::Chrome}, Provider::YouTube),
            411);
  EXPECT_EQ(table1_flow_count({Os::Windows, Agent::Firefox}, Provider::Disney),
            204);
  EXPECT_EQ(table1_flow_count({Os::IOS, Agent::NativeApp}, Provider::Amazon),
            372);
  EXPECT_EQ(table1_flow_count({Os::MacOS, Agent::NativeApp}, Provider::Netflix),
            0);
  EXPECT_EQ(table1_flow_count({Os::PlayStation, Agent::NativeApp},
                              Provider::Netflix),
            100);
}

TEST(Dataset, LabDatasetSizeNearTenThousand) {
  const Dataset ds = generate_lab_dataset(42);
  // Sum of Table 1 = 10932 flows ("nearly 10,000").
  EXPECT_EQ(ds.flows.size(), 10932u);
  EXPECT_EQ(ds.environment, Environment::Lab);
}

TEST(Dataset, LabDatasetScales) {
  const Dataset ds = generate_lab_dataset(42, 0.1);
  EXPECT_GT(ds.flows.size(), 900u);
  EXPECT_LT(ds.flows.size(), 1250u);
}

TEST(Dataset, DeterministicForSeed) {
  const Dataset a = generate_lab_dataset(7, 0.05);
  const Dataset b = generate_lab_dataset(7, 0.05);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    ASSERT_EQ(a.flows[i].packets.size(), b.flows[i].packets.size());
    for (std::size_t j = 0; j < a.flows[i].packets.size(); ++j)
      EXPECT_EQ(a.flows[i].packets[j].data, b.flows[i].packets[j].data);
  }
}

TEST(Dataset, DifferentSeedsDiffer) {
  const Dataset a = generate_lab_dataset(1, 0.02);
  const Dataset b = generate_lab_dataset(2, 0.02);
  ASSERT_FALSE(a.flows.empty());
  EXPECT_NE(a.flows[0].packets[0].data, b.flows[0].packets[0].data);
}

TEST(Dataset, QuicOnlyAndroidNativeYoutube) {
  const Dataset ds = generate_lab_dataset(42);
  int android_native_yt_tcp = 0, android_native_yt_quic = 0;
  for (const auto& flow : ds.flows) {
    if (flow.provider != Provider::YouTube) continue;
    if (!(flow.platform == PlatformId{Os::Android, Agent::NativeApp}))
      continue;
    (flow.transport == Transport::Quic ? android_native_yt_quic
                                       : android_native_yt_tcp)++;
  }
  EXPECT_EQ(android_native_yt_tcp, 0);
  EXPECT_EQ(android_native_yt_quic, 100);
}

TEST(Dataset, HomeDatasetEvenSpread) {
  const Dataset ds = generate_home_dataset(77, 2000);
  EXPECT_EQ(ds.environment, Environment::Home);
  EXPECT_GE(ds.flows.size(), 1900u);
  std::map<std::string, int> per_combo;
  for (const auto& flow : ds.flows)
    per_combo[fingerprint::to_string(flow.platform) +
              fingerprint::to_string(flow.provider) +
              fingerprint::to_string(flow.transport)]++;
  int min_count = 1 << 30, max_count = 0;
  for (const auto& [combo, count] : per_combo) {
    min_count = std::min(min_count, count);
    max_count = std::max(max_count, count);
  }
  EXPECT_EQ(min_count, max_count);  // evenly spread
}

}  // namespace
}  // namespace vpscope::synth
