#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <vector>

#include "net/ip.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "util/rng.hpp"

namespace vpscope::net {
namespace {

TEST(IpAddr, V4Formatting) {
  EXPECT_EQ(IpAddr::v4(192, 168, 1, 10).to_string(), "192.168.1.10");
}

TEST(IpAddr, V4U32RoundTrip) {
  const IpAddr a = IpAddr::v4(10, 20, 30, 40);
  EXPECT_EQ(IpAddr::v4_from_u32(a.as_v4_u32()), a);
}

TEST(Checksum, KnownVector) {
  // Classic example from RFC 1071 discussions.
  const Bytes data = from_hex("0001f203f4f5f6f7");
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Ipv4, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.ttl = 57;
  h.protocol = kProtoTcp;
  h.src = IpAddr::v4(10, 0, 0, 1);
  h.dst = IpAddr::v4(142, 250, 70, 78);
  h.identification = 0x1234;
  const Bytes payload = {1, 2, 3, 4, 5};
  const Bytes wire = h.serialize(payload);

  std::size_t hlen = 0;
  const auto parsed = Ipv4Header::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(hlen, Ipv4Header::kMinSize);
  EXPECT_EQ(parsed->ttl, 57);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->total_length, wire.size());
  // Header checksum must validate (sum over header with checksum = 0).
  EXPECT_EQ(internet_checksum(ByteView{wire.data(), hlen}), 0);
}

TEST(Ipv4, ParseRejectsTruncated) {
  EXPECT_FALSE(Ipv4Header::parse(from_hex("4500"), nullptr).has_value());
}

TEST(Ipv4, ParseRejectsWrongVersion) {
  Bytes garbage(20, 0);
  garbage[0] = 0x55;
  EXPECT_FALSE(Ipv4Header::parse(garbage, nullptr).has_value());
}

TEST(Ipv6, SerializeParseRoundTrip) {
  Ipv6Header h;
  h.hop_limit = 64;
  h.next_header = kProtoUdp;
  h.src.is_v6 = h.dst.is_v6 = true;
  h.src.bytes[15] = 1;
  h.dst.bytes[15] = 2;
  const Bytes wire = h.serialize(from_hex("cafe"));
  std::size_t hlen = 0;
  const auto parsed = Ipv6Header::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(hlen, Ipv6Header::kSize);
  EXPECT_EQ(parsed->hop_limit, 64);
  EXPECT_EQ(parsed->next_header, kProtoUdp);
  EXPECT_EQ(parsed->src, h.src);
}

TEST(Tcp, SynWithOptionsRoundTrip) {
  TcpHeader h;
  h.src_port = 51234;
  h.dst_port = 443;
  h.seq = 0xdeadbeef;
  h.flags.syn = true;
  h.window = 65535;
  h.options.mss = 1460;
  h.options.window_scale = 8;
  h.options.sack_permitted = true;
  h.options.timestamps = true;
  h.options.ts_value = 12345;

  const Bytes wire = h.serialize({});
  std::size_t hlen = 0;
  const auto parsed = TcpHeader::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 51234);
  EXPECT_EQ(parsed->dst_port, 443);
  EXPECT_TRUE(parsed->flags.syn);
  EXPECT_FALSE(parsed->flags.ack);
  EXPECT_EQ(parsed->window, 65535);
  ASSERT_TRUE(parsed->options.mss.has_value());
  EXPECT_EQ(*parsed->options.mss, 1460);
  ASSERT_TRUE(parsed->options.window_scale.has_value());
  EXPECT_EQ(*parsed->options.window_scale, 8);
  EXPECT_TRUE(parsed->options.sack_permitted);
  EXPECT_TRUE(parsed->options.timestamps);
  EXPECT_EQ(parsed->options.ts_value, 12345u);
  EXPECT_EQ(hlen % 4, 0u);
}

TEST(Tcp, KindOrderPreservedWithNops) {
  TcpHeader h;
  h.flags.syn = true;
  h.options.mss = 1460;
  h.options.sack_permitted = true;
  h.options.window_scale = 6;
  // Windows-style ordering: MSS, NOP, WScale, NOP, NOP, SACKperm.
  h.options.kind_order = {2, 1, 3, 1, 1, 4};
  const Bytes wire = h.serialize({});
  const auto parsed = TcpHeader::parse(wire, nullptr);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->options.kind_order, (std::vector<std::uint8_t>{2, 1, 3, 1, 1, 4}));
}

TEST(Tcp, FlagByteRoundTrip) {
  for (int b = 0; b < 256; ++b) {
    const auto f = TcpFlags::from_byte(static_cast<std::uint8_t>(b));
    EXPECT_EQ(f.to_byte(), b);
  }
}

TEST(Tcp, PayloadCarriedThrough) {
  TcpHeader h;
  h.flags.psh = h.flags.ack = true;
  const Bytes payload = from_hex("160301004a");
  const Bytes wire = h.serialize(payload);
  std::size_t hlen = 0;
  ASSERT_TRUE(TcpHeader::parse(wire, &hlen).has_value());
  EXPECT_EQ(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(hlen), wire.end()),
            payload);
}

TEST(Udp, RoundTrip) {
  UdpHeader h;
  h.src_port = 50000;
  h.dst_port = 443;
  const Bytes wire = h.serialize(from_hex("c0ffee"));
  std::size_t hlen = 0;
  const auto parsed = UdpHeader::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 50000);
  EXPECT_EQ(parsed->dst_port, 443);
  EXPECT_EQ(hlen, UdpHeader::kSize);
}

TEST(FlowKey, CanonicalIsDirectionless) {
  const IpAddr a = IpAddr::v4(10, 0, 0, 1);
  const IpAddr b = IpAddr::v4(142, 250, 70, 78);
  bool fwd = false, rev = false;
  const FlowKey k1 = FlowKey::canonical(a, 51234, b, 443, kProtoTcp, &fwd);
  const FlowKey k2 = FlowKey::canonical(b, 443, a, 51234, kProtoTcp, &rev);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(fwd, rev);
  EXPECT_EQ(FlowKeyHash{}(k1), FlowKeyHash{}(k2));
}

TEST(FlowKey, DifferentPortsDiffer) {
  const IpAddr a = IpAddr::v4(10, 0, 0, 1);
  const IpAddr b = IpAddr::v4(142, 250, 70, 78);
  const FlowKey k1 = FlowKey::canonical(a, 1111, b, 443, kProtoTcp);
  const FlowKey k2 = FlowKey::canonical(a, 2222, b, 443, kProtoTcp);
  EXPECT_NE(k1, k2);
}

TEST(FlowKeyHash, ShardAssignmentDistributesEvenly) {
  // The worst realistic case for `hash % n_shards` dispatch: a low-entropy
  // key population — sequential campus client addresses, one CDN server,
  // a narrow ephemeral-port range. The SplitMix64 finalizer must spread
  // these evenly across every shard count, including non-powers of two.
  const IpAddr server = IpAddr::v4(142, 250, 70, 78);
  constexpr int kFlows = 40000;
  for (const std::size_t shards : {2u, 4u, 7u, 8u}) {
    std::vector<int> buckets(shards, 0);
    for (int i = 0; i < kFlows; ++i) {
      const IpAddr client =
          IpAddr::v4(10, 7, static_cast<std::uint8_t>(i >> 8),
                     static_cast<std::uint8_t>(i));
      const auto port = static_cast<std::uint16_t>(40000 + i % 4096);
      const FlowKey key =
          FlowKey::canonical(client, port, server, 443, kProtoTcp);
      buckets[FlowKeyHash{}(key) % shards]++;
    }
    const double expected = static_cast<double>(kFlows) / shards;
    for (std::size_t b = 0; b < shards; ++b) {
      EXPECT_GT(buckets[b], expected * 0.9)
          << "shards=" << shards << " bucket=" << b;
      EXPECT_LT(buckets[b], expected * 1.1)
          << "shards=" << shards << " bucket=" << b;
    }
  }
}

TEST(FlowKeyHash, SingleBitKeyChangesAvalanche) {
  // Flipping one low bit of the port must flip roughly half the hash bits
  // (full-avalanche property the shard dispatch depends on).
  const IpAddr a = IpAddr::v4(10, 0, 0, 1);
  const IpAddr b = IpAddr::v4(142, 250, 70, 78);
  int total_flipped = 0;
  constexpr int kPairs = 1000;
  for (int i = 0; i < kPairs; ++i) {
    const auto port = static_cast<std::uint16_t>(40000 + 2 * i);
    const auto h1 = FlowKeyHash{}(
        FlowKey::canonical(a, port, b, 443, kProtoTcp));
    const auto h2 = FlowKeyHash{}(FlowKey::canonical(
        a, static_cast<std::uint16_t>(port + 1), b, 443, kProtoTcp));
    total_flipped += std::popcount(static_cast<std::uint64_t>(h1 ^ h2));
  }
  const double mean_flipped = static_cast<double>(total_flipped) / kPairs;
  EXPECT_GT(mean_flipped, 24.0);
  EXPECT_LT(mean_flipped, 40.0);
}

/// Checks one 65,536-key family that varies a single key field: every key
/// hashes apart, and `hash % shards` gives each of 3, 4 and 8 shards an
/// even share within ±5%.
void expect_family_spreads(const char* family,
                           FlowKey (*key_of)(std::uint32_t)) {
  constexpr std::uint32_t kKeys = 65536;
  std::vector<std::uint64_t> hashes;
  hashes.reserve(kKeys);
  for (std::uint32_t i = 0; i < kKeys; ++i)
    hashes.push_back(FlowKeyHash{}(key_of(i)));
  std::vector<std::uint64_t> sorted = hashes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << family << ": two keys share a hash";
  for (const std::uint64_t shards : {3u, 4u, 8u}) {
    std::vector<int> buckets(shards, 0);
    for (const std::uint64_t h : hashes) buckets[h % shards]++;
    const double even = static_cast<double>(kKeys) / shards;
    for (std::uint64_t b = 0; b < shards; ++b) {
      EXPECT_GE(buckets[b], even * 0.95)
          << family << " shards=" << shards << " bucket=" << b;
      EXPECT_LE(buckets[b], even * 1.05)
          << family << " shards=" << shards << " bucket=" << b;
    }
  }
}

IpAddr v6(std::array<std::uint8_t, 16> bytes) {
  IpAddr addr;
  addr.is_v6 = true;
  addr.bytes = bytes;
  return addr;
}

// Families that vary one field only. The hash multiplies each key word by
// its own odd constant before one shared finalizer, so a family that moves
// one word must stay collision-free, and the finalizer must carry the
// word's entropy into the low bits that pick the shard.
TEST(FlowKeyHash, OneFieldFamiliesHashApartAndSpreadOverShards) {
  expect_family_spreads("ipv6 high word", [](std::uint32_t i) {
    IpAddr client = v6({0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0, 0, 0, 0, 0,
                        0, 0, 0, 0, 1});
    client.bytes[6] = static_cast<std::uint8_t>(i >> 8);
    client.bytes[7] = static_cast<std::uint8_t>(i);
    const IpAddr server = v6({0x26, 0x07, 0xf8, 0xb0, 0, 0, 0, 0, 0, 0, 0,
                              0, 0, 0, 0x20, 0x0e});
    return FlowKey::canonical(client, 50000, server, 443, kProtoUdp);
  });
  expect_family_spreads("ipv6 low word", [](std::uint32_t i) {
    IpAddr client = v6({0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0, 0, 0, 0, 0,
                        0, 0, 0, 0, 0});
    client.bytes[14] = static_cast<std::uint8_t>(i >> 8);
    client.bytes[15] = static_cast<std::uint8_t>(i);
    const IpAddr server = v6({0x26, 0x07, 0xf8, 0xb0, 0, 0, 0, 0, 0, 0, 0,
                              0, 0, 0, 0x20, 0x0e});
    return FlowKey::canonical(client, 50000, server, 443, kProtoUdp);
  });
  expect_family_spreads("ipv4 address", [](std::uint32_t i) {
    const IpAddr client = IpAddr::v4(10, 7, static_cast<std::uint8_t>(i >> 8),
                                     static_cast<std::uint8_t>(i));
    return FlowKey::canonical(client, 50000, IpAddr::v4(142, 250, 70, 78),
                              443, kProtoTcp);
  });
  expect_family_spreads("client port", [](std::uint32_t i) {
    return FlowKey::canonical(IpAddr::v4(10, 7, 0, 1),
                              static_cast<std::uint16_t>(i),
                              IpAddr::v4(142, 250, 70, 78), 443, kProtoTcp);
  });
}

TEST(Decode, TcpPacketEndToEnd) {
  TcpHeader tcp;
  tcp.src_port = 50001;
  tcp.dst_port = 443;
  tcp.flags.syn = true;
  tcp.options.mss = 1400;
  Ipv4Header ip;
  ip.ttl = 63;
  ip.src = IpAddr::v4(10, 1, 2, 3);
  ip.dst = IpAddr::v4(1, 2, 3, 4);
  Packet pkt;
  pkt.timestamp_us = 777;
  pkt.data = ip.serialize(tcp.serialize(from_hex("aabb")));

  const auto d = decode(pkt);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->timestamp_us, 777u);
  EXPECT_EQ(d->ttl, 63);
  EXPECT_EQ(d->protocol, kProtoTcp);
  ASSERT_TRUE(d->tcp.has_value());
  EXPECT_EQ(d->tcp->src_port, 50001);
  EXPECT_EQ(d->payload.size(), 2u);
  EXPECT_EQ(d->ip_packet_size, pkt.data.size());
}

TEST(Decode, UdpPacketEndToEnd) {
  UdpHeader udp;
  udp.src_port = 50002;
  udp.dst_port = 443;
  Ipv4Header ip;
  ip.protocol = kProtoUdp;
  ip.src = IpAddr::v4(10, 1, 2, 3);
  ip.dst = IpAddr::v4(1, 2, 3, 4);
  Packet pkt;
  pkt.data = ip.serialize(udp.serialize(Bytes(1200, 0)));
  const auto d = decode(pkt);
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->udp.has_value());
  EXPECT_EQ(d->payload.size(), 1200u);
}

TEST(Decode, RejectsGarbage) {
  Packet pkt;
  pkt.data = from_hex("ffffffff");
  EXPECT_FALSE(decode(pkt).has_value());
}

TEST(Pcap, WriteReadRoundTrip) {
  std::vector<Packet> packets;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(40000 + i);
    tcp.dst_port = 443;
    tcp.flags.syn = true;
    Ipv4Header ip;
    ip.src = IpAddr::v4(10, 0, 0, static_cast<std::uint8_t>(i));
    ip.dst = IpAddr::v4(8, 8, 8, 8);
    Packet p;
    p.timestamp_us = 1000000ULL * static_cast<std::uint64_t>(i) + rng.uniform(0, 999999);
    p.data = ip.serialize(tcp.serialize({}));
    packets.push_back(std::move(p));
  }

  std::stringstream ss;
  ASSERT_TRUE(write_pcap(ss, packets));
  const auto readback = read_pcap(ss);
  ASSERT_TRUE(readback.has_value());
  ASSERT_EQ(readback->size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ((*readback)[i].timestamp_us, packets[i].timestamp_us);
    EXPECT_EQ((*readback)[i].data, packets[i].data);
  }
}

TEST(Pcap, RejectsBadMagic) {
  std::stringstream ss;
  ss << "not a pcap file at all, sorry";
  EXPECT_FALSE(read_pcap(ss).has_value());
}

TEST(Pcap, RejectsTruncatedRecord) {
  std::vector<Packet> packets(1);
  packets[0].data = Bytes(40, 0x45);
  std::stringstream ss;
  ASSERT_TRUE(write_pcap(ss, packets));
  std::string content = ss.str();
  content.resize(content.size() - 5);
  std::stringstream truncated(content);
  EXPECT_FALSE(read_pcap(truncated).has_value());
}

}  // namespace
}  // namespace vpscope::net
