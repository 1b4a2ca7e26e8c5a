// Decode oracle: net::decode_into (and the net::decode / TcpHeader::parse
// wrappers over it) against the optional-returning reference decoder in
// reference_decode.hpp. Inputs are every datagram of the golden pcap corpus
// (each also rebuilt as IPv6), every truncation of each, and >= 50k
// structure-aware mutants per IP version. Both decoders must accept exactly
// the same datagrams and agree on every decoded field; the one intended
// difference is an IPv6 datagram's size, which now comes from its
// payload_length the way an IPv4 datagram's comes from total_length.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "net/pcap.hpp"
#include "reference_decode.hpp"
#include "util/rng.hpp"

#ifndef VPSCOPE_GOLDEN_DIR
#define VPSCOPE_GOLDEN_DIR "tests/data/golden"
#endif

namespace vpscope {
namespace {

constexpr int kMutantsPerVersion = 50'000;

/// Every IPv4 datagram of the golden corpus.
std::vector<Bytes> golden_datagrams() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VPSCOPE_GOLDEN_DIR))
    if (entry.path().extension() == ".pcap") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  std::vector<Bytes> out;
  for (const auto& file : files) {
    const auto packets = net::read_pcap_file(file.string());
    if (!packets) continue;
    for (const auto& p : *packets) out.push_back(p.data);
  }
  return out;
}

/// The same datagram carried over IPv6: transport bytes unchanged, the
/// header's fields mapped across (payload_length keeps the IPv4 length
/// claim, so snap-truncated payload packets stay truncated).
Bytes as_ipv6(const Bytes& v4) {
  const std::size_t ihl = (v4[0] & 0x0f) * std::size_t{4};
  net::Ipv6Header h;
  h.next_header = v4[9];
  h.hop_limit = v4[8];
  h.src.is_v6 = h.dst.is_v6 = true;
  h.src.bytes[0] = h.dst.bytes[0] = 0xfd;
  std::copy(v4.begin() + 12, v4.begin() + 16, h.src.bytes.begin() + 12);
  std::copy(v4.begin() + 16, v4.begin() + 20, h.dst.bytes.begin() + 12);
  const std::size_t total = static_cast<std::size_t>(v4[2] << 8 | v4[3]);
  h.payload_length = static_cast<std::uint16_t>(total > ihl ? total - ihl : 0);
  return h.serialize(ByteView(v4).subspan(ihl));
}

/// Offset of the transport header, or 0 when the IP header is unreadable.
std::size_t transport_offset(const Bytes& d) {
  if (d.empty()) return 0;
  if (d[0] >> 4 == 6) return d.size() >= 40 ? 40 : 0;
  const std::size_t ihl = (d[0] & 0x0f) * std::size_t{4};
  return ihl >= 20 && ihl <= d.size() ? ihl : 0;
}

std::uint8_t protocol_of(const Bytes& d) {
  if (d.empty()) return 0;
  if (d[0] >> 4 == 6) return d.size() > 6 ? d[6] : 0;
  return d.size() > 9 ? d[9] : 0;
}

std::uint16_t edge_u16(Rng& rng, std::size_t actual) {
  const std::uint16_t picks[] = {
      0, 1, 7, 8, 19, 20, 39, 40, 41,
      static_cast<std::uint16_t>(actual),
      static_cast<std::uint16_t>(actual + 1),
      static_cast<std::uint16_t>(actual - 1), 0xffff};
  if (rng.bernoulli(0.7))
    return picks[rng.uniform(0, std::size(picks) - 1)];
  return static_cast<std::uint16_t>(rng.next_u32());
}

void put_u16(Bytes& d, std::size_t at, std::uint16_t v) {
  if (at + 1 >= d.size()) return;
  d[at] = static_cast<std::uint8_t>(v >> 8);
  d[at + 1] = static_cast<std::uint8_t>(v);
}

/// One structure-aware mutation of `d`, aimed at a header field a bound
/// check depends on.
void mutate(Bytes& d, Rng& rng) {
  if (d.empty()) return;
  const bool v6 = d[0] >> 4 == 6;
  const std::size_t t = transport_offset(d);
  switch (rng.uniform(0, 10)) {
    case 0:  // IHL (IPv4) or a version-nibble-preserving first byte (IPv6)
      d[0] = static_cast<std::uint8_t>((d[0] & 0xf0) | rng.uniform(0, 15));
      break;
    case 1:  // non-IP (and, now and then, the other IP) version
      d[0] = static_cast<std::uint8_t>(rng.uniform(0, 15) << 4 |
                                       (d[0] & 0x0f));
      break;
    case 2:  // total_length / payload_length
      put_u16(d, v6 ? 4 : 2, edge_u16(rng, v6 ? d.size() - 40 : d.size()));
      break;
    case 3: {  // protocol
      const std::size_t at = v6 ? 6 : 9;
      const std::uint8_t picks[] = {net::kProtoTcp, net::kProtoUdp, 0, 1, 58,
                                    static_cast<std::uint8_t>(rng.next_u32())};
      if (at < d.size()) d[at] = picks[rng.uniform(0, std::size(picks) - 1)];
      break;
    }
    case 4:  // TCP data offset
      if (t && t + 12 < d.size())
        d[t + 12] = static_cast<std::uint8_t>(rng.uniform(0, 15) << 4 |
                                              (d[t + 12] & 0x0f));
      break;
    case 5: {  // a TCP option's length byte
      if (!t || protocol_of(d) != net::kProtoTcp || t + 12 >= d.size()) break;
      const std::size_t hlen = (d[t + 12] >> 4) * std::size_t{4};
      std::size_t at = t + 20;
      const std::size_t end = std::min(d.size(), t + hlen);
      std::vector<std::size_t> len_bytes;
      while (at < end) {
        const std::uint8_t kind = d[at++];
        if (kind == 0) break;
        if (kind == 1) continue;
        if (at >= end) break;
        len_bytes.push_back(at);
        at += std::max<std::size_t>(d[at], 2) - 1;
      }
      if (len_bytes.empty()) break;
      const std::size_t pos = len_bytes[rng.uniform(0, len_bytes.size() - 1)];
      const std::uint8_t picks[] = {0, 1, 2, 3, 4, 10, 40, 41, 255,
                                    static_cast<std::uint8_t>(d[pos] + 1),
                                    static_cast<std::uint8_t>(d[pos] - 1)};
      d[pos] = picks[rng.uniform(0, std::size(picks) - 1)];
      break;
    }
    case 6:  // a TCP option-area byte (kind order, bodies)
      if (t && protocol_of(d) == net::kProtoTcp && t + 20 < d.size()) {
        const std::size_t hi = std::min(d.size() - 1, t + 59);
        d[rng.uniform(t + 20, hi)] = static_cast<std::uint8_t>(
            rng.bernoulli(0.5) ? rng.uniform(0, 9) : rng.next_u32());
      }
      break;
    case 7:  // UDP length
      if (t && t + 8 <= d.size()) put_u16(d, t + 4, edge_u16(rng, d.size() - t));
      break;
    case 8:  // truncation
      d.resize(rng.uniform(0, d.size()));
      break;
    case 9: {  // trailing bytes
      const std::size_t n = rng.uniform(1, 64);
      for (std::size_t i = 0; i < n; ++i)
        d.push_back(static_cast<std::uint8_t>(rng.next_u32()));
      break;
    }
    default:  // any byte
      d[rng.uniform(0, d.size() - 1)] =
          static_cast<std::uint8_t>(rng.next_u32());
      break;
  }
}

struct Tally {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t with_options = 0;
};

/// Decodes `d` with both decoders and the wrappers and compares everything.
/// Returns false (after recording a failure) on the first disagreement.
bool check_one(const Bytes& d, Tally& tally) {
  net::Packet packet;
  packet.timestamp_us = 1'700'000'000'000'000ULL + d.size();
  packet.data = d;
  const auto want = reference::decode(packet);
  net::DecodedPacket got;
  // Stale state from a previous, different packet must not leak through.
  got.tcp.emplace().options.kind_order = {1, 1, 2};
  got.udp.emplace();
  got.src.bytes.fill(0xee);
  const bool ok = net::decode_into(packet, got);
  const auto wrapped = net::decode(packet);
  EXPECT_EQ(ok, want.has_value()) << "acceptance differs, " << d.size()
                                  << " bytes, first " << int(d.empty() ? -1 : d[0]);
  EXPECT_EQ(wrapped.has_value(), ok);
  if (ok != want.has_value() || wrapped.has_value() != ok) return false;
  if (!ok) {
    ++tally.rejected;
    return true;
  }
  ++tally.accepted;
  const reference::DecodedPacket& w = *want;
  const std::size_t size_expected =
      w.is_v6 ? std::max<std::size_t>(d.size(), 40 + (d[4] << 8 | d[5]))
              : w.ip_packet_size;
  const net::DecodedPacket* const decoded[] = {&got, &*wrapped};
  for (const net::DecodedPacket* g : decoded) {
    EXPECT_EQ(g->timestamp_us, w.timestamp_us);
    EXPECT_EQ(g->is_v6, w.is_v6);
    EXPECT_EQ(g->ttl, w.ttl);
    EXPECT_TRUE(g->src == w.src);
    EXPECT_TRUE(g->dst == w.dst);
    EXPECT_EQ(g->protocol, w.protocol);
    EXPECT_EQ(g->ip_packet_size, size_expected);
    EXPECT_EQ(g->payload.data(), w.payload.data());
    EXPECT_EQ(g->payload.size(), w.payload.size());
    EXPECT_EQ(g->tcp.has_value(), w.tcp.has_value());
    EXPECT_EQ(g->udp.has_value(), w.udp.has_value());
    if (g->udp && w.udp) {
      EXPECT_EQ(g->udp->src_port, w.udp->src_port);
      EXPECT_EQ(g->udp->dst_port, w.udp->dst_port);
    }
    if (g->tcp && w.tcp) {
      const net::TcpHeader& a = *g->tcp;
      const reference::TcpHeader& b = *w.tcp;
      EXPECT_EQ(a.src_port, b.src_port);
      EXPECT_EQ(a.dst_port, b.dst_port);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_EQ(a.ack, b.ack);
      EXPECT_EQ(a.flags.to_byte(), b.flags.to_byte());
      EXPECT_EQ(a.window, b.window);
      EXPECT_EQ(a.options.mss, b.options.mss);
      EXPECT_EQ(a.options.window_scale, b.options.window_scale);
      EXPECT_EQ(a.options.sack_permitted, b.options.sack_permitted);
      EXPECT_EQ(a.options.timestamps, b.options.timestamps);
      EXPECT_EQ(a.options.ts_value, b.options.ts_value);
      EXPECT_TRUE(a.options.kind_order == ByteView(b.options.kind_order))
          << "option kind order differs";
      if (!b.options.kind_order.empty()) ++tally.with_options;
    }
  }
  // TcpHeader::parse wraps the same parser: same verdict on the segment.
  if (w.tcp) {
    const ByteView segment = ByteView(d).subspan(transport_offset(d));
    std::size_t hlen = 0, ref_hlen = 0;
    const auto a = net::TcpHeader::parse(segment, &hlen);
    const auto b = reference::TcpHeader::parse(segment, &ref_hlen);
    EXPECT_TRUE(a && b);
    EXPECT_EQ(hlen, ref_hlen);
  }
  return !::testing::Test::HasFailure();
}

class DecodeOracle : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    v4_ = new std::vector<Bytes>(golden_datagrams());
    v6_ = new std::vector<Bytes>();
    for (const Bytes& d : *v4_) v6_->push_back(as_ipv6(d));
  }
  static void TearDownTestSuite() {
    delete v4_;
    delete v6_;
  }

  static void sweep_truncations(const std::vector<Bytes>& seeds) {
    Tally tally;
    for (const Bytes& seed : seeds)
      for (std::size_t n = 0; n <= seed.size(); ++n)
        if (!check_one(Bytes(seed.begin(), seed.begin() + n), tally)) return;
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
  }

  static void sweep_mutants(const std::vector<Bytes>& seeds,
                            std::uint64_t seed) {
    // Half the mutants start from a segment that carries TCP options (the
    // SYNs), so the option mutators have lists to corrupt.
    std::vector<const Bytes*> with_options;
    for (const Bytes& d : seeds) {
      const std::size_t t = transport_offset(d);
      if (protocol_of(d) == net::kProtoTcp && d[t + 12] >> 4 > 5)
        with_options.push_back(&d);
    }
    ASSERT_FALSE(with_options.empty());
    Rng rng(seed);
    Tally tally;
    for (int i = 0; i < kMutantsPerVersion; ++i) {
      Bytes d = rng.bernoulli(0.5)
                    ? *with_options[rng.uniform(0, with_options.size() - 1)]
                    : seeds[rng.uniform(0, seeds.size() - 1)];
      const int rounds = rng.uniform_int(1, 3);
      for (int k = 0; k < rounds; ++k) mutate(d, rng);
      if (!check_one(d, tally)) return;
    }
    // Both verdicts, and option lists, must be well represented.
    EXPECT_GT(tally.accepted, kMutantsPerVersion / 10u);
    EXPECT_GT(tally.rejected, kMutantsPerVersion / 10u);
    EXPECT_GT(tally.with_options, kMutantsPerVersion / 10u);
  }

  static std::vector<Bytes>* v4_;
  static std::vector<Bytes>* v6_;
};

std::vector<Bytes>* DecodeOracle::v4_ = nullptr;
std::vector<Bytes>* DecodeOracle::v6_ = nullptr;

TEST_F(DecodeOracle, GoldenCorpusDecodesIdentically) {
  ASSERT_GE(v4_->size(), 29u * 4);  // 29 pcaps, several packets each
  Tally tally;
  for (const auto* seeds : {v4_, v6_})
    for (const Bytes& d : *seeds) ASSERT_TRUE(check_one(d, tally));
  EXPECT_EQ(tally.rejected, 0u);
  EXPECT_GT(tally.with_options, 0u);
}

TEST_F(DecodeOracle, EveryTruncationIpv4) { sweep_truncations(*v4_); }
TEST_F(DecodeOracle, EveryTruncationIpv6) { sweep_truncations(*v6_); }

TEST_F(DecodeOracle, StructureAwareMutantsIpv4) { sweep_mutants(*v4_, 0x4d4); }
TEST_F(DecodeOracle, StructureAwareMutantsIpv6) { sweep_mutants(*v6_, 0x6d6); }

// The IPv6 size rule on its own: a snap-truncated datagram reports the
// length its header claims, a full one its captured length.
TEST_F(DecodeOracle, Ipv6SizeFromPayloadLength) {
  net::Ipv6Header h;
  h.src.is_v6 = h.dst.is_v6 = true;
  net::UdpHeader udp;
  udp.src_port = 443;
  udp.dst_port = 50000;
  h.next_header = net::kProtoUdp;
  h.payload_length = 1392;
  net::Packet truncated{0, h.serialize(udp.serialize({}))};
  const auto a = net::decode(truncated);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ip_packet_size, 1432u);

  h.payload_length = 0;  // from the payload
  net::Packet full{0, h.serialize(udp.serialize(Bytes(100, 0)))};
  const auto b = net::decode(full);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->ip_packet_size, 40u + 8u + 100u);
}

}  // namespace
}  // namespace vpscope
