// Framing oracle: capture::ip_datagram_of, which walks the EtherType and
// any VLAN tags in place, against a reference that runs
// net::EthernetHeader::parse on every frame. Both must return the same
// datagram view (same pointer, same size) or both reject. Inputs:
// untagged IPv4 and IPv6, 802.1Q, QinQ and three stacked tags, ARP and
// LLDP, every truncation from 0 to 22 bytes, and 100k random mutants each
// of a tagged and an untagged frame. Each input is its own exact-size
// allocation, so the ASan+UBSan `fuzz` lane catches any read past a frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "capture/frame.hpp"
#include "net/ethernet.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace vpscope::capture {
namespace {

constexpr int kMutantsPerFrame = 100'000;
constexpr std::uint16_t kEtherTypeArp = 0x0806;
constexpr std::uint16_t kEtherTypeLldp = 0x88cc;

/// The reference: the full L2 parse for every Ethernet frame.
std::optional<ByteView> reference_datagram_of(ByteView frame,
                                              LinkType link_type) {
  if (link_type == LinkType::Raw) return frame;
  std::size_t l2_len = 0;
  const auto eth = net::EthernetHeader::parse(frame, &l2_len);
  if (!eth) return std::nullopt;
  if (eth->ethertype != net::kEtherTypeIpv4 &&
      eth->ethertype != net::kEtherTypeIpv6)
    return std::nullopt;
  return frame.subspan(l2_len);
}

/// Same view or same rejection; returns whether the frame was accepted.
bool expect_agrees(const Bytes& frame,
                   LinkType link_type = LinkType::Ethernet) {
  const ByteView view(frame);
  const auto got = ip_datagram_of(view, link_type);
  const auto want = reference_datagram_of(view, link_type);
  EXPECT_EQ(got.has_value(), want.has_value()) << "frame " << to_hex(view);
  if (got && want) {
    EXPECT_EQ(got->data(), want->data()) << "frame " << to_hex(view);
    EXPECT_EQ(got->size(), want->size()) << "frame " << to_hex(view);
  }
  return want.has_value();
}

Bytes ipv4_datagram() {
  Bytes d = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x40, 0x00, 0x40, 0x11,
             0x00, 0x00, 10,   7,    0,    1,    142,  250,  70,   78};
  const Bytes udp = {0xc3, 0x50, 0x01, 0xbb, 0x00, 0x08, 0x00, 0x00};
  d.insert(d.end(), udp.begin(), udp.end());
  return d;
}

Bytes ipv6_datagram() {
  Bytes d(40, 0);
  d[0] = 0x60;
  d[5] = 8;      // payload length
  d[6] = 17;     // next header: UDP
  d[7] = 64;     // hop limit
  d[8] = 0x20;   // src 2001:db8::1
  d[9] = 0x01;
  d[10] = 0x0d;
  d[11] = 0xb8;
  d[23] = 1;
  d[24] = 0x26;  // dst 2607:f8b0::200e
  d[25] = 0x07;
  d[26] = 0xf8;
  d[27] = 0xb0;
  d[38] = 0x20;
  d[39] = 0x0e;
  const Bytes udp = {0xc3, 0x50, 0x01, 0xbb, 0x00, 0x08, 0x00, 0x00};
  d.insert(d.end(), udp.begin(), udp.end());
  return d;
}

/// `untagged` with one 4-byte tag per entry of `tag_types` (the tag's
/// EtherType, then a TCI) inserted after the MACs.
Bytes with_tags(const Bytes& untagged,
                std::initializer_list<std::uint16_t> tag_types) {
  Bytes out(untagged.begin(), untagged.begin() + 12);
  for (const std::uint16_t t : tag_types) {
    out.push_back(static_cast<std::uint8_t>(t >> 8));
    out.push_back(static_cast<std::uint8_t>(t));
    out.push_back(0x00);  // TCI: priority 0, VLAN id 0x064
    out.push_back(0x64);
  }
  out.insert(out.end(), untagged.begin() + 12, untagged.end());
  return out;
}

Bytes with_ethertype(Bytes frame, std::uint16_t type) {
  frame[12] = static_cast<std::uint8_t>(type >> 8);
  frame[13] = static_cast<std::uint8_t>(type);
  return frame;
}

TEST(FrameOracle, UntaggedIpv4AndIpv6Agree) {
  for (const Bytes& datagram : {ipv4_datagram(), ipv6_datagram()}) {
    const Bytes frame = ethernet_frame_of(datagram);
    EXPECT_TRUE(expect_agrees(frame));
    const auto got = ip_datagram_of(frame, LinkType::Ethernet);
    ASSERT_TRUE(got);
    EXPECT_EQ(got->data(), frame.data() + net::EthernetHeader::kSize);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), datagram.begin(),
                           datagram.end()));
    // Raw link type: the frame is the datagram.
    EXPECT_TRUE(expect_agrees(datagram, LinkType::Raw));
  }
  // A header with nothing after it is an empty IPv4 datagram, as before.
  const Bytes v4 = ethernet_frame_of(ipv4_datagram());
  const Bytes bare(v4.begin(), v4.begin() + net::EthernetHeader::kSize);
  EXPECT_TRUE(expect_agrees(bare));
}

TEST(FrameOracle, VlanAndQinQTagsAgree) {
  const Bytes v4 = ethernet_frame_of(ipv4_datagram());
  const Bytes v6 = ethernet_frame_of(ipv6_datagram());
  for (const Bytes& untagged : {v4, v6}) {
    EXPECT_TRUE(expect_agrees(with_tags(untagged, {net::kEtherTypeVlan})));
    EXPECT_TRUE(expect_agrees(with_tags(untagged, {net::kEtherTypeQinQ})));
    EXPECT_TRUE(expect_agrees(
        with_tags(untagged, {net::kEtherTypeQinQ, net::kEtherTypeVlan})));
    EXPECT_TRUE(expect_agrees(
        with_tags(untagged, {net::kEtherTypeVlan, net::kEtherTypeVlan})));
    // Three stacked tags: rejected by both.
    EXPECT_FALSE(expect_agrees(
        with_tags(untagged, {net::kEtherTypeQinQ, net::kEtherTypeVlan,
                             net::kEtherTypeVlan})));
  }
  const auto tagged =
      ip_datagram_of(with_tags(v4, {net::kEtherTypeVlan}), LinkType::Ethernet);
  ASSERT_TRUE(tagged);
  EXPECT_EQ(tagged->size(), ipv4_datagram().size());
}

TEST(FrameOracle, NonIpEtherTypesAreRejected) {
  const Bytes v4 = ethernet_frame_of(ipv4_datagram());
  for (const std::uint16_t type : {kEtherTypeArp, kEtherTypeLldp}) {
    EXPECT_FALSE(expect_agrees(with_ethertype(v4, type)));
    // The same type behind an 802.1Q tag.
    Bytes tagged = with_tags(v4, {net::kEtherTypeVlan});
    tagged[16] = static_cast<std::uint8_t>(type >> 8);
    tagged[17] = static_cast<std::uint8_t>(type);
    EXPECT_FALSE(expect_agrees(tagged));
  }
}

TEST(FrameOracle, EveryTruncationFrom0To22BytesAgrees) {
  const Bytes v4 = ethernet_frame_of(ipv4_datagram());
  const Bytes v6 = ethernet_frame_of(ipv6_datagram());
  const std::vector<Bytes> frames = {
      v4,
      v6,
      with_tags(v4, {net::kEtherTypeVlan}),
      with_tags(v6, {net::kEtherTypeQinQ, net::kEtherTypeVlan}),
      with_tags(v4, {net::kEtherTypeQinQ, net::kEtherTypeVlan,
                     net::kEtherTypeVlan}),
      with_ethertype(v4, kEtherTypeArp),
  };
  int accepted = 0;
  for (const Bytes& frame : frames) {
    for (std::size_t len = 0; len <= 22; ++len) {
      // An exact-size copy: one byte past it is outside the allocation.
      const Bytes cut(frame.begin(),
                      frame.begin() + static_cast<std::ptrdiff_t>(len));
      accepted += expect_agrees(cut) ? 1 : 0;
    }
  }
  // Untagged IP frames are accepted from 14 bytes on, tagged ones once the
  // inner EtherType is in; nothing shorter is accepted.
  EXPECT_GT(accepted, 0);
  for (std::size_t len = 0; len < net::EthernetHeader::kSize; ++len) {
    const Bytes cut(v4.begin(), v4.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(ip_datagram_of(cut, LinkType::Ethernet)) << len;
  }
}

/// Random mutants of `seed`: byte flips weighted toward the EtherType and
/// tag bytes, EtherTypes drawn from the interesting set, and truncations.
void fuzz_against_reference(const Bytes& seed, std::uint64_t rng_seed) {
  static const std::uint16_t kTypes[] = {
      net::kEtherTypeIpv4, net::kEtherTypeIpv6, net::kEtherTypeVlan,
      net::kEtherTypeQinQ, kEtherTypeArp,       kEtherTypeLldp};
  Rng rng(rng_seed);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerFrame; ++i) {
    Bytes frame = seed;
    const int edits = rng.uniform_int(1, 4);
    for (int e = 0; e < edits; ++e) {
      switch (rng.uniform_int(0, 3)) {
        case 0: {  // a byte in the L2 header region
          const auto at = rng.uniform(0, std::min<std::size_t>(frame.size(),
                                                              26) - 1);
          frame[at] = static_cast<std::uint8_t>(rng.next_u32());
          break;
        }
        case 1: {  // an interesting type at an EtherType/tag position
          const std::size_t at = 12 + 4 * rng.uniform(0, 3);
          const std::uint16_t t =
              kTypes[rng.uniform(0, std::size(kTypes) - 1)];
          if (at + 1 < frame.size()) {
            frame[at] = static_cast<std::uint8_t>(t >> 8);
            frame[at + 1] = static_cast<std::uint8_t>(t);
          }
          break;
        }
        case 2:  // any byte anywhere
          frame[rng.uniform(0, frame.size() - 1)] =
              static_cast<std::uint8_t>(rng.next_u32());
          break;
        default:  // truncation (keeps at least one byte for later edits)
          frame.resize(rng.uniform(1, frame.size()));
          break;
      }
    }
    const Bytes exact(frame.begin(), frame.end());
    accepted += expect_agrees(exact) ? 1 : 0;
    if (::testing::Test::HasFailure()) return;  // first disagreement only
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(accepted, kMutantsPerFrame / 20);
  EXPECT_LT(accepted, kMutantsPerFrame - kMutantsPerFrame / 20);
}

TEST(FrameOracle, MutantsOfAnUntaggedFrameAgree) {
  fuzz_against_reference(ethernet_frame_of(ipv4_datagram()), 0xf7a3e1);
}

TEST(FrameOracle, MutantsOfATaggedFrameAgree) {
  fuzz_against_reference(
      with_tags(ethernet_frame_of(ipv6_datagram()),
                {net::kEtherTypeQinQ, net::kEtherTypeVlan}),
      0x51c0de);
}

}  // namespace
}  // namespace vpscope::capture
