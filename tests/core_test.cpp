#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/attributes.hpp"
#include "core/encoder.hpp"
#include "core/handshake.hpp"
#include "core/interner.hpp"
#include "quic/initial.hpp"
#include "synth/dataset.hpp"
#include "synth/flow_synthesizer.hpp"

namespace vpscope::core {
namespace {

using fingerprint::Agent;
using fingerprint::Os;
using fingerprint::Provider;
using fingerprint::Transport;

TEST(AttributeCatalog, CountsMatchPaper) {
  const auto& catalog = attribute_catalog();
  ASSERT_EQ(catalog.size(), 62u);

  int numerical = 0, categorical = 0, list = 0, presence = 0, length = 0;
  for (const auto& info : catalog) {
    switch (info.type) {
      case AttrType::Numerical: ++numerical; break;
      case AttrType::Categorical: ++categorical; break;
      case AttrType::List: ++list; break;
      case AttrType::Presence: ++presence; break;
      case AttrType::Length: ++length; break;
    }
  }
  // §4.2: 20 numerical; "17 fields do not have any associated value"
  // (presence); "7 fields ... treated as length-based attributes".
  EXPECT_EQ(numerical, 20);
  EXPECT_EQ(presence, 17);
  EXPECT_EQ(length, 7);
  EXPECT_EQ(categorical, 8);
  EXPECT_EQ(list, 10);
}

TEST(AttributeCatalog, ApplicabilityMatchesPaper) {
  // §4.3.1: "Out of the 62 attributes overall, only 50 are applicable to
  // QUIC"; TCP gets 62 - 20 QUIC-only = 42.
  EXPECT_EQ(applicable_count(Transport::Quic), 50);
  EXPECT_EQ(applicable_count(Transport::Tcp), 42);
}

TEST(AttributeCatalog, CostFollowsType) {
  for (const auto& info : attribute_catalog()) {
    switch (info.type) {
      case AttrType::Categorical:
        EXPECT_EQ(info.cost(), AttrCost::Medium);
        break;
      case AttrType::List:
        EXPECT_EQ(info.cost(), AttrCost::High);
        break;
      default:
        EXPECT_EQ(info.cost(), AttrCost::Low);
    }
  }
}

TEST(AttributeCatalog, LabelsAreOrdered) {
  const auto& catalog = attribute_catalog();
  EXPECT_STREQ(catalog[0].label, "t1");
  EXPECT_STREQ(catalog[13].label, "t14");
  EXPECT_STREQ(catalog[14].label, "m1");
  EXPECT_STREQ(catalog[18].label, "m5");
  EXPECT_STREQ(catalog[19].label, "o1");
  EXPECT_STREQ(catalog[41].label, "o23");
  EXPECT_STREQ(catalog[42].label, "q1");
  EXPECT_STREQ(catalog[61].label, "q20");
}

core::FlowHandshake make_handshake(Os os, Agent agent, Provider provider,
                                   Transport transport,
                                   std::uint64_t seed = 11) {
  Rng rng(seed);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile({os, agent}, provider,
                                                 transport);
  const auto flow = synth.synthesize(profile);
  auto handshake = extract_handshake(flow.packets);
  EXPECT_TRUE(handshake.has_value());
  return *handshake;
}

/// Extraction against a throwaway grow-mode interner (test convenience).
RawAttrs extract(const FlowHandshake& h) {
  TokenInterner interner;
  return extract_raw_attributes(h, interner);
}

TEST(RawAttributes, TcpFlowBasics) {
  const auto h = make_handshake(Os::Windows, Agent::Firefox,
                                Provider::Netflix, Transport::Tcp);
  const auto raw = extract(h);

  EXPECT_GT(raw[0].number, 40);  // t1: SYN size
  EXPECT_EQ(raw[1].number, 128);  // t2: Windows TTL
  EXPECT_EQ(raw[8].number, 1);    // t9: SYN flag
  EXPECT_EQ(raw[5].number, 0);    // t6: ACK not set in SYN
  EXPECT_EQ(raw[10].number, 64240);  // t11: window
  EXPECT_EQ(raw[11].number, 1460);   // t12: MSS
  EXPECT_EQ(raw[13].number, 1);      // t14: SACK permitted
  // o13: Firefox record_size_limit.
  EXPECT_EQ(raw[31].number, 16385);
  // o14: delegated credentials present.
  EXPECT_TRUE(raw[32].present);
  // q attributes absent for TCP.
  for (int q = 42; q < 62; ++q) EXPECT_FALSE(raw[static_cast<std::size_t>(q)].present);
}

TEST(RawAttributes, QuicFlowBasics) {
  const auto h = make_handshake(Os::Windows, Agent::Chrome,
                                Provider::YouTube, Transport::Quic);
  const auto raw = extract(h);

  EXPECT_TRUE(raw[42].present);  // q1 param order list
  EXPECT_EQ(raw[43].number, 30000);  // q2 max_idle_timeout
  EXPECT_EQ(raw[44].number, 1472);   // q3 max_udp_payload_size
  EXPECT_EQ(raw[45].number, 15728640);  // q4 initial_max_data
  EXPECT_EQ(raw[54].number, 0);  // q13: Chromium sends an empty SCID
  EXPECT_TRUE(raw[56].present);  // q15 grease_quic_bit
  EXPECT_TRUE(raw[59].present);  // q18 user_agent
  // TCP-only attributes absent for QUIC.
  for (int t = 2; t < 14; ++t) EXPECT_FALSE(raw[static_cast<std::size_t>(t)].present);
}

TEST(RawAttributes, LengthAttributesDistinguishEmptyPresentFromAbsent) {
  const auto chrome = make_handshake(Os::Windows, Agent::Chrome,
                                     Provider::Netflix, Transport::Tcp);
  const auto raw = extract(chrome);
  // o8 SCT: present but empty-bodied -> 4 (the TLV header), not 0.
  EXPECT_TRUE(raw[26].present);
  EXPECT_EQ(raw[26].number, 4);

  const auto ps = make_handshake(Os::PlayStation, Agent::NativeApp,
                                 Provider::Netflix, Transport::Tcp);
  const auto raw_ps = extract(ps);
  EXPECT_FALSE(raw_ps[26].present);
  EXPECT_EQ(raw_ps[26].number, 0);
}

TEST(RawAttributes, SignatureStability) {
  TokenInterner interner;
  const RawAttr absent{};
  EXPECT_EQ(attribute_signature(absent, AttrType::Numerical, interner),
            "<absent>");
  RawAttr num;
  num.present = true;
  num.number = 65535;
  EXPECT_EQ(attribute_signature(num, AttrType::Numerical, interner), "65535");
  RawAttr lst;
  lst.present = true;
  lst.push_token(interner.intern("a"));
  lst.push_token(interner.intern("b"));
  EXPECT_EQ(attribute_signature(lst, AttrType::List, interner), "a|b|");
}

TEST(TokenInterner, InternLookupRoundTrip) {
  TokenInterner interner;
  const TokenId a = interner.intern("x25519");
  const TokenId b = interner.intern("secp256r1");
  EXPECT_NE(a, TokenInterner::kUnseenId);
  EXPECT_NE(b, TokenInterner::kUnseenId);
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("x25519"), a);  // idempotent
  EXPECT_EQ(interner.token(a), "x25519");
  EXPECT_EQ(interner.token(b), "secp256r1");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(TokenInterner, FrozenLookupMapsUnknownToUnseen) {
  TokenInterner interner;
  const TokenId a = interner.intern("known");
  interner.freeze();
  EXPECT_TRUE(interner.frozen());
  EXPECT_EQ(interner.lookup("known"), a);
  EXPECT_EQ(interner.lookup("never-seen"), TokenInterner::kUnseenId);
  // intern() degrades to lookup once frozen: the vocabulary is immutable.
  EXPECT_EQ(interner.intern("also-new"), TokenInterner::kUnseenId);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(TokenInterner, SurvivesRehashGrowth) {
  TokenInterner interner;
  std::vector<TokenId> ids;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(interner.intern("token-" + std::to_string(i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.lookup("token-" + std::to_string(i)), ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(interner.token(ids[static_cast<std::size_t>(i)]),
              "token-" + std::to_string(i));
  }
  interner.freeze();
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(interner.lookup("token-" + std::to_string(i)), ids[static_cast<std::size_t>(i)]);
}

TEST(FeatureEncoder, DimensionsAndColumns) {
  FeatureEncoder tcp(Transport::Tcp);
  FeatureEncoder quic(Transport::Quic);
  EXPECT_EQ(static_cast<int>(tcp.attributes().size()), 42);
  EXPECT_EQ(static_cast<int>(quic.attributes().size()), 50);
  // Every list attribute expands to its slot count.
  std::size_t expected_tcp = 0;
  for (int a : tcp.attributes()) {
    const auto& info = attribute_catalog()[static_cast<std::size_t>(a)];
    expected_tcp += info.type == AttrType::List
                        ? static_cast<std::size_t>(info.list_slots)
                        : 1u;
  }
  EXPECT_EQ(tcp.dimension(), expected_tcp);
}

TEST(FeatureEncoder, TransformIsFixedWidthAndZeroPadded) {
  const auto h = make_handshake(Os::PlayStation, Agent::NativeApp,
                                Provider::Amazon, Transport::Tcp);
  FeatureEncoder enc(Transport::Tcp);
  enc.fit(std::vector<FlowHandshake>{h});
  const auto v1 = enc.transform(h);
  EXPECT_EQ(v1.size(), enc.dimension());
  const auto h2 = make_handshake(Os::Windows, Agent::Chrome, Provider::Amazon,
                                 Transport::Tcp, 99);
  const auto v2 = enc.transform(h2);
  EXPECT_EQ(v2.size(), enc.dimension());
}

TEST(FeatureEncoder, UnseenTokensGetDedicatedBucket) {
  const auto h = make_handshake(Os::PlayStation, Agent::NativeApp,
                                Provider::Amazon, Transport::Tcp);
  FeatureEncoder enc(Transport::Tcp);
  enc.fit(std::vector<FlowHandshake>{h});

  // A Firefox flow has cipher suites the PS dictionary never saw; they must
  // all map to the same (unseen) id, not to zero.
  const auto alien = make_handshake(Os::Windows, Agent::Firefox,
                                    Provider::Amazon, Transport::Tcp);
  const auto v = enc.transform(alien);
  const auto& cols = enc.columns();
  bool saw_unseen = false;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (attribute_catalog()[static_cast<std::size_t>(cols[i].attribute)].type ==
            AttrType::List &&
        v[i] > 0)
      saw_unseen = true;
  }
  EXPECT_TRUE(saw_unseen);
}

TEST(FeatureEncoder, ColumnsForAttributesSelectsExactly) {
  FeatureEncoder enc(Transport::Quic);
  const auto cols = enc.columns_for_attributes({0, 1});  // t1, t2
  EXPECT_EQ(cols.size(), 2u);
  const auto list_cols = enc.columns_for_attributes({16});  // m3 cipher list
  EXPECT_EQ(static_cast<int>(list_cols.size()),
            attribute_catalog()[16].list_slots);
}

TEST(HandshakeExtractor, IncrementalFeedCompletesAtChlo) {
  Rng rng(5);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::MacOS, Agent::Safari}, Provider::Disney, Transport::Tcp);
  const auto flow = synth.synthesize(profile);

  HandshakeExtractor extractor;
  EXPECT_FALSE(extractor.complete());
  for (std::size_t i = 0; i < flow.packets.size(); ++i) {
    const auto decoded = net::decode(flow.packets[i]);
    ASSERT_TRUE(decoded.has_value());
    extractor.feed(*decoded);
    if (i < 3) {
      EXPECT_FALSE(extractor.complete());  // SYN, SYN-ACK, ACK: not yet
    }
  }
  EXPECT_TRUE(extractor.complete());
  EXPECT_EQ(extractor.sni(), flow.sni);
}

TEST(HandshakeExtractor, IgnoresServerPackets) {
  Rng rng(6);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Edge}, Provider::Netflix, Transport::Tcp);
  const auto flow = synth.synthesize(profile);

  // Feed only server packets: never completes.
  HandshakeExtractor extractor;
  for (const auto& packet : flow.packets) {
    const auto decoded = net::decode(packet);
    ASSERT_TRUE(decoded.has_value());
    if (decoded->src == flow.server_ip) extractor.feed(*decoded);
  }
  EXPECT_FALSE(extractor.complete());
}

TEST(HandshakeExtractor, QuicMultiDatagramReassembly) {
  // iOS native app with a large CHLO splits across Initials; the extractor
  // must reassemble before parsing.
  Rng rng(7);
  synth::FlowSynthesizer synth(rng);
  auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::YouTube, Transport::Quic);
  profile.tls.padding_to = 2600;  // force a multi-packet flight
  profile.variants.clear();
  const auto flow = synth.synthesize(profile);

  int initials = 0;
  for (const auto& packet : flow.packets) {
    const auto d = net::decode(packet);
    if (d && d->udp && d->src == flow.client_ip) ++initials;
  }
  ASSERT_GE(initials, 2);
  const auto handshake = extract_handshake(flow.packets);
  ASSERT_TRUE(handshake.has_value());
  EXPECT_EQ(handshake->chlo.server_name_view(), flow.sni);
}

TEST(HandshakeExtractor, RejectsNonTlsTcpPayload) {
  // A flow that sends garbage after the handshake never completes.
  net::TcpHeader syn;
  syn.src_port = 50000;
  syn.dst_port = 443;
  syn.flags.syn = true;
  net::Ipv4Header ip;
  ip.src = net::IpAddr::v4(10, 0, 0, 1);
  ip.dst = net::IpAddr::v4(1, 1, 1, 1);

  HandshakeExtractor extractor;
  const net::Packet syn_pkt{0, ip.serialize(syn.serialize({}))};
  extractor.feed(*net::decode(syn_pkt));

  net::TcpHeader data = syn;
  data.flags.syn = false;
  data.flags.ack = data.flags.psh = true;
  const net::Packet garbage{1, ip.serialize(data.serialize(Bytes(100, 0x55)))};
  extractor.feed(*net::decode(garbage));
  EXPECT_FALSE(extractor.complete());
}

TEST(HandshakeExtractor, TcpFailsPastTheClientHelloBound) {
  net::TcpHeader syn;
  syn.src_port = 50000;
  syn.dst_port = 443;
  syn.flags.syn = true;
  net::Ipv4Header ip;
  ip.src = net::IpAddr::v4(10, 0, 0, 1);
  ip.dst = net::IpAddr::v4(1, 1, 1, 1);
  HandshakeExtractor extractor;
  extractor.feed(*net::decode(net::Packet{0, ip.serialize(syn.serialize({}))}));

  net::TcpHeader data = syn;
  data.flags.syn = false;
  data.flags.ack = true;
  // A record header promising more than ever arrives, then filler.
  Bytes first = from_hex("16030140000100");
  first.resize(1000, 0x55);
  std::size_t sent = 0;
  for (int i = 0; i < 17; ++i) {
    const Bytes payload = i == 0 ? first : Bytes(1000, 0x55);
    extractor.feed(
        *net::decode(net::Packet{1, ip.serialize(data.serialize(payload))}));
    sent += payload.size();
    EXPECT_EQ(extractor.failed(), sent > kMaxClientHelloStream) << sent;
  }
  EXPECT_FALSE(extractor.complete());
}

// ---- QUIC CRYPTO reassembly --------------------------------------------

/// The reassembly the extractor used before the bounded buffer: keep every
/// fragment, sort by offset, append what extends the gapless prefix.
Bytes reference_prefix(
    const std::vector<std::pair<std::uint64_t, Bytes>>& fragments) {
  auto sorted = fragments;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Bytes out;
  for (const auto& [off, data] : sorted) {
    if (off > out.size()) break;  // gap
    if (off + data.size() <= out.size()) continue;  // fully duplicate
    const std::size_t skip = out.size() - static_cast<std::size_t>(off);
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(skip),
               data.end());
  }
  return out;
}

/// A client Initial datagram as the extractor receives it; views point into
/// `storage`.
net::DecodedPacket as_udp(const Bytes& datagram, net::Packet& storage) {
  net::UdpHeader udp;
  udp.src_port = 50000;
  udp.dst_port = 443;
  net::Ipv4Header ip;
  ip.protocol = net::kProtoUdp;
  ip.src = net::IpAddr::v4(10, 0, 0, 1);
  ip.dst = net::IpAddr::v4(1, 1, 1, 1);
  storage = net::Packet{0, ip.serialize(udp.serialize(datagram))};
  return *net::decode(storage);
}

/// A ClientHello big enough for a three-datagram Initial flight.
Bytes large_hello() {
  tls::ClientHello chlo;
  chlo.cipher_suites = {tls::suite::kAes128GcmSha256};
  chlo.add_server_name("rr1---sn-abc.googlevideo.com");
  chlo.add_key_shares({tls::group::kX25519Kyber768});
  chlo.add_padding_to(3000);
  return chlo.serialize_handshake();
}

TEST(CryptoReassembly, RefeedingAnInitialPastOffsetZeroStaysBounded) {
  const Bytes dcid = from_hex("8394c8f03e515708");
  const auto flight =
      quic::build_client_initial_flight(dcid, {}, large_hello());
  ASSERT_EQ(flight.size(), 3u);
  // The flight's second datagram: its CRYPTO frame starts past offset 0.
  const auto second = quic::unprotect_client_initial(flight[1]);
  ASSERT_TRUE(second.has_value());
  ASSERT_GT(second->crypto_fragments.front().first, 0u);

  quic::CryptoReassembler reassembler;
  ASSERT_TRUE(reassembler.add(*second));
  const std::size_t held = reassembler.received_bytes();
  for (int i = 0; i < 10'000; ++i) ASSERT_TRUE(reassembler.add(*second));
  EXPECT_EQ(reassembler.received_bytes(), held);
  EXPECT_LE(held, flight[1].size());
  EXPECT_TRUE(reassembler.prefix().empty());

  // Through the extractor: the flow neither completes nor fails, and the
  // first datagram arriving late still completes it.
  HandshakeExtractor extractor;
  net::Packet storage;
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_TRUE(extractor.feed(as_udp(flight[1], storage)));
    ASSERT_FALSE(extractor.complete());
    ASSERT_FALSE(extractor.failed());
  }
  extractor.feed(as_udp(flight[2], storage));
  extractor.feed(as_udp(flight[0], storage));
  EXPECT_TRUE(extractor.complete());
  EXPECT_EQ(extractor.sni(), "rr1---sn-abc.googlevideo.com");
}

TEST(CryptoReassembly, FirstBytesReceivedAtAnOffsetWin) {
  const auto packet = [](std::uint64_t offset, std::string_view text) {
    quic::InitialPacket p;
    p.crypto_fragments = {{offset, Bytes(text.begin(), text.end())}};
    return p;
  };
  const auto prefix = [](const quic::CryptoReassembler& r) {
    const ByteView p = r.prefix();
    return std::string(p.begin(), p.end());
  };
  quic::CryptoReassembler reassembler;
  ASSERT_TRUE(reassembler.add(packet(6, "gh")));
  EXPECT_EQ(prefix(reassembler), "");
  ASSERT_TRUE(reassembler.add(packet(2, "cdEF")));  // touches [6, 8)
  ASSERT_TRUE(reassembler.add(packet(0, "ab")));
  EXPECT_EQ(prefix(reassembler), "abcdEFgh");
  // Overlaps rewrite nothing: only the gap at [8, 10) is new.
  ASSERT_TRUE(reassembler.add(packet(0, "ABCDEFGHij")));
  EXPECT_EQ(prefix(reassembler), "abcdEFghij");
  ASSERT_TRUE(reassembler.add(packet(4, "zz")));
  EXPECT_EQ(prefix(reassembler), "abcdEFghij");
  EXPECT_EQ(reassembler.received_bytes(), 10u);
}

TEST(CryptoReassembly, FrameReachingPastTheBoundFailsTheFlow) {
  quic::InitialPacket packet;
  packet.crypto_fragments = {{quic::kMaxCryptoStream - 1, Bytes{1}}};
  quic::CryptoReassembler reassembler;
  EXPECT_TRUE(reassembler.add(packet));  // ends exactly at the bound
  packet.crypto_fragments = {{quic::kMaxCryptoStream, Bytes{1}}};
  EXPECT_FALSE(reassembler.add(packet));
  packet.crypto_fragments = {{~std::uint64_t{0}, Bytes{1}}};
  EXPECT_FALSE(reassembler.add(packet));
  EXPECT_EQ(reassembler.received_bytes(), 1u);

  // A stream that is not a ClientHello, long enough to pass 16 KiB: the
  // flow fails at the datagram whose frame ends past the bound.
  const Bytes stream(kMaxClientHelloStream + 500, 0);
  const auto flight =
      quic::build_client_initial_flight(from_hex("0102030405060708"), {},
                                        stream);
  HandshakeExtractor extractor;
  net::Packet storage;
  std::size_t end = 0;
  for (const Bytes& datagram : flight) {
    const auto initial = quic::unprotect_client_initial(datagram);
    ASSERT_TRUE(initial.has_value());
    const auto& [offset, data] = initial->crypto_fragments.front();
    end = offset + data.size();
    extractor.feed(as_udp(datagram, storage));
    ASSERT_EQ(extractor.failed(), end > kMaxClientHelloStream) << end;
    if (extractor.failed()) break;
  }
  EXPECT_TRUE(extractor.failed());
  EXPECT_FALSE(extractor.complete());
  EXPECT_FALSE(extractor.feed(as_udp(flight.front(), storage)));
}

TEST(CryptoReassembly, RandomFragmentsMatchAByteMapModel) {
  // Random fragments, overlapping, duplicated and with values that differ
  // from what an offset already holds, against the plainest model: one
  // slot per stream byte, set by the first fragment that covers it. Offsets
  // straddle the 64-byte words of the received bits and reach the bound.
  Rng rng(0x7265);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t span =
        trial % 4 == 0 ? quic::kMaxCryptoStream : rng.uniform(1, 300);
    Bytes model(span);
    std::vector<bool> have(span);
    quic::CryptoReassembler reassembler;
    for (std::size_t k = rng.uniform(1, 40); k > 0; --k) {
      const std::size_t offset = rng.uniform(0, span - 1);
      Bytes data(rng.uniform(0, std::min<std::size_t>(span - offset, 200)));
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
      std::vector<std::pair<std::uint64_t, Bytes>> fragments = {{offset, data}};
      if (rng.bernoulli(0.3)) {  // a second fragment in the same packet
        const std::size_t at = rng.uniform(0, span - 1);
        fragments.emplace_back(
            at, Bytes(rng.uniform(0, std::min<std::size_t>(span - at, 90)),
                      static_cast<std::uint8_t>(trial)));
      }
      quic::InitialPacket packet;
      packet.crypto_fragments = fragments;
      ASSERT_TRUE(reassembler.add(packet));
      for (const auto& [at, bytes] : fragments)
        for (std::size_t i = 0; i < bytes.size(); ++i)
          if (!have[at + i]) {
            model[at + i] = bytes[i];
            have[at + i] = true;
          }
      const std::size_t prefix = static_cast<std::size_t>(
          std::find(have.begin(), have.end(), false) - have.begin());
      ASSERT_EQ(reassembler.contiguous_prefix(),
                Bytes(model.begin(),
                      model.begin() + static_cast<std::ptrdiff_t>(prefix)))
          << "trial " << trial;
      ASSERT_EQ(reassembler.received_bytes(),
                static_cast<std::size_t>(
                    std::count(have.begin(), have.end(), true)))
          << "trial " << trial;
    }
  }
}

TEST(CryptoReassembly, HandOverMovesTheBufferOnlyWhenTaken) {
  quic::CryptoReassembler reassembler;
  ASSERT_TRUE(reassembler.add_fragment(0, from_hex("01000002aabbcc")));
  ASSERT_TRUE(reassembler.add_fragment(9, from_hex("dd")));
  // An empty frame far out holds nothing and sizes nothing.
  quic::InitialPacket empty_far;
  empty_far.crypto_fragments = {{quic::kMaxCryptoStream - 1, Bytes{}}};
  ASSERT_TRUE(reassembler.add(empty_far));
  std::size_t offered = 0, held = 0;
  EXPECT_FALSE(reassembler.hand_over([&](Bytes& buffer, std::size_t size) {
    offered = size;
    held = buffer.size();
    return false;
  }));
  EXPECT_EQ(offered, 7u);
  EXPECT_EQ(held, 10u + 8u);  // stream bytes [0, 10), one word of bits
  EXPECT_EQ(reassembler.received_bytes(), 8u);
  Bytes taken;
  EXPECT_TRUE(reassembler.hand_over([&](Bytes& buffer, std::size_t size) {
    taken = std::move(buffer);
    taken.resize(size);
    return true;
  }));
  EXPECT_EQ(taken, from_hex("01000002aabbcc"));
  EXPECT_EQ(reassembler.received_bytes(), 0u);
  EXPECT_TRUE(reassembler.prefix().empty());
}

TEST(CryptoReassembly, LabFlightsReassembleIdenticallyInAnyOrder) {
  // The lab corpus' QUIC flows, plus every YouTube QUIC platform padded
  // into a multi-datagram flight.
  std::vector<synth::LabeledFlow> flows;
  for (auto& flow : synth::generate_lab_dataset(42, 0.2).flows)
    if (flow.transport == Transport::Quic) flows.push_back(std::move(flow));
  Rng rng(11);
  synth::FlowSynthesizer synth(rng);
  for (const auto& platform :
       fingerprint::platforms_for(Provider::YouTube, Transport::Quic)) {
    auto profile =
        fingerprint::make_profile(platform, Provider::YouTube, Transport::Quic);
    profile.tls.padding_to = 2600;
    flows.push_back(synth.synthesize(profile));
  }

  std::size_t multi = 0;
  for (const auto& flow : flows) {
    std::vector<quic::InitialPacket> initials;
    for (const auto& packet : flow.packets) {
      const auto d = net::decode(packet);
      if (!d || !d->udp || d->src != flow.client_ip) continue;
      if (auto initial = quic::unprotect_client_initial(d->payload))
        initials.push_back(std::move(*initial));
    }
    ASSERT_FALSE(initials.empty());
    multi += initials.size() > 1;

    std::vector<std::pair<std::uint64_t, Bytes>> fragments;
    for (const auto& initial : initials)
      for (const auto& f : initial.crypto_fragments) fragments.push_back(f);
    const Bytes expected = reference_prefix(fragments);
    const auto reassemble = [&](const std::vector<std::size_t>& order) {
      quic::CryptoReassembler reassembler;
      for (const std::size_t i : order)
        EXPECT_TRUE(reassembler.add(initials[i]));
      return reassembler.contiguous_prefix();
    };
    std::vector<std::size_t> in_order(initials.size());
    std::iota(in_order.begin(), in_order.end(), std::size_t{0});
    const std::vector<std::size_t> reversed(in_order.rbegin(),
                                            in_order.rend());
    std::vector<std::size_t> duplicated;
    for (const std::size_t i : reversed) {
      duplicated.push_back(i);
      duplicated.push_back(i);
    }
    duplicated.insert(duplicated.end(), in_order.begin(), in_order.end());
    ASSERT_EQ(reassemble(in_order), expected);
    ASSERT_EQ(reassemble(reversed), expected);
    ASSERT_EQ(reassemble(duplicated), expected);

    // The extractor parses the same hello from the reversed capture.
    const auto in_order_hs = extract_handshake(flow.packets);
    ASSERT_TRUE(in_order_hs.has_value());
    const std::vector<net::Packet> backwards(flow.packets.rbegin(),
                                             flow.packets.rend());
    const auto reordered_hs = extract_handshake(backwards);
    ASSERT_TRUE(reordered_hs.has_value());
    ASSERT_EQ(tls::ClientHello::from_wire(reordered_hs->chlo),
              tls::ClientHello::from_wire(in_order_hs->chlo));
  }
  EXPECT_GT(flows.size(), 100u);
  EXPECT_GT(multi, 5u);
}

}  // namespace
}  // namespace vpscope::core
