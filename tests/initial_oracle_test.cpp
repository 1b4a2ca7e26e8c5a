// Differential oracle for the QUIC Initial unprotect: the scratch form
// (views into the datagram and a caller buffer, RFC 9000 pre-filters
// before any crypto) and its owning wrapper against the allocating
// unprotect it replaced, kept in reference_initial.hpp. Both sides must
// agree on accept/reject, DCID, SCID, token, packet number and every
// (offset, bytes) CRYPTO fragment, over the lab corpus flights, the golden
// pcaps, random flights, test-sealed Initials with up to 64 CRYPTO frames
// in any order between PING and PADDING, every truncation of a datagram
// and 50k mutants. Where a pre-filter refuses a datagram the reference
// accepts, the test names the rule; any other disagreement fails and
// prints the datagram in hex. It also pins the extractor against the 16 KiB
// CRYPTO stream bound when one Initial carries a whole hello and a frame
// past the bound, and compares the flat transport-parameter parse with the structural parser
// it replaced (also kept in reference_initial.hpp) over the seed bodies,
// their truncations and 50k mutants.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/handshake.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/mutator.hpp"
#include "net/ip.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/udp.hpp"
#include "quic/initial.hpp"
#include "quic/varint.hpp"
#include "reference_initial.hpp"
#include "sealed_initial.hpp"
#include "util/rng.hpp"

namespace vpscope {
namespace {

using sealed::seal_initial;

/// The pre-filter rule that refuses `datagram` although the reference
/// accepted it, or nullptr when no rule applies.
constexpr const char* kShortDatagram =
    "UDP payload under 1200 bytes (RFC 9000 14.1)";
constexpr const char* kDcidLength =
    "DCID length outside 8..20 (RFC 9000 7.2, 17.2)";

const char* prefilter_rule(ByteView datagram) {
  if (datagram.size() < quic::kMinInitialDatagram) return kShortDatagram;
  if (datagram.size() > 5 && (datagram[5] < quic::kMinClientDcid ||
                              datagram[5] > quic::kMaxConnectionId))
    return kDcidLength;
  return nullptr;
}

using Fragments = std::vector<std::pair<std::uint64_t, Bytes>>;

Fragments fragments_of(const quic::InitialView& view) {
  Fragments out;
  for (const quic::CryptoFragment& f : view.crypto_frames)
    out.emplace_back(f.offset, Bytes(f.data.begin(), f.data.end()));
  return out;
}

Bytes bytes_of(ByteView v) { return Bytes(v.begin(), v.end()); }

struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::map<std::string, std::size_t> prefiltered;  // rule -> datagrams
};

/// Compares both unprotects on one datagram; returns a failure message or
/// an empty string.
std::string compare(ByteView datagram, Tally& tally) {
  const auto ref = reference::unprotect_client_initial(datagram);
  const auto owning = quic::unprotect_client_initial(datagram);
  Bytes scratch(datagram.size());
  const auto view = quic::unprotect_client_initial(datagram, scratch);
  const std::string hex = " [datagram " + to_hex(datagram) + "]";
  if (view.has_value() != owning.has_value())
    return "scratch and owning forms disagree" + hex;
  if (!owning) {
    if (!ref) {
      ++tally.rejected;
      return {};
    }
    const char* rule = prefilter_rule(datagram);
    if (!rule) return "rejected an Initial the reference accepts" + hex;
    ++tally.prefiltered[rule];
    return {};
  }
  if (!ref) return "accepted an Initial the reference rejects" + hex;
  ++tally.accepted;
  if (owning->version != ref->version) return "version" + hex;
  if (owning->dcid != ref->dcid || bytes_of(view->dcid) != ref->dcid)
    return "dcid" + hex;
  if (owning->scid != ref->scid || bytes_of(view->scid) != ref->scid)
    return "scid" + hex;
  if (owning->token != ref->token || bytes_of(view->token) != ref->token)
    return "token" + hex;
  if (owning->packet_number != ref->packet_number ||
      view->packet_number != ref->packet_number)
    return "packet number" + hex;
  if (owning->crypto_fragments != ref->crypto_fragments ||
      fragments_of(*view) != ref->crypto_fragments)
    return "crypto fragments" + hex;
  return {};
}

void expect_agreement(const std::vector<Bytes>& datagrams, Tally& tally) {
  for (const Bytes& d : datagrams) {
    const std::string failure = compare(d, tally);
    ASSERT_TRUE(failure.empty()) << failure;
  }
}

const std::vector<fuzz::SeedCase>& corpus() {
  static const std::vector<fuzz::SeedCase> seeds = fuzz::build_corpus(29);
  return seeds;
}

std::vector<Bytes> corpus_datagrams() {
  std::vector<Bytes> out;
  for (const auto& seed : corpus())
    out.insert(out.end(), seed.flight.begin(), seed.flight.end());
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

TEST(InitialOracle, LabCorpusFlightsAndGoldenPcapsAgree) {
  Tally tally;
  expect_agreement(corpus_datagrams(), tally);
  EXPECT_GT(tally.accepted, 0u);

  std::vector<Bytes> golden;
  for (const auto& entry :
       std::filesystem::directory_iterator(VPSCOPE_GOLDEN_DIR)) {
    if (entry.path().extension() != ".pcap") continue;
    const auto packets = net::read_pcap_file(entry.path().string());
    ASSERT_TRUE(packets.has_value()) << entry.path();
    for (const auto& p : *packets) {
      const auto d = net::decode(p);
      if (d && d->udp && !d->payload.empty())
        golden.emplace_back(d->payload.begin(), d->payload.end());
    }
  }
  const std::size_t accepted_before = tally.accepted;
  expect_agreement(golden, tally);
  EXPECT_GT(tally.accepted, accepted_before) << "no golden QUIC Initial";
  // Every lab and golden Initial is a 1,232-1,357-byte datagram with an
  // 8-byte DCID: no pre-filter may refuse one.
  EXPECT_TRUE(tally.prefiltered.empty());
}

TEST(InitialOracle, RandomFlightsInEveryDatagramOrderAgree) {
  Rng rng(0x1417);
  Tally tally;
  for (int flow = 0; flow < 200; ++flow) {
    const auto& seed =
        corpus()[static_cast<std::size_t>(flow) % corpus().size()];
    if (seed.handshake.empty()) continue;
    const Bytes dcid = random_bytes(rng, rng.uniform(8, 20));
    const Bytes scid = random_bytes(rng, rng.uniform(0, 20));
    Bytes stream = seed.handshake;
    if (rng.bernoulli(0.3)) stream.resize(stream.size() + 2000, 0x00);
    auto flight = quic::build_client_initial_flight(
        dcid, scid, stream, rng.uniform(0, 1000), rng.uniform(1200, 1500));
    std::sort(flight.begin(), flight.end());
    do {
      expect_agreement(flight, tally);
    } while (std::next_permutation(flight.begin(), flight.end()));
  }
  EXPECT_GT(tally.accepted, 200u);
  EXPECT_TRUE(tally.prefiltered.empty());
}

TEST(InitialOracle, SealedInitialsWithUpTo64CryptoFramesAgree) {
  Rng rng(0x6672);
  Tally tally;
  for (int i = 0; i < 400; ++i) {
    const auto& seed = corpus()[static_cast<std::size_t>(i) % corpus().size()];
    if (seed.handshake.empty()) continue;
    const Bytes dcid = random_bytes(rng, rng.uniform(8, 20));
    const Bytes scid = random_bytes(rng, rng.uniform(0, 20));
    const Bytes token =
        random_bytes(rng, rng.bernoulli(0.3) ? rng.uniform(1, 90) : 0);
    const ByteView stream = ByteView(seed.handshake).first(
        std::min<std::size_t>(seed.handshake.size(), 900));
    const Bytes datagram =
        seal_initial(dcid, scid, token, rng.uniform(0, 70000),
                     sealed::shuffled_crypto_frames(rng, 0, stream,
                                                    rng.uniform(1, 64)),
                     rng.uniform(1200, 1500));
    expect_agreement({datagram}, tally);
  }
  EXPECT_GT(tally.accepted, 300u);
  EXPECT_TRUE(tally.prefiltered.empty());
}

TEST(InitialOracle, EveryTruncationAgreesAndNamesItsRule) {
  Tally tally;
  for (const auto& seed : corpus()) {
    if (seed.flight.empty()) continue;
    const Bytes& datagram = seed.flight.front();
    std::vector<Bytes> cuts;
    for (std::size_t n = 0; n < datagram.size(); ++n)
      cuts.emplace_back(datagram.begin(),
                        datagram.begin() + static_cast<std::ptrdiff_t>(n));
    expect_agreement(cuts, tally);
  }
  EXPECT_EQ(tally.accepted, 0u);
}

TEST(InitialOracle, MutantsAgree) {
  std::vector<const fuzz::SeedCase*> quic_seeds;
  for (const auto& seed : corpus())
    if (!seed.flight.empty()) quic_seeds.push_back(&seed);
  ASSERT_FALSE(quic_seeds.empty());
  fuzz::Mutator mutator(0x1a17);
  Tally tally;
  std::size_t datagrams = 0;
  for (std::size_t i = 0; i < 50'000; ++i) {
    const std::vector<Bytes> flight =
        mutator.mutate_initial_flight(*quic_seeds[i % quic_seeds.size()]);
    datagrams += flight.size();
    expect_agreement(flight, tally);
  }
  EXPECT_GT(datagrams, 50'000u);
  EXPECT_GT(tally.accepted, 1000u);
  EXPECT_GT(tally.rejected, 1000u);
}

TEST(InitialOracle, EachPreFilterRefusesWhatTheReferenceAccepts) {
  Rng rng(0x7066);
  const Bytes stream = corpus().front().handshake.empty()
                           ? Bytes(300, 0x16)
                           : corpus().front().handshake;
  const ByteView head =
      ByteView(stream).first(std::min<std::size_t>(stream.size(), 900));
  Writer w;
  w.u8(0x06);  // one CRYPTO frame at offset 0
  quic::put_varint(w, 0);
  quic::put_varint(w, head.size());
  w.raw(head);
  const Bytes frames = std::move(w).take();

  // RFC 9000 §14.1: a 1,100-byte client Initial authenticates but is
  // discarded.
  {
    Tally tally;
    const Bytes small =
        seal_initial(random_bytes(rng, 8), {}, {}, 0, frames, 1100);
    ASSERT_LT(small.size(), quic::kMinInitialDatagram);
    ASSERT_TRUE(reference::unprotect_client_initial(small).has_value());
    EXPECT_FALSE(quic::unprotect_client_initial(small).has_value());
    expect_agreement({small}, tally);
    EXPECT_EQ(tally.prefiltered.count(kShortDatagram), 1u);
  }
  // §7.2 and §17.2: a 7-byte and a 21-byte DCID.
  for (const std::size_t dcid_len : {0, 7, 21}) {
    Tally tally;
    const Bytes d =
        seal_initial(random_bytes(rng, dcid_len), {}, {}, 0, frames, 1250);
    ASSERT_TRUE(reference::unprotect_client_initial(d).has_value()) << dcid_len;
    EXPECT_FALSE(quic::unprotect_client_initial(d).has_value()) << dcid_len;
    expect_agreement({d}, tally);
    EXPECT_EQ(tally.prefiltered.count(kDcidLength), 1u) << dcid_len;
  }
  // The header-protection sample must lie inside the datagram: a token that
  // pushes the packet number to 10 bytes before the end, refused by the
  // Length check before any crypto.
  {
    const Bytes d = seal_initial(random_bytes(rng, 8), {}, {}, 0, frames, 1250);
    Bytes stuffed(d.begin(), d.begin() + 1 + 4 + 1 + 8 + 1);  // through SCID
    const std::size_t token_len = 1250 - stuffed.size() - 2 - 2 - 10;
    Writer t;
    quic::put_varint(t, token_len);
    stuffed.insert(stuffed.end(), t.data().begin(), t.data().end());
    stuffed.resize(stuffed.size() + token_len, 0xab);
    stuffed.push_back(0x40);  // Length 20, 2-byte varint
    stuffed.push_back(20);
    ASSERT_EQ(stuffed.size(), 1250u - 10u);  // the packet number starts here
    stuffed.resize(1250, 0xcd);
    EXPECT_FALSE(quic::unprotect_client_initial(stuffed).has_value());
    EXPECT_FALSE(reference::unprotect_client_initial(stuffed).has_value());
    Bytes scratch(stuffed.size());
    EXPECT_FALSE(quic::unprotect_client_initial(stuffed, scratch).has_value());
  }
}

TEST(InitialOracle, ExtractorFailsAHelloInitialCarryingAFramePastTheBound) {
  // One Initial whose first CRYPTO frame holds a whole ClientHello at
  // offset 0: a second frame in the same Initial that ends past
  // kMaxCryptoStream fails the flow before the hello is parsed.
  const fuzz::SeedCase* quic_seed = nullptr;
  for (const auto& seed : corpus())
    if (!seed.flight.empty() && seed.handshake.size() < 1000) {
      quic_seed = &seed;
      break;
    }
  ASSERT_NE(quic_seed, nullptr);
  const auto crypto_frame = [](Writer& w, std::uint64_t offset,
                               ByteView data) {
    w.u8(0x06);
    quic::put_varint(w, offset);
    quic::put_varint(w, data.size());
    w.raw(data);
  };
  const auto feed = [](const Bytes& datagram) {
    net::UdpHeader udp;
    udp.src_port = 50000;
    udp.dst_port = 443;
    net::Ipv4Header ip;
    ip.protocol = net::kProtoUdp;
    ip.src = net::IpAddr::v4(10, 0, 0, 1);
    ip.dst = net::IpAddr::v4(1, 1, 1, 1);
    const net::Packet packet{0, ip.serialize(udp.serialize(datagram))};
    core::HandshakeExtractor extractor;
    extractor.feed(*net::decode(packet));
    return std::pair{extractor.complete(), extractor.failed()};
  };
  const Bytes dcid = from_hex("0001020304050607");
  for (const std::uint64_t far : {quic::kMaxCryptoStream - 1,
                                  std::uint64_t{quic::kMaxCryptoStream}}) {
    Writer w;
    crypto_frame(w, 0, quic_seed->handshake);
    crypto_frame(w, far, Bytes{0x00});
    const auto [complete, failed] =
        feed(seal_initial(dcid, {}, {}, 0, std::move(w).take(), 1250));
    const bool past = far + 1 > quic::kMaxCryptoStream;
    EXPECT_EQ(complete, !past) << far;
    EXPECT_EQ(failed, past) << far;
  }
}

TEST(InitialOracle, ScratchTooSmallIsACallerError) {
  const Bytes d = corpus_datagrams().front();
  Bytes scratch(100);
  EXPECT_THROW((void)quic::unprotect_client_initial(d, scratch),
               std::invalid_argument);
  Bytes exact(d.size());
  EXPECT_TRUE(quic::unprotect_client_initial(d, exact).has_value());
}

// ---- transport parameters ---------------------------------------------------
// The flat WireTransportParameters parse (through the structural wrapper and
// its own accessors) against the structural parser it replaced.

std::string tp_mismatch(ByteView body) {
  const auto ref = reference::parse_transport_parameters(body);
  const auto wrapped = quic::TransportParameters::parse(body);
  const auto wire = quic::WireTransportParameters::parse(body);
  const std::string hex = " [body " + to_hex(body) + "]";
  if (ref.has_value() != wrapped.has_value() ||
      ref.has_value() != wire.has_value())
    return "accept/reject" + hex;
  if (!ref) return {};
  const quic::TransportParameters& a = *ref;
  const quic::TransportParameters& b = *wrapped;
  if (a.max_idle_timeout != b.max_idle_timeout ||
      a.max_udp_payload_size != b.max_udp_payload_size ||
      a.initial_max_data != b.initial_max_data ||
      a.initial_max_stream_data_bidi_local !=
          b.initial_max_stream_data_bidi_local ||
      a.initial_max_stream_data_bidi_remote !=
          b.initial_max_stream_data_bidi_remote ||
      a.initial_max_stream_data_uni != b.initial_max_stream_data_uni ||
      a.initial_max_streams_bidi != b.initial_max_streams_bidi ||
      a.initial_max_streams_uni != b.initial_max_streams_uni ||
      a.max_ack_delay != b.max_ack_delay ||
      a.disable_active_migration != b.disable_active_migration ||
      a.active_connection_id_limit != b.active_connection_id_limit ||
      a.initial_source_connection_id != b.initial_source_connection_id ||
      a.has_initial_source_connection_id !=
          b.has_initial_source_connection_id ||
      a.max_datagram_frame_size != b.max_datagram_frame_size ||
      a.grease_quic_bit != b.grease_quic_bit ||
      a.initial_rtt_us != b.initial_rtt_us ||
      a.google_connection_options != b.google_connection_options ||
      a.user_agent != b.user_agent || a.google_version != b.google_version ||
      a.ack_delay_exponent != b.ack_delay_exponent ||
      a.param_order != b.param_order)
    return "structural field" + hex;
  // The flat accessors the attribute path reads.
  std::vector<std::uint64_t> ids;
  for (const quic::ParamView p : wire->params(body)) ids.push_back(p.id);
  if (ids != a.param_order || wire->param_count() != ids.size())
    return "wire id order" + hex;
  const auto scid = wire->initial_source_connection_id_length();
  if (scid.has_value() != a.has_initial_source_connection_id ||
      (scid && *scid != a.initial_source_connection_id.size()))
    return "initial SCID length" + hex;
  const auto as_string = [](std::optional<std::string_view> v) {
    return v ? std::optional<std::string>(std::string(*v)) : std::nullopt;
  };
  if (as_string(wire->google_connection_options(body)) !=
          a.google_connection_options ||
      as_string(wire->user_agent(body)) != a.user_agent)
    return "Google string" + hex;
  // Another body of the same size would read garbage: any other size reads
  // nothing.
  const Bytes longer(body.size() + 1, 0);
  const quic::ParamSpan foreign = wire->params(longer);
  if (foreign.begin() != foreign.end() || wire->user_agent(longer))
    return "foreign body" + hex;
  return {};
}

TEST(TransportParamsOracle, FlatParseAgreesWithTheStructuralReference) {
  std::vector<Bytes> bodies;
  for (const auto& seed : corpus())
    if (!seed.tp_body.empty()) bodies.push_back(seed.tp_body);
  ASSERT_FALSE(bodies.empty());
  // Every truncation of each seed body, and 50k mutants.
  const std::size_t seeds = bodies.size();
  for (std::size_t i = 0; i < seeds; ++i)
    for (std::size_t n = 0; n < bodies[i].size(); ++n)
      bodies.emplace_back(bodies[i].begin(),
                          bodies[i].begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<const fuzz::SeedCase*> quic_seeds;
  for (const auto& seed : corpus())
    if (!seed.tp_body.empty()) quic_seeds.push_back(&seed);
  fuzz::Mutator mutator(0x7470);
  for (std::size_t i = 0; i < 50'000; ++i)
    bodies.push_back(
        mutator.mutate_transport_params(*quic_seeds[i % quic_seeds.size()]));
  // A repeated parameter keeps its last value, a malformed repeat of a
  // numeric parameter reads absent, and a short google_version keeps the
  // earlier one.
  bodies.push_back(from_hex("0102406401020000"));  // idle 100, then 0
  bodies.push_back(from_hex("01024064010140"));    // 100, then a cut varint
  // google_version 1, then a 2-byte one.
  bodies.push_back(from_hex("80004752" "04" "00000001" "80004752" "02" "0102"));
  bodies.push_back(from_hex("0f0211220f0133"));  // two SCIDs
  std::size_t accepted = 0;
  for (const Bytes& body : bodies) {
    const std::string failure = tp_mismatch(body);
    ASSERT_TRUE(failure.empty()) << failure;
    accepted += quic::WireTransportParameters::parse(body).has_value();
  }
  EXPECT_GT(accepted, 10'000u);
}

}  // namespace
}  // namespace vpscope
