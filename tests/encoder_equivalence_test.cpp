// PR 2 equivalence suite: the allocation-free interned attribute path
// (TokenInterner + POD RawAttr records + flat value tables) must be
// BIT-IDENTICAL to the string-based path it replaced. The pre-refactor
// extraction and encoding are reproduced here verbatim as the reference
// (std::string tokens, std::map<std::string,int> dictionaries) and compared
// against the production encoder over the full synthetic lab dataset for
// every (provider, transport) scenario — including open-set flows whose
// tokens the fitted dictionaries never saw, and zero-padded list slots.
//
// A concurrent section drives ClassifierBank::classify from many threads
// (the per-thread scratch is the refactor's only mutable inference state),
// which is why this binary carries both the `encoder` and `concurrency`
// ctest labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/attributes.hpp"
#include "core/encoder.hpp"
#include "core/handshake.hpp"
#include "net/packet.hpp"
#include "quic/initial.hpp"
#include "pipeline/classifier_bank.hpp"
#include "quic/transport_params.hpp"
#include "reference_initial.hpp"
#include "sealed_initial.hpp"
#include "synth/dataset.hpp"
#include "tls/constants.hpp"
#include "util/rng.hpp"

namespace vpscope::core {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;

// ---- reference implementation: the pre-refactor string-token path -------

struct RefAttr {
  bool present = false;
  double number = 0.0;
  std::string token;
  std::vector<std::string> tokens;
};

RefAttr ref_num(double v) {
  RefAttr a;
  a.present = true;
  a.number = v;
  return a;
}

RefAttr ref_presence(bool p) {
  RefAttr a;
  a.present = p;
  a.number = p ? 1.0 : 0.0;
  return a;
}

RefAttr ref_ext_length(const tls::ClientHello& chlo, std::uint16_t type) {
  const tls::Extension* e = chlo.find(type);
  RefAttr a;
  if (e) {
    a.present = true;
    a.number = static_cast<double>(4 + e->body.size());
  }
  return a;
}

RefAttr ref_cat(bool present, std::string token) {
  RefAttr a;
  a.present = present;
  if (present) a.token = std::move(token);
  return a;
}

RefAttr ref_list(std::vector<std::string> tokens) {
  RefAttr a;
  a.present = !tokens.empty();
  a.tokens = std::move(tokens);
  return a;
}

std::string join_u8(const std::vector<std::uint8_t>& values) {
  std::string out;
  for (auto v : values) {
    if (!out.empty()) out += '-';
    out += std::to_string(v);
  }
  return out;
}

std::string join_u16(const std::vector<std::uint16_t>& values) {
  std::string out;
  for (auto v : values) {
    if (!out.empty()) out += '-';
    out += std::to_string(v);
  }
  return out;
}

std::vector<std::string> u16_tokens(const std::vector<std::uint16_t>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (auto v : values) out.push_back(std::to_string(v));
  return out;
}

bool has_ext(const tls::ClientHello& chlo, std::uint16_t type) {
  return chlo.find(type) != nullptr;
}

std::size_t ref_extensions_length(const tls::ClientHello& chlo) {
  std::size_t total = 0;
  for (const auto& e : chlo.extensions) total += 4 + e.body.size();
  return total;
}

/// The Handshake.length of the serialized structural hello.
std::size_t ref_body_length(const tls::ClientHello& chlo) {
  return 2 + 32 + 1 + chlo.session_id.size() + 2 +
         chlo.cipher_suites.size() * 2 + 1 + chlo.compression_methods.size() +
         2 + ref_extensions_length(chlo);
}

std::optional<std::uint16_t> ref_record_size_limit(
    const tls::ClientHello& chlo) {
  const tls::Extension* e = chlo.find(tls::ext::kRecordSizeLimit);
  if (!e || e->body.size() != 2) return std::nullopt;
  return static_cast<std::uint16_t>(e->body[0] << 8 | e->body[1]);
}

/// Verbatim port of the v1 (string-token) extract_raw_attributes, reading
/// the structural copy of the flow's wire ClientHello.
std::array<RefAttr, kNumAttributes> reference_extract(const FlowHandshake& h) {
  std::array<RefAttr, kNumAttributes> out{};
  const bool is_tcp = h.transport == Transport::Tcp;
  const auto chlo = tls::ClientHello::from_wire(h.chlo);
  namespace ext = tls::ext;

  out[0] = ref_num(static_cast<double>(h.init_packet_size));
  out[1] = ref_num(static_cast<double>(h.ttl));

  if (is_tcp) {
    out[2] = ref_presence(h.syn_flags.cwr);
    out[3] = ref_presence(h.syn_flags.ece);
    out[4] = ref_presence(h.syn_flags.urg);
    out[5] = ref_presence(h.syn_flags.ack);
    out[6] = ref_presence(h.syn_flags.psh);
    out[7] = ref_presence(h.syn_flags.rst);
    out[8] = ref_presence(h.syn_flags.syn);
    out[9] = ref_presence(h.syn_flags.fin);
    out[10] = ref_num(h.tcp_window);
    out[11] = ref_num(h.tcp_mss ? *h.tcp_mss : 0.0);
    out[12] = ref_num(h.tcp_window_scale ? *h.tcp_window_scale : 0.0);
    out[13] = ref_presence(h.tcp_sack_permitted);
  }

  out[14] = ref_num(static_cast<double>(ref_body_length(chlo)));
  out[15] = ref_cat(true, std::to_string(chlo.legacy_version));
  out[16] = ref_list(u16_tokens(chlo.cipher_suites));
  out[17] = ref_num(static_cast<double>(chlo.compression_methods.size()));
  out[18] = ref_num(static_cast<double>(ref_extensions_length(chlo)));

  out[19] = ref_list(u16_tokens(chlo.extension_types()));
  if (const auto sni = chlo.server_name())
    out[20] = ref_num(static_cast<double>(sni->size()));
  if (const tls::Extension* e = chlo.find(ext::kStatusRequest))
    out[21] = ref_cat(true, e->body.empty() ? "empty"
                                            : std::to_string(e->body[0]));
  if (const auto groups = chlo.supported_groups())
    out[22] = ref_list(u16_tokens(*groups));
  if (const auto formats = chlo.ec_point_formats())
    out[23] = ref_cat(true, join_u8(*formats));
  if (const auto algs = chlo.signature_algorithms())
    out[24] = ref_list(u16_tokens(*algs));
  if (const auto alpn = chlo.alpn_protocols()) out[25] = ref_list(*alpn);
  out[26] = ref_ext_length(chlo, ext::kSignedCertTimestamp);
  out[27] = ref_ext_length(chlo, ext::kPadding);
  out[28] = ref_presence(has_ext(chlo, ext::kEncryptThenMac));
  out[29] = ref_presence(has_ext(chlo, ext::kExtendedMasterSecret));
  if (const auto comp = chlo.compress_certificate())
    out[30] = ref_cat(true, join_u16(*comp));
  if (const auto limit = ref_record_size_limit(chlo))
    out[31] = ref_num(*limit);
  if (const auto dc = chlo.delegated_credentials())
    out[32] = ref_list(u16_tokens(*dc));
  out[33] = ref_ext_length(chlo, ext::kSessionTicket);
  out[34] = ref_presence(has_ext(chlo, ext::kPreSharedKey));
  out[35] = ref_ext_length(chlo, ext::kEarlyData);
  if (const auto versions = chlo.supported_versions())
    out[36] = ref_list(u16_tokens(*versions));
  if (const auto modes = chlo.psk_key_exchange_modes())
    out[37] = ref_cat(true, join_u8(*modes));
  out[38] = ref_presence(has_ext(chlo, ext::kPostHandshakeAuth));
  if (const auto shares = chlo.key_share_groups())
    out[39] = ref_list(u16_tokens(*shares));
  if (const auto settings = chlo.application_settings()) {
    std::vector<std::string> tokens;
    tokens.push_back(has_ext(chlo, ext::kApplicationSettingsNew)
                         ? "alps-new"
                         : "alps-old");
    tokens.insert(tokens.end(), settings->begin(), settings->end());
    out[40] = ref_list(std::move(tokens));
  }
  out[41] = ref_presence(has_ext(chlo, ext::kRenegotiationInfo));

  // The structural parse the flat WireTransportParameters replaced.
  const auto ref_tp = h.transport == Transport::Quic && h.quic_tp
                          ? reference::parse_transport_parameters(
                                h.quic_tp_body())
                          : std::nullopt;
  if (ref_tp) {
    const quic::TransportParameters& tp = *ref_tp;
    {
      std::vector<std::string> ids;
      for (std::uint64_t id : tp.param_order)
        ids.push_back(quic::tp::is_grease(id) ? "GREASE"
                                              : std::to_string(id));
      out[42] = ref_list(std::move(ids));
    }
    auto opt_num = [](const std::optional<std::uint64_t>& v) {
      RefAttr a;
      if (v) {
        a.present = true;
        a.number = static_cast<double>(*v);
      }
      return a;
    };
    out[43] = opt_num(tp.max_idle_timeout);
    out[44] = opt_num(tp.max_udp_payload_size);
    out[45] = opt_num(tp.initial_max_data);
    out[46] = opt_num(tp.initial_max_stream_data_bidi_local);
    out[47] = opt_num(tp.initial_max_stream_data_bidi_remote);
    out[48] = opt_num(tp.initial_max_stream_data_uni);
    out[49] = opt_num(tp.initial_max_streams_bidi);
    out[50] = opt_num(tp.initial_max_streams_uni);
    out[51] = opt_num(tp.max_ack_delay);
    out[52] = ref_presence(tp.disable_active_migration);
    out[53] = opt_num(tp.active_connection_id_limit);
    if (tp.has_initial_source_connection_id)
      out[54] =
          ref_num(static_cast<double>(tp.initial_source_connection_id.size()));
    out[55] = opt_num(tp.max_datagram_frame_size);
    out[56] = ref_presence(tp.grease_quic_bit);
    out[57] = ref_presence(tp.initial_rtt_us.has_value());
    if (tp.google_connection_options)
      out[58] = ref_cat(true, *tp.google_connection_options);
    if (tp.user_agent) out[59] = ref_cat(true, *tp.user_agent);
    if (tp.google_version)
      out[60] = ref_cat(true, std::to_string(*tp.google_version));
    out[61] = opt_num(tp.ack_delay_exponent);
  }

  return out;
}

/// Verbatim port of the v1 FeatureEncoder (std::map<std::string,int>
/// dictionaries, ids in first-seen order, unseen -> dict.size() + 1).
class ReferenceEncoder {
 public:
  explicit ReferenceEncoder(Transport transport)
      : shape_(transport), dicts_(kNumAttributes) {}

  void fit(const std::vector<FlowHandshake>& handshakes) {
    const auto& catalog = attribute_catalog();
    for (const FlowHandshake& h : handshakes) {
      const auto raw = reference_extract(h);
      for (int attr : shape_.attributes()) {
        const AttributeInfo& info = catalog[static_cast<std::size_t>(attr)];
        const RefAttr& r = raw[static_cast<std::size_t>(attr)];
        if (!r.present) continue;
        auto& dict = dicts_[static_cast<std::size_t>(attr)];
        if (info.type == AttrType::Categorical) {
          dict.try_emplace(r.token, static_cast<int>(dict.size()) + 1);
        } else if (info.type == AttrType::List) {
          for (const auto& token : r.tokens)
            dict.try_emplace(token, static_cast<int>(dict.size()) + 1);
        }
      }
    }
  }

  std::vector<double> transform(const FlowHandshake& h) const {
    const auto& catalog = attribute_catalog();
    const auto raw = reference_extract(h);
    std::vector<double> out;
    out.reserve(shape_.dimension());
    for (const FeatureEncoder::Column& col : shape_.columns()) {
      const AttributeInfo& info =
          catalog[static_cast<std::size_t>(col.attribute)];
      const RefAttr& r = raw[static_cast<std::size_t>(col.attribute)];
      if (!r.present) {
        out.push_back(0.0);
        continue;
      }
      switch (info.type) {
        case AttrType::Numerical:
        case AttrType::Presence:
        case AttrType::Length:
          out.push_back(r.number);
          break;
        case AttrType::Categorical:
          out.push_back(map_token(col.attribute, r.token));
          break;
        case AttrType::List: {
          const auto slot = static_cast<std::size_t>(col.slot);
          if (slot < r.tokens.size())
            out.push_back(map_token(col.attribute, r.tokens[slot]));
          else
            out.push_back(0.0);  // zero padding for short lists
          break;
        }
      }
    }
    return out;
  }

 private:
  double map_token(int attribute, const std::string& token) const {
    const auto& dict = dicts_[static_cast<std::size_t>(attribute)];
    const auto it = dict.find(token);
    if (it == dict.end()) return static_cast<double>(dict.size() + 1);
    return static_cast<double>(it->second);
  }

  FeatureEncoder shape_;  // unfitted; reused only for columns/attributes
  std::vector<std::map<std::string, int>> dicts_;
};

// ---- fixtures -----------------------------------------------------------

struct ScenarioHandshakes {
  Provider provider;
  Transport transport;
  std::vector<FlowHandshake> handshakes;
};

const std::vector<ScenarioHandshakes>& lab_scenarios() {
  static const std::vector<ScenarioHandshakes> scenarios = [] {
    const synth::Dataset dataset = synth::generate_lab_dataset(42, 0.3);
    std::vector<ScenarioHandshakes> out = {
        {Provider::YouTube, Transport::Tcp, {}},
        {Provider::YouTube, Transport::Quic, {}},
        {Provider::Netflix, Transport::Tcp, {}},
        {Provider::Disney, Transport::Tcp, {}},
        {Provider::Amazon, Transport::Tcp, {}},
    };
    for (const auto& flow : dataset.flows) {
      auto handshake = extract_handshake(flow.packets);
      if (!handshake) continue;
      for (auto& s : out)
        if (s.provider == flow.provider && s.transport == flow.transport) {
          s.handshakes.push_back(std::move(*handshake));
          break;
        }
    }
    return out;
  }();
  return scenarios;
}

// ---- tests --------------------------------------------------------------

TEST(EncoderEquivalence, BitIdenticalOverFullLabDataset) {
  for (const auto& s : lab_scenarios()) {
    ASSERT_FALSE(s.handshakes.empty());
    FeatureEncoder interned(s.transport);
    interned.fit(s.handshakes);
    ReferenceEncoder reference(s.transport);
    reference.fit(s.handshakes);

    RawAttrs raw;
    std::vector<double> fast(interned.dimension());
    for (std::size_t i = 0; i < s.handshakes.size(); ++i) {
      const auto expected = reference.transform(s.handshakes[i]);
      const auto allocating = interned.transform(s.handshakes[i]);
      interned.transform_into(s.handshakes[i], raw, fast);
      ASSERT_EQ(allocating, expected)
          << "allocating wrapper diverged, scenario "
          << static_cast<int>(s.provider) << "/"
          << static_cast<int>(s.transport) << " flow " << i;
      ASSERT_EQ(fast, expected)
          << "scratch-span path diverged, scenario "
          << static_cast<int>(s.provider) << "/"
          << static_cast<int>(s.transport) << " flow " << i;
    }
  }
}

TEST(EncoderEquivalence, OpenSetUnseenTokensBitIdentical) {
  // Fit on one scenario's handshakes, transform another scenario's flows of
  // the same transport: their ciphers/groups/versions contain tokens the
  // dictionaries never saw, which must hit the same unseen bucket in both
  // implementations.
  const auto& scenarios = lab_scenarios();
  const auto& fit_on = scenarios[0];    // YouTube TCP
  const auto& foreign = scenarios[2];   // Netflix TCP
  ASSERT_EQ(fit_on.transport, foreign.transport);
  ASSERT_FALSE(fit_on.handshakes.empty());
  ASSERT_FALSE(foreign.handshakes.empty());

  // Fit on a deliberately small slice so plenty of tokens stay unseen.
  const std::vector<FlowHandshake> slice(
      fit_on.handshakes.begin(),
      fit_on.handshakes.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              5, fit_on.handshakes.size())));
  FeatureEncoder interned(fit_on.transport);
  interned.fit(slice);
  ReferenceEncoder reference(fit_on.transport);
  reference.fit(slice);

  RawAttrs raw;
  std::vector<double> fast(interned.dimension());
  for (std::size_t i = 0; i < foreign.handshakes.size(); ++i) {
    const auto expected = reference.transform(foreign.handshakes[i]);
    interned.transform_into(foreign.handshakes[i], raw, fast);
    ASSERT_EQ(fast, expected) << "open-set flow " << i;
  }
}

TEST(EncoderEquivalence, ZeroPaddedListSlotsMatch) {
  // Every scenario has platforms with short lists (e.g. consoles with few
  // cipher suites); verify the padding columns are exactly 0.0 in both
  // paths and that at least one padded slot actually occurs in the data.
  const auto& s = lab_scenarios()[0];
  FeatureEncoder interned(s.transport);
  interned.fit(s.handshakes);
  ReferenceEncoder reference(s.transport);
  reference.fit(s.handshakes);

  const auto& catalog = attribute_catalog();
  bool saw_padding = false;
  RawAttrs raw;
  std::vector<double> fast(interned.dimension());
  for (const auto& h : s.handshakes) {
    const auto expected = reference.transform(h);
    interned.transform_into(h, raw, fast);
    ASSERT_EQ(fast, expected);
    const auto& cols = interned.columns();
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const auto& info =
          catalog[static_cast<std::size_t>(cols[c].attribute)];
      if (info.type != AttrType::List || cols[c].slot == 0) continue;
      const RawAttr& r = raw[static_cast<std::size_t>(cols[c].attribute)];
      if (r.present && static_cast<std::size_t>(cols[c].slot) >= r.count) {
        EXPECT_EQ(fast[c], 0.0);
        saw_padding = true;
      }
    }
  }
  EXPECT_TRUE(saw_padding);
}

TEST(EncoderEquivalence, SignaturesMatchReferenceStrings) {
  // attribute_signature through the interner must render the same strings
  // the old std::string path produced.
  const auto& s = lab_scenarios()[1];  // YouTube QUIC: exercises q1..q20
  ASSERT_FALSE(s.handshakes.empty());
  const auto& catalog = attribute_catalog();
  TokenInterner interner;
  for (const auto& h : s.handshakes) {
    const auto raw = extract_raw_attributes(h, interner);
    const auto ref = reference_extract(h);
    for (int a = 0; a < kNumAttributes; ++a) {
      const auto type = catalog[static_cast<std::size_t>(a)].type;
      std::string expected;
      const RefAttr& r = ref[static_cast<std::size_t>(a)];
      if (!r.present) {
        expected = "<absent>";
      } else {
        switch (type) {
          case AttrType::Numerical:
          case AttrType::Presence:
          case AttrType::Length: {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.0f", r.number);
            expected = buf;
            break;
          }
          case AttrType::Categorical:
            expected = r.token;
            break;
          case AttrType::List:
            for (const auto& t : r.tokens) {
              expected += t;
              expected += '|';
            }
            break;
        }
      }
      ASSERT_EQ(attribute_signature(raw[static_cast<std::size_t>(a)], type,
                                    interner),
                expected)
          << "attribute " << catalog[static_cast<std::size_t>(a)].label;
    }
  }
}

// ---- QUIC extraction in every datagram order ------------------------------
// HandshakeExtractor decrypts each Initial into its stack and reassembles
// every Initial's CRYPTO frames into the one buffer the hello then keeps;
// the reference unprotects with the allocating path it replaced, keeps the
// first byte received at each offset in a byte map and parses the gapless
// prefix. Both must complete on the same datagram with bit-identical
// features, for the synthesizer's one-frame Initials and for the same
// Initials re-cut into shuffled CRYPTO frames.

struct ReferenceQuicExtraction {
  std::optional<FlowHandshake> handshake;
  std::size_t completed_at = 0;  // datagrams fed when it completed
};

ReferenceQuicExtraction reference_quic_extract(
    const std::vector<net::Packet>& packets) {
  ReferenceQuicExtraction out;
  Bytes stream;
  std::vector<bool> received;
  FlowHandshake h;
  bool seen = false;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto d = net::decode(packets[i]);
    if (!d || !d->udp) continue;
    const auto initial = reference::unprotect_client_initial(d->payload);
    if (!initial) continue;
    if (!seen) {
      seen = true;
      h.transport = Transport::Quic;
      h.init_packet_size = d->ip_packet_size;
      h.ttl = d->ttl;
    }
    for (const auto& [offset, data] : initial->crypto_fragments) {
      if (offset + data.size() > quic::kMaxCryptoStream) return out;
      if (stream.size() < offset + data.size()) {
        stream.resize(offset + data.size());
        received.resize(stream.size());
      }
      for (std::size_t i = 0; i < data.size(); ++i)
        if (!received[offset + i]) {
          stream[offset + i] = data[i];
          received[offset + i] = true;
        }
    }
    const std::size_t prefix = static_cast<std::size_t>(
        std::find(received.begin(), received.end(), false) - received.begin());
    if (prefix >= 4 && h.chlo.parse_handshake(ByteView(stream).first(prefix))) {
      if (const auto body = h.chlo.quic_transport_parameters())
        h.quic_tp = quic::WireTransportParameters::parse(*body);
      out.handshake = std::move(h);
      out.completed_at = i + 1;
      return out;
    }
  }
  return out;
}

TEST(EncoderEquivalence, QuicFlightsInEveryDatagramOrderBitIdentical) {
  const auto& s = lab_scenarios()[1];  // YouTube QUIC
  ASSERT_EQ(s.transport, Transport::Quic);
  FeatureEncoder interned(s.transport);
  interned.fit(s.handshakes);
  ReferenceEncoder reference(s.transport);
  reference.fit(s.handshakes);

  Rng rng(0x0de7);
  synth::FlowSynthesizer synth(rng);
  const auto platforms =
      fingerprint::platforms_for(Provider::YouTube, Transport::Quic);
  RawAttrs raw;
  std::vector<double> fast(interned.dimension());
  std::size_t orders = 0, multi = 0, recut = 0;
  for (std::size_t f = 0; f < 6 * platforms.size(); ++f) {
    auto profile = fingerprint::make_profile(
        platforms[f % platforms.size()], Provider::YouTube, Transport::Quic);
    if (f % (3 * platforms.size()) >= platforms.size()) {
      // One to three Initials per flight.
      profile.quic.initial_datagram_size = 1200;
      profile.tls.padding_to = rng.uniform(1100, 3000);
    }
    const auto flow = synth.synthesize(profile);
    // The client Initials and the server's Initial, as the tap sees them;
    // in the second half, each client Initial with room for it re-cut into
    // 2-11 shuffled CRYPTO frames.
    std::vector<net::Packet> flight;
    for (const auto& p : flow.packets) {
      const auto d = net::decode(p);
      if (!d || !d->udp || d->payload.empty()) continue;
      const auto cut = f >= 3 * platforms.size()
                           ? sealed::reshuffled_initial(d->payload, rng,
                                                        rng.uniform(2, 11))
                           : std::nullopt;
      recut += cut.has_value();
      flight.push_back(cut ? sealed::with_udp_payload(p, *cut) : p);
    }
    ASSERT_GE(flight.size(), 2u);
    multi += flight.size() > 2;
    std::vector<std::size_t> order(flight.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    do {
      std::vector<net::Packet> packets;
      for (const std::size_t i : order) packets.push_back(flight[i]);
      const ReferenceQuicExtraction expected = reference_quic_extract(packets);
      HandshakeExtractor extractor;
      std::size_t fed = 0;
      net::DecodedPacket decoded;
      for (const auto& p : packets) {
        ASSERT_TRUE(net::decode_into(p, decoded));
        extractor.feed(decoded);
        ++fed;
        if (extractor.complete() || extractor.failed()) break;
      }
      ++orders;
      ASSERT_EQ(extractor.complete(), expected.handshake.has_value())
          << "flow " << f;
      if (!expected.handshake) continue;
      ASSERT_EQ(fed, expected.completed_at) << "flow " << f;
      interned.transform_into(*extractor.handshake(), raw, fast);
      ASSERT_EQ(fast, reference.transform(*expected.handshake))
          << "flow " << f << ", " << flight.size() << " datagrams";
    } while (std::next_permutation(order.begin(), order.end()));
  }
  EXPECT_GT(multi, 2 * platforms.size());
  EXPECT_GT(orders, 12 * platforms.size());
  EXPECT_GT(recut, 2 * platforms.size());
}

// ---- lookup_number oracle -------------------------------------------------
// The frozen extraction path resolves integer tokens by value; it must pick
// exactly the id lookup() gives the value's std::to_chars rendering.

std::string decimal(std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  EXPECT_EQ(ec, std::errc());
  return std::string(buf, end);
}

TEST(LookupNumber, EqualsDecimalLookupOnEveryLabEncoder) {
  Rng rng(0x10c4);
  for (const auto& s : lab_scenarios()) {
    FeatureEncoder encoder(s.transport);
    encoder.fit(s.handshakes);
    const TokenInterner& interner = encoder.interner();
    ASSERT_TRUE(interner.frozen());
    // Every token that is some value's rendering resolves by that value.
    std::size_t numeric = 0;
    for (TokenId id = 1; id <= interner.size(); ++id) {
      const std::string_view token = interner.token(id);
      std::uint64_t v = 0;
      const auto [end, ec] =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec != std::errc() || end != token.data() + token.size() ||
          decimal(v) != token)
        continue;
      ++numeric;
      ASSERT_EQ(interner.lookup_number(v), id) << token;
    }
    EXPECT_GT(numeric, 20u);
    for (std::uint64_t v = 0; v <= 0xffff; ++v)
      ASSERT_EQ(interner.lookup_number(v), interner.lookup(decimal(v))) << v;
    for (const std::uint64_t v :
         {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{1} << 32,
          std::uint64_t{1} << 63})
      ASSERT_EQ(interner.lookup_number(v), interner.lookup(decimal(v))) << v;
    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t v = rng.next_u64() >> (rng.next_u32() % 64);
      ASSERT_EQ(interner.lookup_number(v), interner.lookup(decimal(v))) << v;
    }
  }
}

TEST(LookupNumber, NeverReturnsANonCanonicalSpelling) {
  for (const bool with_canonical : {false, true}) {
    TokenInterner interner;
    std::vector<TokenId> spellings;
    for (const char* t :
         {"007", "07", "00", "+7", "-7", "7 ", " 7", "0x7", "7.0", "GREASE",
          "", "18446744073709551616", "99999999999999999999"})
      spellings.push_back(interner.intern(t));
    TokenId zero = TokenInterner::kUnseenId, seven = zero, max = zero;
    if (with_canonical) {
      zero = interner.intern("0");
      seven = interner.intern("7");
      max = interner.intern("18446744073709551615");
    }
    // Growing phase (rendered lookup), then the frozen integer table.
    for (int phase = 0; phase < 2; ++phase) {
      SCOPED_TRACE(phase == 0 ? "growing" : "frozen");
      EXPECT_EQ(interner.lookup_number(0), zero);
      EXPECT_EQ(interner.lookup_number(7), seven);
      EXPECT_EQ(interner.lookup_number(~std::uint64_t{0}), max);
      for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{7},
                                    ~std::uint64_t{0}})
        for (const TokenId spelled : spellings)
          EXPECT_NE(interner.lookup_number(v), spelled) << v;
      interner.freeze();
    }
  }
}

TEST(EncoderEquivalence, ConcurrentClassifyMatchesSingleThread) {
  // The refactor made ClassifierBank::classify's scratch thread_local;
  // concurrent classification from many threads must agree exactly with a
  // single-threaded pass over the same flows.
  const synth::Dataset dataset = synth::generate_lab_dataset(7, 0.1);
  pipeline::ClassifierBank bank;
  pipeline::BankParams params;
  params.forest.n_trees = 12;  // small but non-trivial
  bank.train(dataset, params);

  std::vector<FlowHandshake> handshakes;
  std::vector<Provider> providers;
  for (const auto& flow : dataset.flows) {
    if (handshakes.size() >= 200) break;
    auto h = extract_handshake(flow.packets);
    if (!h) continue;
    handshakes.push_back(std::move(*h));
    providers.push_back(flow.provider);
  }
  ASSERT_FALSE(handshakes.empty());

  std::vector<pipeline::PlatformPrediction> expected(handshakes.size());
  for (std::size_t i = 0; i < handshakes.size(); ++i)
    expected[i] = bank.classify(handshakes[i], providers[i]);

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < handshakes.size(); ++i) {
          const auto p = bank.classify(handshakes[i], providers[i]);
          const bool same =
              p.outcome == expected[i].outcome &&
              p.platform == expected[i].platform &&
              p.device == expected[i].device &&
              p.agent == expected[i].agent &&
              p.platform_confidence == expected[i].platform_confidence &&
              p.device_confidence == expected[i].device_confidence &&
              p.agent_confidence == expected[i].agent_confidence;
          mismatches[static_cast<std::size_t>(t)] += !same;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
}

}  // namespace
}  // namespace vpscope::core
