#include "fuzz/oracles.hpp"

#include <exception>
#include <sstream>

#include "capture/afpacket.hpp"
#include "capture/pcap.hpp"
#include "core/handshake.hpp"
#include "core/interner.hpp"
#include "net/pcap.hpp"
#include "quic/initial.hpp"
#include "quic/transport_params.hpp"

namespace vpscope::fuzz {

namespace {

std::string describe(const char* what, ByteView mutant) {
  std::string s(what);
  s += " [mutant ";
  s += to_hex(mutant);
  s += "]";
  return s;
}

/// Builds the handshake observation the attribute extractor consumes. When
/// the ClientHello embeds parseable transport parameters the flow counts as
/// QUIC so the q* attributes are exercised too.
core::FlowHandshake to_flow_handshake(const tls::WireClientHello& chlo) {
  core::FlowHandshake hs;
  if (const auto tp_body = chlo.quic_transport_parameters()) {
    if (const auto tp = quic::WireTransportParameters::parse(*tp_body)) {
      hs.transport = fingerprint::Transport::Quic;
      hs.quic_tp = tp;
    }
  }
  hs.chlo = chlo;
  return hs;
}

/// Oracles (a) + (b) on a hello that parsed from `mutant`; `parse`
/// re-ingests the serialized structural form through the same entry point
/// the mutant came in on.
template <typename Parse, typename Serialize>
OracleResult check_parsed(const tls::WireClientHello& wire, ByteView mutant,
                          Parse parse, Serialize serialize) {
  OracleResult result;
  result.accepted = true;

  const auto chlo = tls::ClientHello::from_wire(wire);
  tls::WireClientHello again;
  if (!parse(again, serialize(chlo))) {
    result.failure = describe("fixpoint: serialize of accepted parse rejected",
                              mutant);
    return result;
  }
  if (!(tls::ClientHello::from_wire(again) == chlo)) {
    result.failure = describe("fixpoint: re-parse differs from first parse",
                              mutant);
    return result;
  }

  // One shared interner: two independent interners could assign the same id
  // to different strings and mask a divergence.
  core::TokenInterner interner;
  core::RawAttrs first{}, second{};
  core::extract_raw_attributes(to_flow_handshake(wire), interner, first);
  core::extract_raw_attributes(to_flow_handshake(again), interner, second);
  if (!raw_attrs_equal(first, second))
    result.failure = describe("attrs: RawAttrs differ across re-parse", mutant);
  return result;
}

}  // namespace

bool raw_attrs_equal(const core::RawAttrs& a, const core::RawAttrs& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.present != y.present || x.count != y.count || x.number != y.number)
      return false;
    for (std::uint8_t t = 0; t < x.count; ++t)
      if (x.tokens[t] != y.tokens[t]) return false;
  }
  return true;
}

OracleResult check_tls_record(ByteView data) {
  try {
    tls::WireClientHello wire;
    if (!wire.parse_record(data)) return {};
    return check_parsed(
        wire, data,
        [](tls::WireClientHello& w, const Bytes& b) {
          return w.parse_record(b);
        },
        [](const tls::ClientHello& c) { return c.serialize_record(); });
  } catch (const std::exception& e) {
    return {.accepted = false,
            .failure = describe(e.what(), data)};
  }
}

OracleResult check_tls_handshake(ByteView data) {
  try {
    tls::WireClientHello wire;
    if (!wire.parse_handshake(data)) return {};
    return check_parsed(
        wire, data,
        [](tls::WireClientHello& w, const Bytes& b) {
          return w.parse_handshake(b);
        },
        [](const tls::ClientHello& c) { return c.serialize_handshake(); });
  } catch (const std::exception& e) {
    return {.accepted = false,
            .failure = describe(e.what(), data)};
  }
}

OracleResult check_transport_params(ByteView body) {
  try {
    const auto tp = quic::TransportParameters::parse(body);
    if (!tp) return {};
    OracleResult result;
    result.accepted = true;

    const Bytes s1 = tp->serialize();
    const auto tp2 = quic::TransportParameters::parse(s1);
    if (!tp2) {
      result.failure =
          describe("fixpoint: serialize of accepted parse rejected", body);
      return result;
    }
    if (tp2->serialize() != s1)
      result.failure =
          describe("fixpoint: second normalization round not stable", body);
    return result;
  } catch (const std::exception& e) {
    return {.accepted = false, .failure = describe(e.what(), body)};
  }
}

OracleResult check_initial_flight(const std::vector<Bytes>& datagrams) {
  try {
    quic::CryptoReassembler reassembler;
    bool any = false;
    for (const auto& dg : datagrams) {
      if (!quic::looks_like_initial(dg)) continue;
      if (const auto packet = quic::unprotect_client_initial(dg)) {
        reassembler.add(*packet);
        any = true;
      }
    }
    if (!any) return {};
    return check_tls_handshake(reassembler.prefix());
  } catch (const std::exception& e) {
    std::string all;
    for (const auto& dg : datagrams) {
      if (!all.empty()) all += "|";
      all += to_hex(dg);
    }
    return {.accepted = false,
            .failure = std::string(e.what()) + " [flight " + all + "]"};
  }
}

OracleResult check_pcap_blob(const Bytes& blob) {
  try {
    // Streaming surface: the PcapReader walk itself must neither throw nor
    // OOB (the latter is the sanitizer lane's job), whatever the bytes.
    std::uint64_t streamed = 0;
    if (auto reader = capture::PcapReader::open(blob)) {
      while (reader->next()) ++streamed;
    }

    std::istringstream is(
        std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
    const auto packets = net::read_pcap(is);
    if (!packets) return {};
    OracleResult result;
    result.accepted = true;
    // Every packet a pcap reader accepts must survive decode + handshake
    // extraction without escaping exceptions.
    for (const auto& p : *packets) (void)net::decode(p);
    (void)core::extract_handshake(*packets);
    // Fixpoint: an accepted capture re-serialized through the canonical
    // writer must re-read to the identical packet sequence.
    std::ostringstream os;
    if (!net::write_pcap(os, *packets))
      return {.accepted = true,
              .failure = describe("pcap re-serialization failed", blob)};
    const std::string round = os.str();
    std::istringstream is2(round);
    const auto packets2 = net::read_pcap(is2);
    if (!packets2)
      return {.accepted = true,
              .failure = describe("pcap round-trip no longer parses", blob)};
    if (packets2->size() != packets->size())
      return {.accepted = true,
              .failure = describe("pcap round-trip changed packet count",
                                  blob)};
    for (std::size_t i = 0; i < packets->size(); ++i)
      if ((*packets2)[i].timestamp_us != (*packets)[i].timestamp_us ||
          (*packets2)[i].data != (*packets)[i].data)
        return {.accepted = true,
                .failure = describe("pcap round-trip changed a packet", blob)};
    return result;
  } catch (const std::exception& e) {
    return {.accepted = false, .failure = describe(e.what(), blob)};
  }
}

OracleResult check_block_image(const Bytes& image) {
  try {
    capture::TpacketBlockWalker walker(image);
    std::size_t walked = 0;
    while (const auto frame = walker.next()) {
      // The surfaced view must lie inside the image (ASan would catch the
      // read; this catches the arithmetic before it).
      if (frame->bytes.size() > 0 &&
          (frame->bytes.data() < image.data() ||
           frame->bytes.data() + frame->bytes.size() >
               image.data() + image.size()))
        return {.accepted = true,
                .failure = describe("walker surfaced an escaping view", image)};
      ++walked;
      if (walked > walker.num_packets())
        return {.accepted = true,
                .failure =
                    describe("walker yielded more frames than num_pkts",
                             image)};
    }
    OracleResult result;
    result.accepted = !walker.error() && walked > 0;
    return result;
  } catch (const std::exception& e) {
    return {.accepted = false, .failure = describe(e.what(), image)};
  }
}

}  // namespace vpscope::fuzz
