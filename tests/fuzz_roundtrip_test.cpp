// Satellite of the torture harness: serialize round-trip property over the
// full synth lab corpus. Every ClientHello the lab emits — extracted back
// off the wire exactly as the pipeline sees it (TCP record path and
// QUIC-embedded CRYPTO path, including extension order and padding) — must
// survive parse -> serialize -> re-parse bit-structurally, and the 62
// RawAttrs must be stable across the round trip.
#include <gtest/gtest.h>

#include "core/attributes.hpp"
#include "core/handshake.hpp"
#include "fuzz/oracles.hpp"
#include "quic/initial.hpp"
#include "synth/dataset.hpp"

namespace vpscope::fuzz {
namespace {

class RoundTripTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 1.0));
  }
  static void TearDownTestSuite() {
    delete lab_;
    lab_ = nullptr;
  }
  static synth::Dataset* lab_;
};

synth::Dataset* RoundTripTest::lab_ = nullptr;

TEST_F(RoundTripTest, EveryLabFlowRoundTripsOnBothPaths) {
  core::TokenInterner interner;
  std::size_t tcp = 0, quic = 0;
  for (const auto& flow : lab_->flows) {
    // Extraction is the real ingest path: QUIC flows go through Initial
    // unprotection + CRYPTO reassembly, TCP flows through record reassembly.
    const auto hs = core::extract_handshake(flow.packets);
    ASSERT_TRUE(hs.has_value()) << "lab flow lost its ClientHello";
    const auto chlo = tls::ClientHello::from_wire(hs->chlo);
    (flow.transport == fingerprint::Transport::Quic ? quic : tcp)++;

    // Record path: serialize_record -> parse_record must reproduce the
    // structure exactly, extension order and padding bytes included.
    const Bytes record = chlo.serialize_record();
    const auto via_record = tls::ClientHello::parse_record(record);
    ASSERT_TRUE(via_record.has_value());
    EXPECT_EQ(*via_record, chlo);

    // QUIC-embedded path: the handshake message carried in CRYPTO frames.
    const Bytes handshake = chlo.serialize_handshake();
    const auto via_handshake = tls::ClientHello::parse_handshake(handshake);
    ASSERT_TRUE(via_handshake.has_value());
    EXPECT_EQ(*via_handshake, chlo);

    // Attribute stability: the classifier input derived from the re-parsed
    // hello must match the original bit for bit.
    core::FlowHandshake reparsed = *hs;
    ASSERT_TRUE(reparsed.chlo.parse_record(record));
    core::RawAttrs before, after;
    core::extract_raw_attributes(*hs, interner, before);
    core::extract_raw_attributes(reparsed, interner, after);
    EXPECT_TRUE(raw_attrs_equal(before, after));
  }
  // The property only means something if both wire paths were exercised.
  EXPECT_GT(tcp, 0u);
  EXPECT_GT(quic, 0u);
}

TEST_F(RoundTripTest, QuicHandshakesSurviveReEmbedding) {
  // Round-trip through a freshly sealed Initial flight: serialize the
  // handshake, embed it in CRYPTO frames, protect, unprotect, reassemble,
  // and re-parse. Run on a deterministic sample — sealing costs an AEAD
  // pass per flow and the full lab has thousands of QUIC flows.
  const Bytes dcid = from_hex("0011223344556677");
  const Bytes scid = from_hex("8899aabbccddeeff");
  std::size_t checked = 0;
  for (std::size_t i = 0; i < lab_->flows.size(); i += 17) {
    const auto& flow = lab_->flows[i];
    if (flow.transport != fingerprint::Transport::Quic) continue;
    const auto hs = core::extract_handshake(flow.packets);
    ASSERT_TRUE(hs.has_value());
    const auto chlo = tls::ClientHello::from_wire(hs->chlo);
    const Bytes handshake = chlo.serialize_handshake();

    const auto flight = quic::build_client_initial_flight(dcid, scid, handshake);
    quic::CryptoReassembler reassembler;
    for (const Bytes& datagram : flight) {
      auto packet = quic::unprotect_client_initial(datagram);
      ASSERT_TRUE(packet.has_value());
      reassembler.add(*packet);
    }
    const auto via_quic =
        tls::ClientHello::parse_handshake(reassembler.contiguous_prefix());
    ASSERT_TRUE(via_quic.has_value());
    EXPECT_EQ(*via_quic, chlo);
    ++checked;
  }
  EXPECT_GT(checked, 20u);
}

}  // namespace
}  // namespace vpscope::fuzz
