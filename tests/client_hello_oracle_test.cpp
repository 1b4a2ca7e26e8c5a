// ClientHello oracle: tls::WireClientHello (the one parser) against the
// structural parser it replaced, kept verbatim in reference_client_hello.hpp.
// Inputs are the fuzz seed corpus in record and handshake form, the
// handshakes of the golden pcaps, every truncation of each, and 50k
// structure-aware fuzz::Mutator mutants per form. Both parsers must accept
// exactly the same inputs, and every flat accessor must answer what the
// reference answers; ClientHello::parse_record/parse_handshake, now thin
// wrappers, must rebuild the reference's fields. The pinned cases below fix
// the behaviours the attribute path depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/mutator.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "quic/initial.hpp"
#include "reference_client_hello.hpp"

#ifndef VPSCOPE_GOLDEN_DIR
#define VPSCOPE_GOLDEN_DIR "tests/data/golden"
#endif

namespace vpscope {
namespace {

using tls::WireClientHello;

constexpr int kMutantsPerForm = 50'000;

/// Types whose lookup the oracle compares: every Table-2 extension below the
/// flat index, the ones past it, GREASE and an unassigned code.
std::vector<std::uint16_t> probe_types() {
  std::vector<std::uint16_t> types;
  for (std::uint16_t t = 0; t < 64; ++t) types.push_back(t);
  for (std::uint16_t t : {tls::ext::kApplicationSettings,
                          tls::ext::kApplicationSettingsNew,
                          tls::ext::kRenegotiationInfo, std::uint16_t{0x0a0a},
                          std::uint16_t{0xfe0d}, std::uint16_t{64},
                          std::uint16_t{0xffff}})
    types.push_back(t);
  return types;
}

template <typename A, typename B>
bool same_bytes(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

template <typename List>
bool same_list(bool ok_a, const List& a, bool ok_b, const List& b) {
  if (ok_a != ok_b || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// The first accessor on which `wire` and `ref` disagree, or "".
std::string compare(const reference::ClientHello& ref,
                    const WireClientHello& wire) {
  if (wire.legacy_version() != ref.legacy_version) return "legacy_version";
  if (!same_bytes(wire.random(), ref.random)) return "random";
  if (!same_bytes(wire.session_id(), ref.session_id)) return "session_id";
  const tls::BeU16Span suites = wire.cipher_suites();
  if (suites.size() != ref.cipher_suites.size()) return "cipher_suites size";
  std::size_t i = 0;
  for (const std::uint16_t s : suites) {
    if (s != ref.cipher_suites[i] || suites[i] != ref.cipher_suites[i])
      return "cipher_suites";
    ++i;
  }
  if (!same_bytes(wire.compression_methods(), ref.compression_methods))
    return "compression_methods";
  i = 0;
  for (const tls::ExtensionView e : wire.extensions()) {
    if (i >= ref.extensions.size() || e.type != ref.extensions[i].type ||
        !same_bytes(e.body, ref.extensions[i].body))
      return "extensions";
    ++i;
  }
  if (i != ref.extensions.size()) return "extension count";
  if (wire.extensions().empty() != ref.extensions.empty())
    return "extensions().empty()";
  for (const std::uint16_t type : probe_types()) {
    const auto body = wire.find(type);
    const reference::Extension* e = ref.find(type);
    if (body.has_value() != (e != nullptr) ||
        (body && !same_bytes(*body, e->body)))
      return "find(" + std::to_string(type) + ")";
    if (wire.has_extension(type) != ref.has_extension(type))
      return "has_extension(" + std::to_string(type) + ")";
  }
  if (wire.extensions_length() != ref.extensions_length())
    return "extensions_length";
  if (wire.handshake_body_length() != ref.handshake_body_length())
    return "handshake_body_length";
  if (wire.server_name_view() != ref.server_name_view())
    return "server_name_view";
  if (wire.record_size_limit() != ref.record_size_limit())
    return "record_size_limit";
  const auto tp = wire.quic_transport_parameters();
  const auto ref_tp = ref.quic_transport_parameters();
  if (tp.has_value() != ref_tp.has_value() ||
      (tp && !same_bytes(*tp, *ref_tp)))
    return "quic_transport_parameters";

  const auto u16 = [&](auto flat, auto old, const char* name) -> std::string {
    tls::U16View a, b;
    const bool ok_a = (wire.*flat)(a);
    const bool ok_b = (ref.*old)(b);
    return same_list(ok_a, a, ok_b, b) ? "" : name;
  };
  const auto u8 = [&](auto flat, auto old, const char* name) -> std::string {
    tls::U8View a, b;
    const bool ok_a = (wire.*flat)(a);
    const bool ok_b = (ref.*old)(b);
    return same_list(ok_a, a, ok_b, b) ? "" : name;
  };
  const auto names = [&](auto flat, auto old, const char* name) -> std::string {
    tls::NameView a, b;
    const bool ok_a = (wire.*flat)(a);
    const bool ok_b = (ref.*old)(b);
    return same_list(ok_a, a, ok_b, b) ? "" : name;
  };
  using W = WireClientHello;
  using R = reference::ClientHello;
  for (const std::string& m : {
           u16(&W::supported_groups_into, &R::supported_groups_into,
               "supported_groups_into"),
           u16(&W::signature_algorithms_into, &R::signature_algorithms_into,
               "signature_algorithms_into"),
           u16(&W::supported_versions_into, &R::supported_versions_into,
               "supported_versions_into"),
           u16(&W::compress_certificate_into, &R::compress_certificate_into,
               "compress_certificate_into"),
           u16(&W::delegated_credentials_into, &R::delegated_credentials_into,
               "delegated_credentials_into"),
           u16(&W::key_share_groups_into, &R::key_share_groups_into,
               "key_share_groups_into"),
           u8(&W::ec_point_formats_into, &R::ec_point_formats_into,
              "ec_point_formats_into"),
           u8(&W::psk_key_exchange_modes_into,
              &R::psk_key_exchange_modes_into, "psk_key_exchange_modes_into"),
           names(&W::alpn_protocols_into, &R::alpn_protocols_into,
                 "alpn_protocols_into"),
           names(&W::application_settings_into,
                 &R::application_settings_into, "application_settings_into"),
       })
    if (!m.empty()) return m;
  return "";
}

/// The structural wrapper's fields against the reference's.
std::string compare_structural(const reference::ClientHello& ref,
                               const tls::ClientHello& chlo) {
  if (chlo.legacy_version != ref.legacy_version ||
      chlo.random != ref.random || chlo.session_id != ref.session_id ||
      chlo.cipher_suites != ref.cipher_suites ||
      chlo.compression_methods != ref.compression_methods ||
      chlo.extensions.size() != ref.extensions.size())
    return "structural fields";
  for (std::size_t i = 0; i < ref.extensions.size(); ++i)
    if (chlo.extensions[i].type != ref.extensions[i].type ||
        chlo.extensions[i].body != ref.extensions[i].body)
      return "structural extensions";
  return "";
}

/// Every disagreement between the flat parse of `input` and the reference,
/// as one line ("" when they agree).
std::string check(ByteView input, bool record) {
  const auto ref = record ? reference::ClientHello::parse_record(input)
                          : reference::ClientHello::parse_handshake(input);
  WireClientHello wire;
  const bool accepted =
      record ? wire.parse_record(input) : wire.parse_handshake(input);
  const auto structural = record ? tls::ClientHello::parse_record(input)
                                 : tls::ClientHello::parse_handshake(input);
  if (accepted != ref.has_value()) return "acceptance";
  if (structural.has_value() != accepted) return "structural acceptance";
  if (!accepted) return wire.empty() ? "" : "rejected parse left state";
  std::string m = compare(*ref, wire);
  if (m.empty()) m = compare_structural(*ref, *structural);
  // A copy carries its own buffer: views taken from it must still agree.
  if (m.empty()) {
    const WireClientHello copy = wire;
    m = compare(*ref, copy);
  }
  return m;
}

/// Runs check() over `inputs`, reporting at most a few failures.
void expect_agreement(const std::vector<Bytes>& inputs, bool record,
                      std::size_t* accepted = nullptr) {
  int failures = 0;
  for (const Bytes& input : inputs) {
    const std::string m = check(input, record);
    if (!m.empty()) {
      ADD_FAILURE() << (record ? "record " : "handshake ") << m << " on "
                    << to_hex(input);
      if (++failures >= 5) return;
    }
    if (accepted) {
      WireClientHello wire;
      *accepted += record ? wire.parse_record(input)
                          : wire.parse_handshake(input);
    }
  }
}

std::vector<Bytes> with_truncations(const std::vector<Bytes>& inputs) {
  std::vector<Bytes> out;
  for (const Bytes& input : inputs)
    for (std::size_t n = 0; n <= input.size(); ++n)
      out.emplace_back(input.begin(),
                       input.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

const std::vector<fuzz::SeedCase>& corpus() {
  static const std::vector<fuzz::SeedCase> seeds = fuzz::build_corpus(17);
  return seeds;
}

/// TLS records (client TCP payloads) and reassembled CRYPTO streams of the
/// golden pcaps.
struct GoldenHellos {
  std::vector<Bytes> records;
  std::vector<Bytes> handshakes;
};

GoldenHellos golden_hellos() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VPSCOPE_GOLDEN_DIR))
    if (entry.path().extension() == ".pcap") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  GoldenHellos out;
  for (const auto& file : files) {
    const auto packets = net::read_pcap_file(file.string());
    if (!packets) continue;
    quic::CryptoReassembler crypto;
    for (const auto& p : *packets) {
      const auto d = net::decode(p);
      if (!d || d->payload.empty()) continue;
      if (d->tcp) {
        out.records.emplace_back(d->payload.begin(), d->payload.end());
      } else if (const auto initial =
                     quic::unprotect_client_initial(d->payload)) {
        crypto.add(*initial);
        out.handshakes.push_back(crypto.contiguous_prefix());
      }
    }
  }
  return out;
}

TEST(ClientHelloOracle, SeedCorpusAndEveryTruncationAgree) {
  std::vector<Bytes> records, handshakes;
  for (const auto& seed : corpus()) {
    records.push_back(seed.record);
    handshakes.push_back(seed.handshake);
  }
  std::size_t accepted = 0;
  expect_agreement(records, true, &accepted);
  expect_agreement(handshakes, false, &accepted);
  EXPECT_EQ(accepted, 2 * corpus().size());
  expect_agreement(with_truncations(records), true);
  expect_agreement(with_truncations(handshakes), false);
}

TEST(ClientHelloOracle, GoldenPcapHandshakesAndTruncationsAgree) {
  const GoldenHellos golden = golden_hellos();
  std::size_t accepted = 0;
  expect_agreement(golden.records, true, &accepted);
  expect_agreement(golden.handshakes, false, &accepted);
  // Every golden flow carries one ClientHello (TCP) or completes one
  // (QUIC).
  EXPECT_GE(accepted, 10u);
  expect_agreement(with_truncations(golden.records), true);
  expect_agreement(with_truncations(golden.handshakes), false);
}

TEST(ClientHelloOracle, MutantsAgreeInRecordAndHandshakeForm) {
  fuzz::Mutator mutator(0xc10e);
  std::vector<Bytes> records, handshakes;
  records.reserve(kMutantsPerForm);
  handshakes.reserve(kMutantsPerForm);
  for (int i = 0; i < kMutantsPerForm; ++i) {
    const auto& seed = corpus()[static_cast<std::size_t>(i) % corpus().size()];
    records.push_back(mutator.mutate_record(seed));
    handshakes.push_back(mutator.mutate_handshake(seed));
  }
  std::size_t accepted = 0;
  expect_agreement(records, true, &accepted);
  expect_agreement(handshakes, false, &accepted);
  // Both sides of the oracle must be exercised.
  EXPECT_GT(accepted, std::size_t{kMutantsPerForm} / 10);
  EXPECT_LT(accepted, 2 * std::size_t{kMutantsPerForm});
}

// ---- pinned cases --------------------------------------------------------

/// A handshake body: version, random, session id, suites, compression, then
/// `tail` (an extensions block, or nothing).
Bytes hello(ByteView tail, std::vector<std::uint16_t> suites = {0x1301}) {
  Writer body;
  body.u16(tls::kVersion12);
  for (int i = 0; i < 32; ++i) body.u8(static_cast<std::uint8_t>(i));
  body.u8(0);
  body.u16(static_cast<std::uint16_t>(suites.size() * 2));
  for (auto s : suites) body.u16(s);
  body.u8(1);
  body.u8(0);
  body.raw(tail);
  Writer msg;
  msg.u8(1);
  msg.u24(static_cast<std::uint32_t>(body.size()));
  msg.raw(body.data());
  return std::move(msg).take();
}

/// An extensions block holding `entries` (type, body) in order.
Bytes block(const std::vector<std::pair<std::uint16_t, Bytes>>& entries) {
  Writer inner;
  for (const auto& [type, body] : entries) {
    inner.u16(type);
    inner.u16(static_cast<std::uint16_t>(body.size()));
    inner.raw(body);
  }
  Writer w;
  w.u16(static_cast<std::uint16_t>(inner.size()));
  w.raw(inner.data());
  return std::move(w).take();
}

Bytes u16_list(std::size_t n) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(n * 2));
  for (std::size_t i = 0; i < n; ++i) w.u16(static_cast<std::uint16_t>(i + 1));
  return std::move(w).take();
}

TEST(ClientHelloPinned, NoExtensionsBlockReportsTheSerializedLength) {
  const Bytes wire_bytes = hello({});
  EXPECT_EQ(check(wire_bytes, false), "");
  WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(wire_bytes));
  EXPECT_TRUE(wire.extensions().empty());
  EXPECT_EQ(wire.extensions_length(), 0u);
  // Attribute m1 reads the length the hello re-serializes to, which writes
  // an empty extensions block: the message length plus 2.
  EXPECT_EQ(wire.handshake_body_length(), wire_bytes.size() - 4 + 2);
  // An empty block, by contrast, is counted as it stands.
  WireClientHello empty_block;
  ASSERT_TRUE(empty_block.parse_handshake(hello(block({}))));
  EXPECT_TRUE(empty_block.extensions().empty());
  EXPECT_EQ(empty_block.handshake_body_length(),
            hello(block({})).size() - 4);
}

TEST(ClientHelloPinned, DuplicateExtensionTypesFirstOneWins) {
  const Bytes alpn_a = from_hex("0003026832");            // ["h2"]
  const Bytes alpn_b = from_hex("000908687474702f312e31");  // ["http/1.1"]
  const Bytes wire_bytes = hello(block({
      {tls::ext::kSupportedGroups, u16_list(2)},
      {tls::ext::kSupportedGroups, u16_list(5)},
      {tls::ext::kApplicationSettings, alpn_a},
      {tls::ext::kApplicationSettings, alpn_b},
      {tls::ext::kRenegotiationInfo, Bytes{0}},
      {tls::ext::kRenegotiationInfo, Bytes{}},
  }));
  EXPECT_EQ(check(wire_bytes, false), "");
  WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(wire_bytes));
  tls::U16View groups;
  ASSERT_TRUE(wire.supported_groups_into(groups));
  EXPECT_EQ(groups.size(), 2u);
  tls::NameView settings;
  ASSERT_TRUE(wire.application_settings_into(settings));
  ASSERT_EQ(settings.size(), 1u);
  EXPECT_EQ(settings[0], "h2");
  EXPECT_EQ(wire.find(tls::ext::kRenegotiationInfo)->size(), 1u);
  // Both duplicates still count toward o1 and the extensions length.
  std::vector<std::uint16_t> types;
  for (const tls::ExtensionView e : wire.extensions()) types.push_back(e.type);
  EXPECT_EQ(types.size(), 6u);
}

TEST(ClientHelloPinned, EmptyBodiesAndEmptyLists) {
  // Every decodable extension with an empty body: present, but malformed
  // for every decoder that needs a length prefix.
  std::vector<std::pair<std::uint16_t, Bytes>> entries;
  for (std::uint16_t t :
       {tls::ext::kServerName, tls::ext::kSupportedGroups,
        tls::ext::kEcPointFormats, tls::ext::kSignatureAlgorithms,
        tls::ext::kAlpn, tls::ext::kRecordSizeLimit,
        tls::ext::kSupportedVersions, tls::ext::kPskKeyExchangeModes,
        tls::ext::kKeyShare, tls::ext::kCompressCertificate,
        tls::ext::kDelegatedCredentials, tls::ext::kApplicationSettings,
        tls::ext::kQuicTransportParameters, tls::ext::kStatusRequest})
    entries.emplace_back(t, Bytes{});
  const Bytes empty_bodies = hello(block(entries), {});
  EXPECT_EQ(check(empty_bodies, false), "");
  WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(empty_bodies));
  EXPECT_TRUE(wire.cipher_suites().empty());
  EXPECT_TRUE(wire.has_extension(tls::ext::kServerName));
  EXPECT_FALSE(wire.server_name_view().has_value());
  EXPECT_FALSE(wire.record_size_limit().has_value());
  EXPECT_EQ(wire.quic_transport_parameters()->size(), 0u);
  tls::U16View groups;
  EXPECT_FALSE(wire.supported_groups_into(groups));
  // Present lists of zero items decode to nothing, successfully.
  const Bytes empty_lists = hello(block({
      {tls::ext::kSupportedGroups, from_hex("0000")},
      {tls::ext::kAlpn, from_hex("0000")},
      {tls::ext::kEcPointFormats, from_hex("00")},
  }));
  EXPECT_EQ(check(empty_lists, false), "");
  ASSERT_TRUE(wire.parse_handshake(empty_lists));
  tls::NameView alpn;
  EXPECT_TRUE(wire.alpn_protocols_into(alpn));
  EXPECT_EQ(alpn.size(), 0u);
  EXPECT_TRUE(wire.supported_groups_into(groups));
  EXPECT_EQ(groups.size(), 0u);
}

TEST(ClientHelloPinned, ListsLongerThanTheFixedCapacityTruncate) {
  Writer names;
  for (int i = 0; i < 20; ++i) {
    names.u8(2);
    names.u8('p');
    names.u8(static_cast<std::uint8_t>('a' + i));
  }
  Writer alpn;
  alpn.u16(static_cast<std::uint16_t>(names.size()));
  alpn.raw(names.data());
  Writer formats;
  formats.u8(20);
  for (int i = 0; i < 20; ++i) formats.u8(static_cast<std::uint8_t>(i));
  std::vector<std::uint16_t> suites(40);
  for (std::size_t i = 0; i < suites.size(); ++i)
    suites[i] = static_cast<std::uint16_t>(0x1300 + i);
  const Bytes wire_bytes = hello(block({
                                     {tls::ext::kSupportedGroups, u16_list(40)},
                                     {tls::ext::kAlpn, alpn.data()},
                                     {tls::ext::kEcPointFormats, formats.data()},
                                 }),
                                 suites);
  EXPECT_EQ(check(wire_bytes, false), "");
  WireClientHello wire;
  ASSERT_TRUE(wire.parse_handshake(wire_bytes));
  tls::U16View groups;
  ASSERT_TRUE(wire.supported_groups_into(groups));
  EXPECT_EQ(groups.size(), 32u);
  EXPECT_EQ(groups[31], 32u);
  tls::NameView protocols;
  ASSERT_TRUE(wire.alpn_protocols_into(protocols));
  EXPECT_EQ(protocols.size(), 16u);
  tls::U8View point_formats;
  ASSERT_TRUE(wire.ec_point_formats_into(point_formats));
  EXPECT_EQ(point_formats.size(), 16u);
  // Cipher suites are read in place, every one of them.
  EXPECT_EQ(wire.cipher_suites().size(), 40u);
  // The allocating decoders keep every item.
  EXPECT_EQ(tls::ClientHello::from_wire(wire).supported_groups()->size(), 40u);
}

TEST(ClientHelloPinned, BytesAfterTheRecordAreIgnored) {
  const Bytes handshake = hello(block({{tls::ext::kServerName,
                                        from_hex("000600000361626364")}}));
  Writer record;
  record.u8(22);
  record.u16(tls::kVersion10);
  record.u16(static_cast<std::uint16_t>(handshake.size()));
  record.raw(handshake);
  Bytes trailing = std::move(record).take();
  const std::size_t record_size = trailing.size();
  trailing.insert(trailing.end(), {0x17, 0x03, 0x03, 0x00, 0x05});
  EXPECT_EQ(check(trailing, true), "");
  WireClientHello with_tail, exact;
  ASSERT_TRUE(with_tail.parse_record(trailing));
  ASSERT_TRUE(exact.parse_record(ByteView(trailing).first(record_size)));
  EXPECT_EQ(tls::ClientHello::from_wire(with_tail),
            tls::ClientHello::from_wire(exact));
  EXPECT_EQ(with_tail.server_name_view(), "abc");
  // Bytes after the handshake message inside the record are ignored too.
  Bytes padded = handshake;
  padded.push_back(0xee);
  EXPECT_EQ(check(padded, false), "");
  ASSERT_TRUE(exact.parse_handshake(padded));
  EXPECT_EQ(exact.handshake_body_length(), handshake.size() - 4);
}

TEST(ClientHelloPinned, EntryOverrunningTheBlockIsRejected) {
  // The block's length covers every remaining byte, but its last entry
  // declares one body byte more than the block holds.
  Bytes wire_bytes = hello(block({{tls::ext::kEncryptThenMac, Bytes{}},
                                  {tls::ext::kSupportedGroups, u16_list(2)}}));
  const std::size_t length_at = wire_bytes.size() - 6 - 2;
  ASSERT_EQ(wire_bytes[length_at + 1], 6);
  wire_bytes[length_at + 1] = 7;
  EXPECT_EQ(check(wire_bytes, false), "");
  WireClientHello wire;
  EXPECT_FALSE(wire.parse_handshake(wire_bytes));
}

TEST(ClientHelloPinned, RejectedParseLeavesTheHelloEmpty) {
  WireClientHello wire;
  ASSERT_TRUE(wire.parse_record(corpus().front().record));
  EXPECT_FALSE(wire.empty());
  EXPECT_FALSE(wire.parse_record(from_hex("1603010005")));
  EXPECT_TRUE(wire.empty());
  EXPECT_EQ(wire.legacy_version(), 0u);
  EXPECT_TRUE(wire.random().empty());
  EXPECT_TRUE(wire.cipher_suites().empty());
  EXPECT_TRUE(wire.extensions().empty());
  EXPECT_FALSE(wire.find(tls::ext::kServerName).has_value());
  EXPECT_EQ(wire.handshake_body_length(), 0u);
}

}  // namespace
}  // namespace vpscope
