// The ClientHello parser as it stood before the flat rewrite, kept as the
// reference the ClientHello oracle compares tls::WireClientHello against:
// the structural parse_handshake/parse_record and every read accessor the
// attribute path used (lookup, lengths, the SNI view, record_size_limit,
// quic_transport_parameters and the ten *_into decoders), copied with only
// their types renamed into this namespace.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "tls/client_hello.hpp"
#include "tls/constants.hpp"
#include "util/bytes.hpp"

namespace vpscope::reference {

using tls::NameView;
using tls::U16View;
using tls::U8View;
namespace ext = tls::ext;

struct Extension {
  std::uint16_t type = 0;
  Bytes body;
};

struct ClientHello {
  std::uint16_t legacy_version = tls::kVersion12;
  std::array<std::uint8_t, 32> random{};
  Bytes session_id;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<std::uint8_t> compression_methods{0};
  std::vector<Extension> extensions;  // on-wire order preserved

  bool has_extension(std::uint16_t type) const { return find(type) != nullptr; }

  const Extension* find(std::uint16_t type) const {
    for (const auto& e : extensions)
      if (e.type == type) return &e;
    return nullptr;
  }

  std::size_t extensions_length() const {
    std::size_t total = 0;
    for (const auto& e : extensions) total += 4 + e.body.size();
    return total;
  }

  std::size_t handshake_body_length() const {
    // version(2) + random(32) + session_id(1+n) + suites(2+2n) +
    // compression(1+n) + extensions(2 + total)
    return 2 + 32 + 1 + session_id.size() + 2 + cipher_suites.size() * 2 + 1 +
           compression_methods.size() + 2 + extensions_length();
  }

  std::optional<std::uint16_t> record_size_limit() const {
    const Extension* e = find(ext::kRecordSizeLimit);
    if (!e || e->body.size() != 2) return std::nullopt;
    return static_cast<std::uint16_t>(e->body[0] << 8 | e->body[1]);
  }

  std::optional<ByteView> quic_transport_parameters() const {
    const Extension* e = find(ext::kQuicTransportParameters);
    if (!e) return std::nullopt;
    return ByteView{e->body};
  }

  std::optional<std::string_view> server_name_view() const {
    const Extension* e = find(ext::kServerName);
    if (!e) return std::nullopt;
    Reader outer(e->body);
    const std::uint16_t list_len = outer.u16();
    if (!outer.ok() || outer.remaining() < list_len) return std::nullopt;
    Reader r(outer.view(list_len));  // see server_name()
    const std::uint8_t name_type = r.u8();
    if (name_type != 0) return std::nullopt;  // host_name
    const std::uint16_t name_len = r.u16();
    const ByteView name = r.view(name_len);
    if (!r.ok()) return std::nullopt;
    return std::string_view(reinterpret_cast<const char*>(name.data()),
                            name.size());
  }

  static bool u16_list_into(ByteView body, U16View& out) {
    Reader r(body);
    const std::uint16_t len = r.u16();
    if (!r.ok() || len % 2 != 0 || r.remaining() < len) return false;
    for (int i = 0; i < len / 2; ++i) out.push(r.u16());
    return r.ok();
  }

  static bool u8_prefixed_u16_list_into(ByteView body, U16View& out) {
    Reader r(body);
    const std::uint8_t len = r.u8();
    if (!r.ok() || len % 2 != 0 || r.remaining() < len) return false;
    for (int i = 0; i < len / 2; ++i) out.push(r.u16());
    return r.ok();
  }

  static bool u8_list_into(ByteView body, U8View& out) {
    Reader r(body);
    const std::uint8_t len = r.u8();
    if (!r.ok() || r.remaining() < len) return false;
    for (int i = 0; i < len; ++i) out.push(r.u8());
    return r.ok();
  }

  static bool alpn_into(ByteView body, NameView& out) {
    Reader outer(body);
    const std::uint16_t list_len = outer.u16();
    if (!outer.ok() || outer.remaining() < list_len) return false;
    Reader r(outer.view(list_len));  // see parse_alpn_body
    while (!r.empty()) {
      const std::uint8_t plen = r.u8();
      const ByteView name = r.view(plen);
      if (!r.ok()) return false;
      out.push(std::string_view(reinterpret_cast<const char*>(name.data()),
                                name.size()));
    }
    return true;
  }

  bool supported_groups_into(U16View& out) const {
    const Extension* e = find(ext::kSupportedGroups);
    return e && u16_list_into(e->body, out);
  }

  bool signature_algorithms_into(U16View& out) const {
    const Extension* e = find(ext::kSignatureAlgorithms);
    return e && u16_list_into(e->body, out);
  }

  bool supported_versions_into(U16View& out) const {
    const Extension* e = find(ext::kSupportedVersions);
    return e && u8_prefixed_u16_list_into(e->body, out);
  }

  bool compress_certificate_into(U16View& out) const {
    const Extension* e = find(ext::kCompressCertificate);
    return e && u8_prefixed_u16_list_into(e->body, out);
  }

  bool delegated_credentials_into(U16View& out) const {
    const Extension* e = find(ext::kDelegatedCredentials);
    return e && u16_list_into(e->body, out);
  }

  bool key_share_groups_into(U16View& out) const {
    const Extension* e = find(ext::kKeyShare);
    if (!e) return false;
    Reader outer(e->body);
    const std::uint16_t list_len = outer.u16();
    if (!outer.ok() || outer.remaining() < list_len) return false;
    Reader r(outer.view(list_len));  // see key_share_groups()
    while (!r.empty()) {
      const std::uint16_t grp = r.u16();
      const std::uint16_t klen = r.u16();
      r.skip(klen);
      if (!r.ok()) return false;
      out.push(grp);
    }
    return true;
  }

  bool ec_point_formats_into(U8View& out) const {
    const Extension* e = find(ext::kEcPointFormats);
    return e && u8_list_into(e->body, out);
  }

  bool psk_key_exchange_modes_into(U8View& out) const {
    const Extension* e = find(ext::kPskKeyExchangeModes);
    return e && u8_list_into(e->body, out);
  }

  bool alpn_protocols_into(NameView& out) const {
    const Extension* e = find(ext::kAlpn);
    return e && alpn_into(e->body, out);
  }

  bool application_settings_into(NameView& out) const {
    const Extension* e = find(ext::kApplicationSettings);
    if (!e) e = find(ext::kApplicationSettingsNew);
    return e && alpn_into(e->body, out);
  }

  static std::optional<ClientHello> parse_handshake(ByteView data) {
    Reader outer(data);
    const std::uint8_t msg_type = outer.u8();
    const std::uint32_t msg_len = outer.u24();
    if (!outer.ok() || msg_type != 1 || outer.remaining() < msg_len)
      return std::nullopt;
    // Confine all reads to the declared body. Callers legitimately pass
    // trailing bytes (a reassembled CRYPTO stream prefix, an accumulated TCP
    // stream), and those must never be parsed as ClientHello content.
    Reader r(outer.view(msg_len));

    ClientHello chlo;
    chlo.legacy_version = r.u16();
    const Bytes random_bytes = r.bytes(32);
    if (!r.ok()) return std::nullopt;
    std::copy(random_bytes.begin(), random_bytes.end(), chlo.random.begin());

    const std::uint8_t sid_len = r.u8();
    chlo.session_id = r.bytes(sid_len);

    const std::uint16_t suites_len = r.u16();
    if (!r.ok() || suites_len % 2 != 0) return std::nullopt;
    chlo.cipher_suites.clear();
    for (int i = 0; i < suites_len / 2; ++i)
      chlo.cipher_suites.push_back(r.u16());

    const std::uint8_t comp_len = r.u8();
    const Bytes comp = r.bytes(comp_len);
    if (!r.ok()) return std::nullopt;
    chlo.compression_methods.assign(comp.begin(), comp.end());

    if (r.empty()) return chlo;  // extensions are technically optional

    // The extensions block is the last field of the body: its declared
    // length must account for every remaining byte, and entries must consume
    // it exactly (no extension may straddle the end of the message).
    const std::uint16_t ext_total = r.u16();
    if (!r.ok() || r.remaining() != ext_total) return std::nullopt;
    while (!r.empty()) {
      Extension e;
      e.type = r.u16();
      const std::uint16_t body_len = r.u16();
      e.body = r.bytes(body_len);
      if (!r.ok()) return std::nullopt;
      chlo.extensions.push_back(std::move(e));
    }
    return chlo;
  }

  static std::optional<ClientHello> parse_record(ByteView data) {
    Reader r(data);
    const std::uint8_t content_type = r.u8();
    r.u16();  // legacy record version, don't care
    const std::uint16_t len = r.u16();
    if (!r.ok() || content_type != 22 || r.remaining() < len)
      return std::nullopt;
    return parse_handshake(r.view(len));
  }
};

}  // namespace vpscope::reference
