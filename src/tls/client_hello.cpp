#include "tls/client_hello.hpp"

#include <algorithm>

#include "crypto/md5.hpp"

namespace vpscope::tls {

namespace {

constexpr std::uint8_t kHandshakeTypeClientHello = 1;
constexpr std::uint8_t kContentTypeHandshake = 22;

/// Serializes a vector of u16 values behind a u16 length prefix —
/// the encoding shared by supported_groups, sigalgs, etc.
Bytes u16_list_body(const std::vector<std::uint16_t>& values) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(values.size() * 2));
  for (auto v : values) w.u16(v);
  return std::move(w).take();
}

Bytes alpn_body(const std::vector<std::string>& protocols) {
  Writer inner;
  for (const auto& p : protocols) {
    inner.u8(static_cast<std::uint8_t>(p.size()));
    inner.raw(ByteView{reinterpret_cast<const std::uint8_t*>(p.data()),
                       p.size()});
  }
  Writer w;
  w.u16(static_cast<std::uint16_t>(inner.size()));
  w.raw(inner.data());
  return std::move(w).take();
}

std::size_t key_share_len_for_group(std::uint16_t grp) {
  switch (grp) {
    case group::kX25519:
      return 32;
    case group::kSecp256r1:
      return 65;
    case group::kSecp384r1:
      return 97;
    case group::kSecp521r1:
      return 133;
    case group::kX25519Kyber768:
      return 1216;
    default:
      return is_grease(grp) ? 1 : 32;
  }
}

/// Sum of serialized extension bytes (the extensions_length field value).
std::size_t extensions_length(const ClientHello& c) {
  std::size_t total = 0;
  for (const auto& e : c.extensions) total += 4 + e.body.size();
  return total;
}

/// Length of the serialized handshake body (the Handshake.length value).
std::size_t body_length(const ClientHello& c) {
  // version(2) + random(32) + session_id(1+n) + suites(2+2n) +
  // compression(1+n) + extensions(2 + total)
  return 2 + 32 + 1 + c.session_id.size() + 2 + c.cipher_suites.size() * 2 +
         1 + c.compression_methods.size() + 2 + extensions_length(c);
}

std::uint16_t be16(ByteView b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] << 8 | b[at + 1]);
}

// ---- extension body walkers ----
// Each walks one extension body, hands every item to `push` and returns
// false when the body is malformed. WireClientHello's *_into decoders push
// into fixed storage, ClientHello's allocating decoders into vectors, so
// both forms accept and reject exactly the same bodies.

/// u16-length-prefixed list of u16 values (supported_groups, sigalgs,
/// delegated_credentials).
constexpr auto walk_u16_list = [](ByteView body, auto&& push) {
  Reader r(body);
  const std::uint16_t len = r.u16();
  if (!r.ok() || len % 2 != 0 || r.remaining() < len) return false;
  for (int i = 0; i < len / 2; ++i) push(r.u16());
  return r.ok();
};

/// u8-length-prefixed list of u16 values (supported_versions,
/// compress_certificate).
constexpr auto walk_u8_prefixed_u16_list = [](ByteView body, auto&& push) {
  Reader r(body);
  const std::uint8_t len = r.u8();
  if (!r.ok() || len % 2 != 0 || r.remaining() < len) return false;
  for (int i = 0; i < len / 2; ++i) push(r.u16());
  return r.ok();
};

/// u8-length-prefixed list of u8 values (ec_point_formats, psk modes).
constexpr auto walk_u8_list = [](ByteView body, auto&& push) {
  Reader r(body);
  const std::uint8_t len = r.u8();
  if (!r.ok() || r.remaining() < len) return false;
  for (int i = 0; i < len; ++i) push(r.u8());
  return r.ok();
};

/// u16-length-prefixed list of u8-length-prefixed names (ALPN, ALPS); the
/// names point into `body`.
constexpr auto walk_names = [](ByteView body, auto&& push) {
  Reader outer(body);
  const std::uint16_t list_len = outer.u16();
  if (!outer.ok() || outer.remaining() < list_len) return false;
  // Confine to the declared list region: an entry whose length would
  // straddle the list boundary must fail instead of consuming sibling bytes.
  Reader r(outer.view(list_len));
  while (!r.empty()) {
    const std::uint8_t plen = r.u8();
    const ByteView name = r.view(plen);
    if (!r.ok()) return false;
    push(std::string_view(reinterpret_cast<const char*>(name.data()),
                          name.size()));
  }
  return true;
};

/// key_share client_shares: the group of each entry, in order.
constexpr auto walk_key_share_groups = [](ByteView body, auto&& push) {
  Reader outer(body);
  const std::uint16_t list_len = outer.u16();
  if (!outer.ok() || outer.remaining() < list_len) return false;
  Reader r(outer.view(list_len));  // entries must not straddle the boundary
  while (!r.empty()) {
    const std::uint16_t grp = r.u16();
    const std::uint16_t klen = r.u16();
    r.skip(klen);
    if (!r.ok()) return false;
    push(grp);
  }
  return true;
};

/// server_name: the host_name entry heading the server-name list.
std::optional<std::string_view> host_name(ByteView body) {
  Reader outer(body);
  const std::uint16_t list_len = outer.u16();
  if (!outer.ok() || outer.remaining() < list_len) return std::nullopt;
  Reader r(outer.view(list_len));  // the name must fit inside the list
  const std::uint8_t name_type = r.u8();
  if (name_type != 0) return std::nullopt;  // host_name
  const std::uint16_t name_len = r.u16();
  const ByteView name = r.view(name_len);
  if (!r.ok()) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(name.data()),
                          name.size());
}

/// A walker's items collected into a vector (the allocating decoders).
template <typename T, typename Walk>
std::optional<std::vector<T>> collect(const Extension* e, Walk walk) {
  if (!e) return std::nullopt;
  std::vector<T> out;
  if (!walk(ByteView(e->body), [&](auto item) { out.emplace_back(item); }))
    return std::nullopt;
  return out;
}

/// A walker's items pushed into fixed storage (the *_into decoders).
template <typename List, typename Walk>
bool into(const std::optional<ByteView>& body, Walk walk, List& out) {
  return body && walk(*body, [&](auto item) { out.push(item); });
}

}  // namespace

// ---- ClientHello: structural helpers and allocating decoders ----

const Extension* ClientHello::find(std::uint16_t type) const {
  for (const auto& e : extensions)
    if (e.type == type) return &e;
  return nullptr;
}

Extension* ClientHello::find(std::uint16_t type) {
  for (auto& e : extensions)
    if (e.type == type) return &e;
  return nullptr;
}

std::vector<std::uint16_t> ClientHello::extension_types() const {
  std::vector<std::uint16_t> out;
  out.reserve(extensions.size());
  for (const auto& e : extensions) out.push_back(e.type);
  return out;
}

std::optional<std::string> ClientHello::server_name() const {
  const Extension* e = find(ext::kServerName);
  if (!e) return std::nullopt;
  const auto name = host_name(e->body);
  if (!name) return std::nullopt;
  return std::string(*name);
}

std::optional<std::vector<std::uint16_t>> ClientHello::supported_groups()
    const {
  return collect<std::uint16_t>(find(ext::kSupportedGroups), walk_u16_list);
}

std::optional<std::vector<std::uint8_t>> ClientHello::ec_point_formats()
    const {
  return collect<std::uint8_t>(find(ext::kEcPointFormats), walk_u8_list);
}

std::optional<std::vector<std::uint16_t>> ClientHello::signature_algorithms()
    const {
  return collect<std::uint16_t>(find(ext::kSignatureAlgorithms),
                                walk_u16_list);
}

std::optional<std::vector<std::string>> ClientHello::alpn_protocols() const {
  return collect<std::string>(find(ext::kAlpn), walk_names);
}

std::optional<std::vector<std::uint16_t>> ClientHello::supported_versions()
    const {
  return collect<std::uint16_t>(find(ext::kSupportedVersions),
                                walk_u8_prefixed_u16_list);
}

std::optional<std::vector<std::uint8_t>> ClientHello::psk_key_exchange_modes()
    const {
  return collect<std::uint8_t>(find(ext::kPskKeyExchangeModes), walk_u8_list);
}

std::optional<std::vector<std::uint16_t>> ClientHello::key_share_groups()
    const {
  return collect<std::uint16_t>(find(ext::kKeyShare), walk_key_share_groups);
}

std::optional<std::vector<std::uint16_t>> ClientHello::compress_certificate()
    const {
  return collect<std::uint16_t>(find(ext::kCompressCertificate),
                                walk_u8_prefixed_u16_list);
}

std::optional<std::vector<std::uint16_t>> ClientHello::delegated_credentials()
    const {
  return collect<std::uint16_t>(find(ext::kDelegatedCredentials),
                                walk_u16_list);
}

std::optional<std::vector<std::string>> ClientHello::application_settings()
    const {
  const Extension* e = find(ext::kApplicationSettings);
  if (!e) e = find(ext::kApplicationSettingsNew);
  return collect<std::string>(e, walk_names);
}

// ---- WireClientHello: the parser and the in-place decoders ----

std::optional<ByteView> WireClientHello::parse_fields(ByteView data) {
  *this = WireClientHello();
  Reader outer(data);
  const std::uint8_t msg_type = outer.u8();
  const std::uint32_t msg_len = outer.u24();
  if (!outer.ok() || msg_type != kHandshakeTypeClientHello ||
      outer.remaining() < msg_len)
    return std::nullopt;
  // Confine all reads to the declared body. Callers legitimately pass
  // trailing bytes (a reassembled CRYPTO stream prefix, an accumulated TCP
  // stream), and those must never be parsed as ClientHello content.
  const ByteView body = outer.view(msg_len);
  Reader r(body);

  const std::uint16_t version = r.u16();
  r.skip(32);  // random
  if (!r.ok()) return std::nullopt;
  const std::uint8_t sid_len = r.u8();
  r.skip(sid_len);
  const std::uint16_t suites_len = r.u16();
  if (!r.ok() || suites_len % 2 != 0) return std::nullopt;
  const std::size_t suites_at = r.offset();
  r.skip(suites_len);
  const std::uint8_t comp_len = r.u8();
  const std::size_t comp_at = r.offset();
  r.skip(comp_len);
  if (!r.ok()) return std::nullopt;

  // Extensions are technically optional.
  const bool has_ext_block = !r.empty();
  std::uint16_t ext_len = 0;
  std::array<std::uint16_t, kIndexedTypes> first_entry{};
  if (has_ext_block) {
    // The extensions block is the last field of the body: its declared
    // length must account for every remaining byte, and entries must
    // consume it exactly (no extension may straddle the end of the message).
    ext_len = r.u16();
    if (!r.ok() || r.remaining() != ext_len) return std::nullopt;
    const ByteView block = body.subspan(r.offset());
    for (std::size_t at = 0; at < block.size();) {
      if (block.size() - at < 4) return std::nullopt;
      const std::uint16_t type = be16(block, at);
      if (type < kIndexedTypes && first_entry[type] == 0)
        first_entry[type] = static_cast<std::uint16_t>(at + 1);
      at += 4 + std::size_t{be16(block, at + 2)};
      if (at > block.size()) return std::nullopt;
    }
  }

  legacy_version_ = version;
  session_id_len_ = sid_len;
  suites_at_ = static_cast<std::uint32_t>(suites_at);
  suites_len_ = suites_len;
  comp_at_ = static_cast<std::uint32_t>(comp_at);
  comp_len_ = comp_len;
  ext_at_ = static_cast<std::uint32_t>(r.offset());
  ext_len_ = ext_len;
  has_ext_block_ = has_ext_block;
  first_entry_ = first_entry;
  return body;
}

bool WireClientHello::parse_handshake(ByteView data) {
  const std::optional<ByteView> body = parse_fields(data);
  if (!body) return false;
  body_.assign(body->begin(), body->end());
  return true;
}

bool WireClientHello::parse_handshake(Bytes& buffer, std::size_t size) {
  const std::optional<ByteView> body =
      parse_fields(ByteView(buffer).first(size));
  if (!body) return false;
  const auto header = body->data() - buffer.data();
  const std::size_t length = body->size();
  body_ = std::move(buffer);
  body_.erase(body_.begin(), body_.begin() + header);
  body_.resize(length);
  return true;
}

bool WireClientHello::parse_record(ByteView data) {
  Reader r(data);
  const std::uint8_t content_type = r.u8();
  r.u16();  // legacy record version, don't care
  const std::uint16_t len = r.u16();
  if (!r.ok() || content_type != kContentTypeHandshake || r.remaining() < len) {
    *this = WireClientHello();
    return false;
  }
  return parse_handshake(r.view(len));
}

std::optional<ByteView> WireClientHello::find(std::uint16_t type) const {
  if (type < kIndexedTypes) {
    if (first_entry_[type] == 0) return std::nullopt;
    const ByteView block = field(ext_at_, ext_len_);
    const std::size_t at = first_entry_[type] - 1u;
    return block.subspan(at + 4, be16(block, at + 2));
  }
  for (const ExtensionView e : extensions())
    if (e.type == type) return e.body;
  return std::nullopt;
}

std::optional<std::string_view> WireClientHello::server_name_view() const {
  const auto body = find(ext::kServerName);
  return body ? host_name(*body) : std::nullopt;
}

std::optional<std::uint16_t> WireClientHello::record_size_limit() const {
  const auto body = find(ext::kRecordSizeLimit);
  if (!body || body->size() != 2) return std::nullopt;
  return be16(*body, 0);
}

std::optional<ByteView> WireClientHello::quic_transport_parameters() const {
  return find(ext::kQuicTransportParameters);
}

bool WireClientHello::supported_groups_into(U16View& out) const {
  return into(find(ext::kSupportedGroups), walk_u16_list, out);
}

bool WireClientHello::signature_algorithms_into(U16View& out) const {
  return into(find(ext::kSignatureAlgorithms), walk_u16_list, out);
}

bool WireClientHello::supported_versions_into(U16View& out) const {
  return into(find(ext::kSupportedVersions), walk_u8_prefixed_u16_list, out);
}

bool WireClientHello::compress_certificate_into(U16View& out) const {
  return into(find(ext::kCompressCertificate), walk_u8_prefixed_u16_list,
              out);
}

bool WireClientHello::delegated_credentials_into(U16View& out) const {
  return into(find(ext::kDelegatedCredentials), walk_u16_list, out);
}

bool WireClientHello::key_share_groups_into(U16View& out) const {
  return into(find(ext::kKeyShare), walk_key_share_groups, out);
}

bool WireClientHello::ec_point_formats_into(U8View& out) const {
  return into(find(ext::kEcPointFormats), walk_u8_list, out);
}

bool WireClientHello::psk_key_exchange_modes_into(U8View& out) const {
  return into(find(ext::kPskKeyExchangeModes), walk_u8_list, out);
}

bool WireClientHello::alpn_protocols_into(NameView& out) const {
  return into(find(ext::kAlpn), walk_names, out);
}

bool WireClientHello::application_settings_into(NameView& out) const {
  auto body = find(ext::kApplicationSettings);
  if (!body) body = find(ext::kApplicationSettingsNew);
  return into(body, walk_names, out);
}

// ---- ClientHello: builders ----

void ClientHello::add_server_name(std::string_view host) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(host.size() + 3));
  w.u8(0);  // host_name
  w.u16(static_cast<std::uint16_t>(host.size()));
  w.raw(ByteView{reinterpret_cast<const std::uint8_t*>(host.data()),
                 host.size()});
  extensions.push_back({ext::kServerName, std::move(w).take()});
}

void ClientHello::add_supported_groups(
    const std::vector<std::uint16_t>& groups) {
  extensions.push_back({ext::kSupportedGroups, u16_list_body(groups)});
}

void ClientHello::add_ec_point_formats(
    const std::vector<std::uint8_t>& formats) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(formats.size()));
  for (auto f : formats) w.u8(f);
  extensions.push_back({ext::kEcPointFormats, std::move(w).take()});
}

void ClientHello::add_signature_algorithms(
    const std::vector<std::uint16_t>& algs) {
  extensions.push_back({ext::kSignatureAlgorithms, u16_list_body(algs)});
}

void ClientHello::add_alpn(const std::vector<std::string>& protocols) {
  extensions.push_back({ext::kAlpn, alpn_body(protocols)});
}

void ClientHello::add_supported_versions(
    const std::vector<std::uint16_t>& versions) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(versions.size() * 2));
  for (auto v : versions) w.u16(v);
  extensions.push_back({ext::kSupportedVersions, std::move(w).take()});
}

void ClientHello::add_psk_key_exchange_modes(
    const std::vector<std::uint8_t>& modes) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(modes.size()));
  for (auto m : modes) w.u8(m);
  extensions.push_back({ext::kPskKeyExchangeModes, std::move(w).take()});
}

void ClientHello::add_key_shares(const std::vector<std::uint16_t>& groups,
                                 std::uint8_t fill_byte) {
  Writer inner;
  for (auto grp : groups) {
    const std::size_t klen = key_share_len_for_group(grp);
    inner.u16(grp);
    inner.u16(static_cast<std::uint16_t>(klen));
    for (std::size_t i = 0; i < klen; ++i) inner.u8(fill_byte);
  }
  Writer w;
  w.u16(static_cast<std::uint16_t>(inner.size()));
  w.raw(inner.data());
  extensions.push_back({ext::kKeyShare, std::move(w).take()});
}

void ClientHello::add_compress_certificate(
    const std::vector<std::uint16_t>& algs) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(algs.size() * 2));
  for (auto a : algs) w.u16(a);
  extensions.push_back({ext::kCompressCertificate, std::move(w).take()});
}

void ClientHello::add_record_size_limit(std::uint16_t limit) {
  Writer w;
  w.u16(limit);
  extensions.push_back({ext::kRecordSizeLimit, std::move(w).take()});
}

void ClientHello::add_delegated_credentials(
    const std::vector<std::uint16_t>& algs) {
  extensions.push_back({ext::kDelegatedCredentials, u16_list_body(algs)});
}

void ClientHello::add_application_settings(
    const std::vector<std::string>& protocols, std::uint16_t code) {
  extensions.push_back({code, alpn_body(protocols)});
}

void ClientHello::add_session_ticket(std::size_t ticket_len) {
  extensions.push_back({ext::kSessionTicket, Bytes(ticket_len, 0xa5)});
}

void ClientHello::add_status_request(std::uint8_t status_type) {
  // status_type (OCSP=1), empty responder list, empty request extensions.
  extensions.push_back({ext::kStatusRequest,
                        Bytes{status_type, 0, 0, 0, 0}});
}

void ClientHello::add_sct() { extensions.push_back({ext::kSignedCertTimestamp, {}}); }

void ClientHello::add_extended_master_secret() {
  extensions.push_back({ext::kExtendedMasterSecret, {}});
}

void ClientHello::add_encrypt_then_mac() {
  extensions.push_back({ext::kEncryptThenMac, {}});
}

void ClientHello::add_post_handshake_auth() {
  extensions.push_back({ext::kPostHandshakeAuth, {}});
}

void ClientHello::add_early_data() {
  extensions.push_back({ext::kEarlyData, {}});
}

void ClientHello::add_renegotiation_info() {
  extensions.push_back({ext::kRenegotiationInfo, Bytes{0}});
}

void ClientHello::add_padding_to(std::size_t target_len) {
  const std::size_t current = body_length(*this);
  if (current + 4 >= target_len) return;  // +4: padding extension header
  extensions.push_back({ext::kPadding, Bytes(target_len - current - 4, 0)});
}

void ClientHello::add_quic_transport_parameters(Bytes body) {
  extensions.push_back({ext::kQuicTransportParameters, std::move(body)});
}

void ClientHello::add_raw(std::uint16_t type, Bytes body) {
  extensions.push_back({type, std::move(body)});
}

Bytes ClientHello::serialize_handshake() const {
  Writer body;
  body.u16(legacy_version);
  body.raw(ByteView{random.data(), random.size()});
  body.u8(static_cast<std::uint8_t>(session_id.size()));
  body.raw(session_id);
  body.u16(static_cast<std::uint16_t>(cipher_suites.size() * 2));
  for (auto s : cipher_suites) body.u16(s);
  body.u8(static_cast<std::uint8_t>(compression_methods.size()));
  for (auto c : compression_methods) body.u8(c);
  body.u16(static_cast<std::uint16_t>(extensions_length(*this)));
  for (const auto& e : extensions) {
    body.u16(e.type);
    body.u16(static_cast<std::uint16_t>(e.body.size()));
    body.raw(e.body);
  }

  Writer msg;
  msg.u8(kHandshakeTypeClientHello);
  msg.u24(static_cast<std::uint32_t>(body.size()));
  msg.raw(body.data());
  return std::move(msg).take();
}

Bytes ClientHello::serialize_record() const {
  const Bytes handshake = serialize_handshake();
  Writer w;
  w.u8(kContentTypeHandshake);
  w.u16(kVersion10);  // conventional legacy record version in first flight
  w.u16(static_cast<std::uint16_t>(handshake.size()));
  w.raw(handshake);
  return std::move(w).take();
}

std::optional<ClientHello> ClientHello::parse_handshake(ByteView data) {
  WireClientHello wire;
  if (!wire.parse_handshake(data)) return std::nullopt;
  return from_wire(wire);
}

std::optional<ClientHello> ClientHello::parse_record(ByteView data) {
  WireClientHello wire;
  if (!wire.parse_record(data)) return std::nullopt;
  return from_wire(wire);
}

ClientHello ClientHello::from_wire(const WireClientHello& wire) {
  ClientHello c;
  c.legacy_version = wire.legacy_version();
  const ByteView random = wire.random();
  std::copy(random.begin(), random.end(), c.random.begin());
  const ByteView session_id = wire.session_id();
  c.session_id.assign(session_id.begin(), session_id.end());
  const BeU16Span suites = wire.cipher_suites();
  c.cipher_suites.reserve(suites.size());
  for (const std::uint16_t suite : suites) c.cipher_suites.push_back(suite);
  const ByteView compression = wire.compression_methods();
  c.compression_methods.assign(compression.begin(), compression.end());
  for (const ExtensionView e : wire.extensions())
    c.extensions.push_back({e.type, Bytes(e.body.begin(), e.body.end())});
  return c;
}

std::string ja3_string(const ClientHello& chlo) {
  auto join = [](const std::vector<std::uint16_t>& values) {
    std::string out;
    for (auto v : values) {
      if (is_grease(v)) continue;
      if (!out.empty()) out += '-';
      out += std::to_string(v);
    }
    return out;
  };

  std::string s = std::to_string(chlo.legacy_version);
  s += ',';
  s += join(chlo.cipher_suites);
  s += ',';
  s += join(chlo.extension_types());
  s += ',';
  if (auto groups = chlo.supported_groups()) s += join(*groups);
  s += ',';
  if (auto formats = chlo.ec_point_formats()) {
    std::string f;
    for (auto v : *formats) {
      if (!f.empty()) f += '-';
      f += std::to_string(v);
    }
    s += f;
  }
  return s;
}

std::string ja3_hash(const ClientHello& chlo) {
  const std::string s = ja3_string(chlo);
  const auto digest = crypto::md5(
      ByteView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  return to_hex(ByteView{digest.data(), digest.size()});
}

}  // namespace vpscope::tls
