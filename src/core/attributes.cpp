#include "core/attributes.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "tls/constants.hpp"

namespace vpscope::core {

using fingerprint::Transport;

const std::array<AttributeInfo, kNumAttributes>& attribute_catalog() {
  static const std::array<AttributeInfo, kNumAttributes> catalog = {{
      // --- transport layer (t1..t14) ---
      {"t1", "init_packet_size", AttrType::Numerical, true, true, 0},
      {"t2", "ttl", AttrType::Numerical, true, true, 0},
      {"t3", "tcp_cwr", AttrType::Presence, true, false, 0},
      {"t4", "tcp_ece", AttrType::Presence, true, false, 0},
      {"t5", "tcp_urg", AttrType::Presence, true, false, 0},
      {"t6", "tcp_ack", AttrType::Presence, true, false, 0},
      {"t7", "tcp_psh", AttrType::Presence, true, false, 0},
      {"t8", "tcp_rst", AttrType::Presence, true, false, 0},
      {"t9", "tcp_syn", AttrType::Presence, true, false, 0},
      {"t10", "tcp_fin", AttrType::Presence, true, false, 0},
      {"t11", "tcp_window_size", AttrType::Numerical, true, false, 0},
      {"t12", "tcp_mss", AttrType::Numerical, true, false, 0},
      {"t13", "tcp_window_scale", AttrType::Numerical, true, false, 0},
      {"t14", "tcp_sack_permitted", AttrType::Presence, true, false, 0},
      // --- mandatory fields (m1..m5) ---
      {"m1", "handshake_length", AttrType::Numerical, true, true, 0},
      {"m2", "tls_version", AttrType::Categorical, true, true, 0},
      {"m3", "cipher_suites", AttrType::List, true, true, 24},
      {"m4", "compression_methods", AttrType::Length, true, true, 0},
      {"m5", "extensions_length", AttrType::Numerical, true, true, 0},
      // --- optional extensions (o1..o23) ---
      {"o1", "tls_extensions", AttrType::List, true, true, 24},
      {"o2", "server_name", AttrType::Length, true, true, 0},
      {"o3", "status_request", AttrType::Categorical, true, true, 0},
      {"o4", "supported_groups", AttrType::List, true, true, 10},
      {"o5", "ec_point_formats", AttrType::Categorical, true, true, 0},
      {"o6", "signature_algorithms", AttrType::List, true, true, 16},
      {"o7", "application_layer_protocol_negotiation", AttrType::List, true,
       true, 4},
      {"o8", "signed_certificate_timestamp", AttrType::Length, true, true, 0},
      {"o9", "padding", AttrType::Length, true, true, 0},
      {"o10", "encrypt_then_mac", AttrType::Presence, true, true, 0},
      {"o11", "extended_master_secret", AttrType::Presence, true, true, 0},
      {"o12", "compress_certificate", AttrType::Categorical, true, true, 0},
      {"o13", "record_size_limit", AttrType::Numerical, true, true, 0},
      {"o14", "delegated_credentials", AttrType::List, true, true, 8},
      {"o15", "session_ticket", AttrType::Length, true, true, 0},
      {"o16", "pre_shared_key", AttrType::Presence, true, true, 0},
      {"o17", "early_data", AttrType::Length, true, true, 0},
      {"o18", "supported_versions", AttrType::List, true, true, 5},
      {"o19", "psk_key_exchange_modes", AttrType::Categorical, true, true, 0},
      {"o20", "post_handshake_auth", AttrType::Presence, true, true, 0},
      {"o21", "key_share", AttrType::List, true, true, 5},
      {"o22", "application_settings", AttrType::List, true, true, 5},
      {"o23", "renegotiation_info", AttrType::Presence, true, true, 0},
      // --- QUIC parameters (q1..q20) ---
      {"q1", "quic_parameters", AttrType::List, false, true, 24},
      {"q2", "max_idle_timeout", AttrType::Numerical, false, true, 0},
      {"q3", "max_udp_payload_size", AttrType::Numerical, false, true, 0},
      {"q4", "initial_max_data", AttrType::Numerical, false, true, 0},
      {"q5", "initial_max_stream_data_bidi_local", AttrType::Numerical, false,
       true, 0},
      {"q6", "initial_max_stream_data_bidi_remote", AttrType::Numerical,
       false, true, 0},
      {"q7", "initial_max_stream_data_uni", AttrType::Numerical, false, true,
       0},
      {"q8", "initial_max_streams_bidi", AttrType::Numerical, false, true, 0},
      {"q9", "initial_max_streams_uni", AttrType::Numerical, false, true, 0},
      {"q10", "max_ack_delay", AttrType::Numerical, false, true, 0},
      {"q11", "disable_active_migration", AttrType::Presence, false, true, 0},
      {"q12", "active_connection_id_limit", AttrType::Numerical, false, true,
       0},
      {"q13", "initial_source_connection_id", AttrType::Length, false, true,
       0},
      {"q14", "max_datagram_frame_size", AttrType::Numerical, false, true, 0},
      {"q15", "grease_quic_bit", AttrType::Presence, false, true, 0},
      {"q16", "initial_rtt", AttrType::Presence, false, true, 0},
      {"q17", "google_connection_options", AttrType::Categorical, false, true,
       0},
      {"q18", "user_agent", AttrType::Categorical, false, true, 0},
      {"q19", "google_version", AttrType::Categorical, false, true, 0},
      {"q20", "ack_delay_exponent", AttrType::Numerical, false, true, 0},
  }};
  return catalog;
}

int applicable_count(Transport transport) {
  int n = 0;
  for (const auto& info : attribute_catalog())
    n += transport == Transport::Tcp ? info.tcp : info.quic;
  return n;
}

namespace {

/// Decimal rendering of an integral token into caller stack storage.
/// Faithful to the paper's §3.3.2: "a 1:1 mapping between the values
/// contained in the fields to a unique number" — GREASE values (random per
/// flow by design, RFC 8701) are NOT collapsed, so greasing stacks carry
/// per-flow noise in their list attributes. Tree ensembles shrug this off;
/// distance- and gradient-based models don't, which is part of why the
/// paper's RF wins its model comparison.
template <typename T>
std::string_view dec_token(T v, std::span<char> buf) {
  const auto [end, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), v);
  (void)ec;  // buffers are sized for the widest integral rendering
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

/// Builds "-"-joined tokens ("0-1-2") in fixed stack storage; ample for the
/// few-element u8/u16 lists that feed categorical attributes.
class JoinBuffer {
 public:
  template <typename T>
  void append(T v) {
    if (len_ > 0 && len_ < sizeof(buf_)) buf_[len_++] = '-';
    char tmp[24];
    const auto t = dec_token(v, tmp);
    const std::size_t n = std::min(t.size(), sizeof(buf_) - len_);
    std::memcpy(buf_ + len_, t.data(), n);
    len_ += n;
  }
  std::string_view view() const { return {buf_, len_}; }

 private:
  char buf_[160];
  std::size_t len_ = 0;
};

/// Token resolution for the steady-state path: the interner is read-only,
/// and integer fields resolve through lookup_number without being rendered.
struct LookupTokens {
  const TokenInterner& interner;
  TokenId text(std::string_view token) const { return interner.lookup(token); }
  TokenId number(std::uint64_t value) const {
    return interner.lookup_number(value);
  }
};

/// Token resolution at fit and analysis time: the interner grows, integer
/// fields as their canonical decimal rendering.
struct InternTokens {
  TokenInterner& interner;
  TokenId text(std::string_view token) const { return interner.intern(token); }
  TokenId number(std::uint64_t value) const {
    char buf[24];
    return interner.intern(dec_token(value, buf));
  }
};

/// The token of a "-"-joined list (categorical attributes o5, o12, o19). A
/// one-item join is that item's decimal, so it resolves as a number.
template <typename List, typename Tokens>
TokenId joined_token(const List& items, const Tokens& tokens) {
  if (items.size() == 1) return tokens.number(items[0]);
  JoinBuffer joined;
  for (std::size_t i = 0; i < items.size(); ++i) joined.append(items[i]);
  return tokens.text(joined.view());
}

// The setters below write into an attribute extract_impl has already
// reset, so no 144-byte RawAttr temporary is built and copied per field.

void num(RawAttr& a, double v) {
  a.present = true;
  a.number = v;
}

void presence(RawAttr& a, bool p) {
  a.present = p;
  a.number = p ? 1.0 : 0.0;
}

/// Length attributes report the on-wire extension size including its 4-byte
/// type+length header, so an *empty but present* extension (e.g. SCT,
/// session_ticket) is distinguishable from an absent one.
void ext_length(RawAttr& a, const tls::WireClientHello& chlo,
                std::uint16_t type) {
  if (const auto body = chlo.find(type))
    num(a, static_cast<double>(4 + body->size()));
}

void ext_presence(RawAttr& a, const tls::WireClientHello& chlo,
                  std::uint16_t type) {
  presence(a, chlo.has_extension(type));
}

/// The extraction body, parameterized over the token resolution so the
/// fit-time (growing) and inference-time (frozen lookup, allocation-free)
/// paths share one implementation.
template <typename Tokens>
void extract_impl(const FlowHandshake& h, RawAttrs& out,
                  const Tokens& tokens) {
  out.fill(RawAttr{});
  const bool is_tcp = h.transport == Transport::Tcp;
  const tls::WireClientHello& chlo = h.chlo;
  namespace ext = tls::ext;

  const auto cat = [](RawAttr& a, TokenId id) {
    a.present = true;
    a.set_token(id);
  };
  const auto list = [&](RawAttr& a, const auto& items) {
    a.present = items.size() > 0;
    for (std::size_t i = 0; i < items.size(); ++i)
      a.push_token(tokens.number(items[i]));
  };

  // t1/t2
  num(out[0], static_cast<double>(h.init_packet_size));
  num(out[1], static_cast<double>(h.ttl));

  if (is_tcp) {
    presence(out[2], h.syn_flags.cwr);
    presence(out[3], h.syn_flags.ece);
    presence(out[4], h.syn_flags.urg);
    presence(out[5], h.syn_flags.ack);
    presence(out[6], h.syn_flags.psh);
    presence(out[7], h.syn_flags.rst);
    presence(out[8], h.syn_flags.syn);
    presence(out[9], h.syn_flags.fin);
    num(out[10], h.tcp_window);
    num(out[11], h.tcp_mss ? *h.tcp_mss : 0.0);
    num(out[12], h.tcp_window_scale ? *h.tcp_window_scale : 0.0);
    presence(out[13], h.tcp_sack_permitted);
  }

  // m1..m5
  num(out[14], static_cast<double>(chlo.handshake_body_length()));
  cat(out[15], tokens.number(chlo.legacy_version()));
  list(out[16], chlo.cipher_suites());
  num(out[17], static_cast<double>(chlo.compression_methods().size()));
  num(out[18], static_cast<double>(chlo.extensions_length()));

  // o1: extension type codes in wire order.
  out[19].present = !chlo.extensions().empty();
  for (const tls::ExtensionView e : chlo.extensions())
    out[19].push_token(tokens.number(e.type));
  // o2: SNI length (the name itself is matched upstream for provider
  // detection; only the length can fingerprint the platform).
  if (const auto sni = chlo.server_name_view())
    num(out[20], static_cast<double>(sni->size()));
  // o3: status_request type byte.
  if (const auto body = chlo.find(ext::kStatusRequest))
    cat(out[21], body->empty() ? tokens.text("empty")
                               : tokens.number((*body)[0]));
  // o4
  if (tls::U16View groups; chlo.supported_groups_into(groups))
    list(out[22], groups);
  // o5
  if (tls::U8View formats; chlo.ec_point_formats_into(formats))
    cat(out[23], joined_token(formats, tokens));
  // o6
  if (tls::U16View algs; chlo.signature_algorithms_into(algs))
    list(out[24], algs);
  // o7
  if (tls::NameView alpn; chlo.alpn_protocols_into(alpn)) {
    out[25].present = alpn.size() > 0;
    for (std::size_t i = 0; i < alpn.size(); ++i)
      out[25].push_token(tokens.text(alpn[i]));
  }
  // o8/o9
  ext_length(out[26], chlo, ext::kSignedCertTimestamp);
  ext_length(out[27], chlo, ext::kPadding);
  // o10/o11
  ext_presence(out[28], chlo, ext::kEncryptThenMac);
  ext_presence(out[29], chlo, ext::kExtendedMasterSecret);
  // o12
  if (tls::U16View comp; chlo.compress_certificate_into(comp))
    cat(out[30], joined_token(comp, tokens));
  // o13
  if (const auto limit = chlo.record_size_limit()) num(out[31], *limit);
  // o14
  if (tls::U16View dc; chlo.delegated_credentials_into(dc)) list(out[32], dc);
  // o15..o17
  ext_length(out[33], chlo, ext::kSessionTicket);
  ext_presence(out[34], chlo, ext::kPreSharedKey);
  ext_length(out[35], chlo, ext::kEarlyData);
  // o18
  if (tls::U16View versions; chlo.supported_versions_into(versions))
    list(out[36], versions);
  // o19
  if (tls::U8View modes; chlo.psk_key_exchange_modes_into(modes))
    cat(out[37], joined_token(modes, tokens));
  // o20
  ext_presence(out[38], chlo, ext::kPostHandshakeAuth);
  // o21
  if (tls::U16View shares; chlo.key_share_groups_into(shares))
    list(out[39], shares);
  // o22: the application_settings content, prefixed by the extension code
  // variant in use (ALPS codepoint migration distinguishes Chromium forks).
  if (tls::NameView settings; chlo.application_settings_into(settings)) {
    out[40].present = true;
    out[40].push_token(tokens.text(
        chlo.has_extension(ext::kApplicationSettingsNew) ? "alps-new"
                                                         : "alps-old"));
    for (std::size_t i = 0; i < settings.size(); ++i)
      out[40].push_token(tokens.text(settings[i]));
  }
  // o23
  ext_presence(out[41], chlo, ext::kRenegotiationInfo);

  // q1..q20
  if (h.transport == Transport::Quic && h.quic_tp) {
    const quic::WireTransportParameters& tp = *h.quic_tp;
    const ByteView body = h.quic_tp_body();
    using N = quic::WireTransportParameters::Numeric;
    out[42].present = tp.param_count() > 0;
    for (const quic::ParamView p : tp.params(body))
      out[42].push_token(quic::tp::is_grease(p.id) ? tokens.text("GREASE")
                                                   : tokens.number(p.id));
    const auto opt_num = [&tp](RawAttr& a, N n) {
      if (const auto v = tp.numeric(n)) num(a, static_cast<double>(*v));
    };
    opt_num(out[43], N::MaxIdleTimeout);
    opt_num(out[44], N::MaxUdpPayloadSize);
    opt_num(out[45], N::InitialMaxData);
    opt_num(out[46], N::InitialMaxStreamDataBidiLocal);
    opt_num(out[47], N::InitialMaxStreamDataBidiRemote);
    opt_num(out[48], N::InitialMaxStreamDataUni);
    opt_num(out[49], N::InitialMaxStreamsBidi);
    opt_num(out[50], N::InitialMaxStreamsUni);
    opt_num(out[51], N::MaxAckDelay);
    presence(out[52], tp.disable_active_migration());
    opt_num(out[53], N::ActiveConnectionIdLimit);
    if (const auto scid_len = tp.initial_source_connection_id_length())
      num(out[54], static_cast<double>(*scid_len));
    opt_num(out[55], N::MaxDatagramFrameSize);
    presence(out[56], tp.grease_quic_bit());
    presence(out[57], tp.numeric(N::InitialRtt).has_value());
    if (const auto options = tp.google_connection_options(body))
      cat(out[58], tokens.text(*options));
    if (const auto agent = tp.user_agent(body))
      cat(out[59], tokens.text(*agent));
    if (const auto version = tp.google_version())
      cat(out[60], tokens.number(*version));
    opt_num(out[61], N::AckDelayExponent);
  }
}

}  // namespace

void extract_raw_attributes(const FlowHandshake& handshake,
                            const TokenInterner& interner, RawAttrs& out) {
  extract_impl(handshake, out, LookupTokens{interner});
}

void extract_raw_attributes(const FlowHandshake& handshake,
                            TokenInterner& interner, RawAttrs& out) {
  extract_impl(handshake, out, InternTokens{interner});
}

RawAttrs extract_raw_attributes(const FlowHandshake& handshake,
                                TokenInterner& interner) {
  RawAttrs out;
  extract_raw_attributes(handshake, interner, out);
  return out;
}

std::string attribute_signature(const RawAttr& raw, AttrType type,
                                const TokenInterner& interner) {
  if (!raw.present) return "<absent>";
  switch (type) {
    case AttrType::Numerical:
    case AttrType::Presence:
    case AttrType::Length: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", raw.number);
      return buf;
    }
    case AttrType::Categorical:
      return std::string(interner.token(raw.token()));
    case AttrType::List: {
      std::string out;
      for (std::size_t i = 0; i < raw.count; ++i) {
        out += interner.token(raw.tokens[i]);
        out += '|';
      }
      return out;
    }
  }
  return "<absent>";
}

}  // namespace vpscope::core
