// TLS ClientHello model in two forms: the structural ClientHello (owning
// fields, order-preserving extensions, builders and serializers) and the
// WireClientHello (the parsed wire bytes plus field offsets), which is the
// one parser and carries the typed decoders for every extension the paper's
// Table 2 derives attributes from.
//
// The ClientHello is *the* fingerprint surface of this system: mandatory
// fields (version, cipher suites, compression), optional extensions whose
// presence/values/ordering differ per client stack, and — for QUIC — the
// embedded quic_transport_parameters extension.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tls/constants.hpp"
#include "util/bytes.hpp"

namespace vpscope::tls {

/// Fixed-capacity decoded list for the attribute hot path: no heap, items
/// beyond capacity are dropped (capacities comfortably exceed what real
/// client stacks emit — the longest observed lists are ~20 cipher suites).
template <typename T, std::size_t N>
struct FixedList {
  std::array<T, N> items{};
  std::uint8_t count = 0;

  void push(const T& v) {
    if (count < N) items[count++] = v;
  }
  std::size_t size() const { return count; }
  const T& operator[](std::size_t i) const { return items[i]; }
};

using U16View = FixedList<std::uint16_t, 32>;
using U8View = FixedList<std::uint8_t, 16>;
/// String items view into the extension body; valid while the
/// WireClientHello it was decoded from lives.
using NameView = FixedList<std::string_view, 16>;

/// One extension, body kept raw so unknown/GREASE extensions round-trip.
struct Extension {
  std::uint16_t type = 0;
  Bytes body;

  bool operator==(const Extension&) const = default;
};

class WireClientHello;

/// The structural ClientHello: owning fields, typed builders and the
/// serializers. The synthesizer, the fuzz mutator and the fixpoint oracles
/// build and compare these; the attribute path reads a WireClientHello.
struct ClientHello {
  std::uint16_t legacy_version = kVersion12;
  std::array<std::uint8_t, 32> random{};
  Bytes session_id;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<std::uint8_t> compression_methods{0};
  std::vector<Extension> extensions;  // on-wire order preserved

  /// Structural equality (the fuzz harness' parse->serialize->re-parse
  /// fixpoint oracle compares whole ClientHellos).
  bool operator==(const ClientHello&) const = default;

  // ---- structural helpers ----
  /// The first extension of `type` (builders and mutators edit it in place).
  const Extension* find(std::uint16_t type) const;
  Extension* find(std::uint16_t type);

  /// Extension type codes in wire order (GREASE included).
  std::vector<std::uint16_t> extension_types() const;

  // ---- typed extension decoders (nullopt when absent/malformed) ----
  // Same walkers as WireClientHello's *_into decoders, collected into
  // vectors without the fixed capacity.
  std::optional<std::string> server_name() const;
  std::optional<std::vector<std::uint16_t>> supported_groups() const;
  std::optional<std::vector<std::uint8_t>> ec_point_formats() const;
  std::optional<std::vector<std::uint16_t>> signature_algorithms() const;
  std::optional<std::vector<std::string>> alpn_protocols() const;
  std::optional<std::vector<std::uint16_t>> supported_versions() const;
  std::optional<std::vector<std::uint8_t>> psk_key_exchange_modes() const;
  /// Groups offered in key_share entries, in order.
  std::optional<std::vector<std::uint16_t>> key_share_groups() const;
  std::optional<std::vector<std::uint16_t>> compress_certificate() const;
  std::optional<std::vector<std::uint16_t>> delegated_credentials() const;
  std::optional<std::vector<std::string>> application_settings() const;

  // ---- typed extension builders (append to `extensions`) ----
  void add_server_name(std::string_view host);
  void add_supported_groups(const std::vector<std::uint16_t>& groups);
  void add_ec_point_formats(const std::vector<std::uint8_t>& formats);
  void add_signature_algorithms(const std::vector<std::uint16_t>& algs);
  void add_alpn(const std::vector<std::string>& protocols);
  void add_supported_versions(const std::vector<std::uint16_t>& versions);
  void add_psk_key_exchange_modes(const std::vector<std::uint8_t>& modes);
  /// Adds key_share entries with realistic per-group key lengths
  /// (x25519: 32, p-256: 65, p-384: 97, hybrid kyber: 1216).
  void add_key_shares(const std::vector<std::uint16_t>& groups,
                      std::uint8_t fill_byte = 0x42);
  void add_compress_certificate(const std::vector<std::uint16_t>& algs);
  void add_record_size_limit(std::uint16_t limit);
  void add_delegated_credentials(const std::vector<std::uint16_t>& algs);
  void add_application_settings(const std::vector<std::string>& protocols,
                                std::uint16_t code = ext::kApplicationSettings);
  void add_session_ticket(std::size_t ticket_len = 0);
  void add_status_request(std::uint8_t status_type = 1);
  void add_sct();
  void add_extended_master_secret();
  void add_encrypt_then_mac();
  void add_post_handshake_auth();
  void add_early_data();
  void add_renegotiation_info();
  /// Pads the serialized ClientHello body up to `target_len` bytes using the
  /// padding extension (Chrome-style); no-op if already >= target.
  void add_padding_to(std::size_t target_len);
  void add_quic_transport_parameters(Bytes body);
  void add_raw(std::uint16_t type, Bytes body);

  // ---- wire format ----
  /// Serializes the ClientHello as a Handshake message (type 1 + u24 length
  /// + body). This is the payload placed in a TLS record (TCP) or CRYPTO
  /// frame (QUIC).
  Bytes serialize_handshake() const;

  /// Serializes as a plaintext TLS record: ContentType=22 handshake,
  /// legacy record version 0x0301, then the handshake message.
  Bytes serialize_record() const;

  /// Parses a Handshake message (starting at the HandshakeType byte):
  /// WireClientHello::parse_handshake, then from_wire.
  static std::optional<ClientHello> parse_handshake(ByteView data);

  /// Parses one TLS record and the ClientHello inside it.
  static std::optional<ClientHello> parse_record(ByteView data);

  /// The owning copy of a parsed wire ClientHello.
  static ClientHello from_wire(const WireClientHello& wire);
};

/// Big-endian u16 values packed in a wire buffer (cipher suites), read in
/// place.
class BeU16Span {
 public:
  class iterator {
   public:
    explicit iterator(const std::uint8_t* p) : p_(p) {}
    std::uint16_t operator*() const {
      return static_cast<std::uint16_t>(p_[0] << 8 | p_[1]);
    }
    iterator& operator++() {
      p_ += 2;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const std::uint8_t* p_;
  };

  BeU16Span() = default;
  explicit BeU16Span(ByteView bytes) : bytes_(bytes) {}
  std::size_t size() const { return bytes_.size() / 2; }
  bool empty() const { return bytes_.empty(); }
  std::uint16_t operator[](std::size_t i) const {
    return static_cast<std::uint16_t>(bytes_[2 * i] << 8 | bytes_[2 * i + 1]);
  }
  iterator begin() const { return iterator(bytes_.data()); }
  iterator end() const { return iterator(bytes_.data() + size() * 2); }

 private:
  ByteView bytes_;
};

/// One extension of a WireClientHello, its body a view into the buffer.
struct ExtensionView {
  std::uint16_t type = 0;
  ByteView body;
};

/// The extensions block of a WireClientHello, walked in wire order. The
/// parse validated every entry header, so the walk checks nothing.
class ExtensionSpan {
 public:
  class iterator {
   public:
    iterator(ByteView block, std::size_t at) : block_(block), at_(at) {}
    ExtensionView operator*() const {
      return {be16(at_), block_.subspan(at_ + 4, be16(at_ + 2))};
    }
    iterator& operator++() {
      at_ += 4 + std::size_t{be16(at_ + 2)};
      return *this;
    }
    bool operator==(const iterator& o) const { return at_ == o.at_; }

   private:
    std::uint16_t be16(std::size_t i) const {
      return static_cast<std::uint16_t>(block_[i] << 8 | block_[i + 1]);
    }
    ByteView block_;
    std::size_t at_;
  };

  ExtensionSpan() = default;
  explicit ExtensionSpan(ByteView block) : block_(block) {}
  bool empty() const { return block_.empty(); }
  iterator begin() const { return {block_, 0}; }
  iterator end() const { return {block_, block_.size()}; }

 private:
  ByteView block_;
};

/// A ClientHello kept as its wire bytes: the handshake body in one buffer
/// plus the offsets of its fields. This is the one ClientHello parser —
/// ClientHello::parse_handshake/parse_record wrap it — and the form the
/// attribute path reads: iteration, lookup and the *_into decoders walk the
/// buffer in place and allocate nothing. Copies are deep; views taken from
/// an object point into its own buffer.
class WireClientHello {
 public:
  /// Parses a Handshake message (starting at the HandshakeType byte) and
  /// copies its body into this object's buffer, which `data` must not point
  /// into. Bytes after the declared message length are ignored. False, with
  /// the object left empty, when the bytes are not a well-formed
  /// ClientHello.
  bool parse_handshake(ByteView data);
  /// The same parse over the first `size` bytes of `buffer`, keeping
  /// `buffer` itself as this object's storage instead of copying from it:
  /// on success `buffer` is moved from, on failure it is left as it was.
  bool parse_handshake(Bytes& buffer, std::size_t size);
  /// Parses one TLS handshake record and the ClientHello inside it; bytes
  /// after the record are ignored.
  bool parse_record(ByteView data);

  bool empty() const { return body_.empty(); }

  std::uint16_t legacy_version() const { return legacy_version_; }
  ByteView random() const { return field(2, empty() ? 0 : 32); }
  ByteView session_id() const { return field(35, session_id_len_); }
  BeU16Span cipher_suites() const {
    return BeU16Span(field(suites_at_, suites_len_));
  }
  ByteView compression_methods() const { return field(comp_at_, comp_len_); }
  ExtensionSpan extensions() const {
    return ExtensionSpan(field(ext_at_, ext_len_));
  }

  /// Body of the first extension of `type` (later duplicates are ignored).
  /// Types below 64 — every Table-2 extension but ALPS and
  /// renegotiation_info — are one index read; others walk the block.
  std::optional<ByteView> find(std::uint16_t type) const;
  bool has_extension(std::uint16_t type) const {
    return find(type).has_value();
  }

  /// The extensions_length field value (0 without an extensions block).
  std::size_t extensions_length() const { return ext_len_; }

  /// The Handshake.length of the hello re-serialized (the paper's
  /// handshake_length attribute): the body length, plus the 2-byte
  /// extensions_length field a serializer writes even when the parsed body
  /// had no extensions block.
  std::size_t handshake_body_length() const {
    return body_.size() + (has_ext_block_ || empty() ? 0 : 2);
  }

  // ---- extension decoders (nullopt / false when absent or malformed) ----
  // Items beyond a FixedList's capacity are dropped.
  std::optional<std::string_view> server_name_view() const;
  std::optional<std::uint16_t> record_size_limit() const;
  /// Raw body of quic_transport_parameters (decoded by vpscope::quic).
  std::optional<ByteView> quic_transport_parameters() const;
  bool supported_groups_into(U16View& out) const;
  bool signature_algorithms_into(U16View& out) const;
  bool supported_versions_into(U16View& out) const;
  bool compress_certificate_into(U16View& out) const;
  bool delegated_credentials_into(U16View& out) const;
  bool key_share_groups_into(U16View& out) const;
  bool ec_point_formats_into(U8View& out) const;
  bool psk_key_exchange_modes_into(U8View& out) const;
  bool alpn_protocols_into(NameView& out) const;
  bool application_settings_into(NameView& out) const;

 private:
  static constexpr std::size_t kIndexedTypes = 64;

  /// Reads the fields of the Handshake message `data` starts with into this
  /// object's offsets and returns its body, leaving the buffer to the
  /// caller; nullopt, with the object left empty, when malformed.
  std::optional<ByteView> parse_fields(ByteView data);

  ByteView field(std::size_t at, std::size_t len) const {
    return len == 0 ? ByteView{} : ByteView(body_).subspan(at, len);
  }

  Bytes body_;  // the Handshake body, from legacy_version on
  std::uint16_t legacy_version_ = 0;
  std::uint8_t session_id_len_ = 0;
  std::uint8_t comp_len_ = 0;
  std::uint16_t suites_len_ = 0;
  std::uint16_t ext_len_ = 0;
  std::uint32_t suites_at_ = 0;
  std::uint32_t comp_at_ = 0;
  std::uint32_t ext_at_ = 0;
  bool has_ext_block_ = false;
  /// Per type below kIndexedTypes: 1 + the offset of its first entry in the
  /// extensions block, 0 when absent.
  std::array<std::uint16_t, kIndexedTypes> first_entry_{};
};

/// The JA3 fingerprint string (version,ciphers,extensions,groups,formats
/// with GREASE removed) and its MD5 digest — substrate for the Table 6
/// baselines and a handy debugging identity for fingerprints.
std::string ja3_string(const ClientHello& chlo);
std::string ja3_hash(const ClientHello& chlo);

}  // namespace vpscope::tls
