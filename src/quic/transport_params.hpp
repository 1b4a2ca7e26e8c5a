// QUIC transport parameters (RFC 9000 §18) as carried in the TLS
// quic_transport_parameters extension, including the Google/Chromium
// proprietary parameters the paper lists as attributes q17..q19
// (google_connection_options, user_agent, google_version) and q16
// (initial_rtt).
//
// Two forms, as for the ClientHello: WireTransportParameters, parsed in
// place from the extension body with the numeric values inline (the one
// parser, read by the attribute path), and the structural
// TransportParameters with owning fields and the serializer (built by the
// synthesizer and the fuzz mutator). Both keep the *on-wire parameter id
// order* — client stacks emit these in stack-specific orders, another
// fingerprinting surface.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace vpscope::quic {

// Parameter ids (RFC 9000 + Chromium extras).
namespace tp {
inline constexpr std::uint64_t kMaxIdleTimeout = 0x01;
inline constexpr std::uint64_t kMaxUdpPayloadSize = 0x03;
inline constexpr std::uint64_t kInitialMaxData = 0x04;
inline constexpr std::uint64_t kInitialMaxStreamDataBidiLocal = 0x05;
inline constexpr std::uint64_t kInitialMaxStreamDataBidiRemote = 0x06;
inline constexpr std::uint64_t kInitialMaxStreamDataUni = 0x07;
inline constexpr std::uint64_t kInitialMaxStreamsBidi = 0x08;
inline constexpr std::uint64_t kInitialMaxStreamsUni = 0x09;
inline constexpr std::uint64_t kAckDelayExponent = 0x0a;
inline constexpr std::uint64_t kMaxAckDelay = 0x0b;
inline constexpr std::uint64_t kDisableActiveMigration = 0x0c;
inline constexpr std::uint64_t kActiveConnectionIdLimit = 0x0e;
inline constexpr std::uint64_t kInitialSourceConnectionId = 0x0f;
inline constexpr std::uint64_t kMaxDatagramFrameSize = 0x20;
inline constexpr std::uint64_t kGreaseQuicBit = 0x2ab2;
inline constexpr std::uint64_t kInitialRtt = 0x3127;           // Google
inline constexpr std::uint64_t kGoogleConnectionOptions = 0x3128;  // Google
inline constexpr std::uint64_t kUserAgent = 0x3129;            // Google
inline constexpr std::uint64_t kGoogleVersion = 0x4752;        // Google

/// GREASE transport parameters are reserved ids of the form 31*N+27.
inline constexpr bool is_grease(std::uint64_t id) { return id % 31 == 27; }
}  // namespace tp

/// One parameter as it sits in the extension body.
struct ParamView {
  std::uint64_t id = 0;
  ByteView value;
};

/// The parameters of a body WireTransportParameters::parse accepted, in
/// wire order (GREASE included). The parse validated every entry, so the
/// walk checks nothing.
class ParamSpan {
 public:
  class iterator {
   public:
    iterator(ByteView body, std::size_t at) : body_(body), at_(at) {}
    ParamView operator*() const;
    iterator& operator++();
    bool operator==(const iterator& o) const { return at_ == o.at_; }

   private:
    ByteView body_;
    std::size_t at_;
  };

  ParamSpan() = default;
  explicit ParamSpan(ByteView body) : body_(body) {}
  iterator begin() const { return {body_, 0}; }
  iterator end() const { return {body_, body_.size()}; }

 private:
  ByteView body_;
};

/// The transport parameters parsed in place from the extension body: the
/// one parser (TransportParameters::parse wraps it). Numeric parameters are
/// stored inline, the two Google strings as offsets into the body, the
/// initial SCID as its length; the wire id order is walked from the body.
/// Nothing points into the body, so a copy stays valid next to a copy of
/// the ClientHello that holds it; the accessors returning bytes take that
/// body again and return nothing for a body of another size.
///
/// A parameter given twice keeps its last value; a numeric parameter whose
/// value is not a varint reads absent; google_version needs 4 value bytes.
class WireTransportParameters {
 public:
  /// The parameters carried as one varint value.
  enum class Numeric : std::uint8_t {
    MaxIdleTimeout,                  // q2 (ms)
    MaxUdpPayloadSize,               // q3
    InitialMaxData,                  // q4
    InitialMaxStreamDataBidiLocal,   // q5
    InitialMaxStreamDataBidiRemote,  // q6
    InitialMaxStreamDataUni,         // q7
    InitialMaxStreamsBidi,           // q8
    InitialMaxStreamsUni,            // q9
    MaxAckDelay,                     // q10 (ms)
    ActiveConnectionIdLimit,         // q12
    MaxDatagramFrameSize,            // q14
    InitialRtt,                      // q16 (Google, µs)
    AckDelayExponent,                // q20
    kCount,
  };

  /// nullopt when an id, length or value overruns the body.
  static std::optional<WireTransportParameters> parse(ByteView body);

  std::optional<std::uint64_t> numeric(Numeric n) const {
    const auto i = static_cast<std::size_t>(n);
    if (!has(i)) return std::nullopt;
    return numeric_[i];
  }
  bool disable_active_migration() const { return has(kDisableMigration); }
  bool grease_quic_bit() const { return has(kGreaseQuicBit); }
  std::optional<std::uint32_t> google_version() const {
    if (!has(kGoogleVersion)) return std::nullopt;
    return google_version_;
  }
  std::optional<std::size_t> initial_source_connection_id_length() const {
    if (!has(kInitialScid)) return std::nullopt;
    return scid_len_;
  }
  std::optional<std::string_view> google_connection_options(
      ByteView body) const {
    return string_at(body, kGoogleConnectionOptions, connection_options_);
  }
  std::optional<std::string_view> user_agent(ByteView body) const {
    return string_at(body, kUserAgent, user_agent_);
  }

  /// Number of parameters, and the parameters in wire order (the q1
  /// list); `body` must be the body this object was parsed from (a body of
  /// another size walks as empty).
  std::size_t param_count() const { return count_; }
  ParamSpan params(ByteView body) const {
    return body.size() == body_len_ ? ParamSpan(body) : ParamSpan();
  }

 private:
  struct Slice {
    std::uint32_t at = 0;
    std::uint32_t len = 0;
  };
  // Presence bits: one per Numeric, then these.
  static constexpr std::size_t kDisableMigration =
      static_cast<std::size_t>(Numeric::kCount);
  static constexpr std::size_t kGreaseQuicBit = kDisableMigration + 1;
  static constexpr std::size_t kGoogleVersion = kDisableMigration + 2;
  static constexpr std::size_t kInitialScid = kDisableMigration + 3;
  static constexpr std::size_t kGoogleConnectionOptions = kDisableMigration + 4;
  static constexpr std::size_t kUserAgent = kDisableMigration + 5;

  bool has(std::size_t bit) const { return present_ >> bit & 1; }
  void set(std::size_t bit, bool on) {
    present_ = on ? present_ | 1u << bit : present_ & ~(1u << bit);
  }
  std::optional<std::string_view> string_at(ByteView body, std::size_t bit,
                                            Slice slice) const {
    if (!has(bit) || body.size() != body_len_) return std::nullopt;
    return std::string_view(
        reinterpret_cast<const char*>(body.data()) + slice.at, slice.len);
  }

  std::array<std::uint64_t, static_cast<std::size_t>(Numeric::kCount)>
      numeric_{};
  std::uint32_t present_ = 0;
  std::uint32_t google_version_ = 0;
  std::uint32_t scid_len_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t body_len_ = 0;
  Slice connection_options_;
  Slice user_agent_;
};

struct TransportParameters {
  std::optional<std::uint64_t> max_idle_timeout;        // q2 (ms)
  std::optional<std::uint64_t> max_udp_payload_size;    // q3
  std::optional<std::uint64_t> initial_max_data;        // q4
  std::optional<std::uint64_t> initial_max_stream_data_bidi_local;   // q5
  std::optional<std::uint64_t> initial_max_stream_data_bidi_remote;  // q6
  std::optional<std::uint64_t> initial_max_stream_data_uni;          // q7
  std::optional<std::uint64_t> initial_max_streams_bidi;             // q8
  std::optional<std::uint64_t> initial_max_streams_uni;              // q9
  std::optional<std::uint64_t> max_ack_delay;           // q10 (ms)
  bool disable_active_migration = false;                // q11
  std::optional<std::uint64_t> active_connection_id_limit;  // q12
  Bytes initial_source_connection_id;                   // q13 (length matters)
  bool has_initial_source_connection_id = false;
  std::optional<std::uint64_t> max_datagram_frame_size;  // q14
  bool grease_quic_bit = false;                          // q15
  std::optional<std::uint64_t> initial_rtt_us = {};      // q16 (Google, µs)
  std::optional<std::string> google_connection_options;  // q17 (tag list)
  std::optional<std::string> user_agent;                 // q18
  std::optional<std::uint32_t> google_version;           // q19
  std::optional<std::uint64_t> ack_delay_exponent;       // carried, not an attr

  /// Parameter ids in wire order (q1 "quic_parameters" list attribute);
  /// includes GREASE ids when present.
  std::vector<std::uint64_t> param_order;

  /// Serializes in `param_order` order when non-empty (ids absent from the
  /// struct are skipped; GREASE ids emit a 1-byte opaque value); otherwise
  /// in ascending id order.
  Bytes serialize() const;

  /// WireTransportParameters::parse, with the values copied out.
  static std::optional<TransportParameters> parse(ByteView body);
};

}  // namespace vpscope::quic
