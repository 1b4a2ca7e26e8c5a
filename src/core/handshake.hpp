// FlowHandshake: everything an on-path observer learns from the first few
// connection-establishment packets of a video flow — the observation the
// paper's 62 attributes are derived from (its Fig. 2(b) blue region).
//
// For TCP flows this is the client SYN (flags/window/options) plus the TLS
// ClientHello record; for QUIC it is the Initial datagram(s), which are
// unprotected with the DCID-derived keys and reassembled into the
// ClientHello, including the embedded quic_transport_parameters.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "fingerprint/platform.hpp"
#include "net/packet.hpp"
#include "quic/initial.hpp"
#include "quic/transport_params.hpp"
#include "tls/client_hello.hpp"

namespace vpscope::core {

struct FlowHandshake {
  fingerprint::Transport transport = fingerprint::Transport::Tcp;

  // Transport-layer surface (attributes t1/t2 for both transports,
  // t3..t14 for TCP).
  std::size_t init_packet_size = 0;  // IP datagram size of SYN / first Initial
  std::uint8_t ttl = 0;
  net::TcpFlags syn_flags;
  std::uint16_t tcp_window = 0;
  std::optional<std::uint16_t> tcp_mss;
  std::optional<std::uint8_t> tcp_window_scale;
  bool tcp_sack_permitted = false;

  // TLS surface (m*/o* attributes) as the ClientHello's wire bytes, plus
  // the QUIC transport parameters (q* attributes) when the flow is QUIC,
  // parsed in place from chlo's quic_transport_parameters body.
  tls::WireClientHello chlo;
  std::optional<quic::WireTransportParameters> quic_tp;

  /// The body quic_tp was parsed from (empty when chlo has none).
  ByteView quic_tp_body() const {
    return chlo.quic_transport_parameters().value_or(ByteView{});
  }
};

/// Client bytes (TCP payload or QUIC CRYPTO stream) a flow may send without
/// a parseable ClientHello before it is declared not a TLS flow; the same
/// bound on both transports.
inline constexpr std::size_t kMaxClientHelloStream = quic::kMaxCryptoStream;

/// Incremental handshake extraction: feed packets of one flow in arrival
/// order; `handshake()` becomes available once the SYN+ClientHello (TCP) or
/// a complete Initial CRYPTO stream (QUIC) has been seen. Mirrors how the
/// real-time pipeline consumes a packet stream. The ClientHello is parsed
/// once into the handshake's WireClientHello: over TCP from the packet
/// payload when one segment carries it, else from the bytes buffered so
/// far; over QUIC each Initial is decrypted into a stack buffer, its CRYPTO
/// frames go into the reassembler, and the hello keeps the reassembler's
/// buffer as its own.
class HandshakeExtractor {
 public:
  /// Returns true if the packet advanced the handshake state (i.e. was a
  /// client handshake packet of interest).
  bool feed(const net::DecodedPacket& packet);

  bool complete() const { return complete_; }
  /// The client sent more than kMaxClientHelloStream bytes without a
  /// ClientHello (over TCP), or a CRYPTO frame reaching past that offset
  /// (over QUIC): not a TLS flow, and no later packet can change that.
  bool failed() const { return failed_; }
  const std::optional<FlowHandshake>& handshake() const { return result_; }

  /// The SNI observed in the ClientHello (a view into the handshake's
  /// buffer, valid while the extractor lives), empty until complete.
  std::string_view sni() const;

 private:
  bool feed_tcp(const net::DecodedPacket& packet);
  bool feed_quic(const net::DecodedPacket& packet);
  /// Marks the handshake complete once result_->chlo holds the hello.
  void finish();

  std::optional<FlowHandshake> result_;
  bool seen_syn_ = false;
  bool seen_initial_ = false;
  bool complete_ = false;
  bool failed_ = false;
  quic::CryptoReassembler reassembler_;
  /// Client-to-server TCP payload, buffered only once the first segment
  /// alone did not parse.
  Bytes tcp_stream_;
  std::optional<net::IpAddr> client_addr_;
  std::uint16_t client_port_ = 0;
};

/// One-shot convenience over a full packet capture of a single flow.
std::optional<FlowHandshake> extract_handshake(
    std::span<const net::Packet> packets);

}  // namespace vpscope::core
