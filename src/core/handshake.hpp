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

  // TLS surface (m*/o* attributes), plus parsed QUIC transport parameters
  // (q* attributes) when the flow is QUIC.
  tls::ClientHello chlo;
  std::optional<quic::TransportParameters> quic_tp;
};

/// Incremental handshake extraction: feed packets of one flow in arrival
/// order; `handshake()` becomes available once the SYN+ClientHello (TCP) or
/// a complete Initial CRYPTO stream (QUIC) has been seen. Mirrors how the
/// real-time pipeline consumes a packet stream.
class HandshakeExtractor {
 public:
  /// Returns true if the packet advanced the handshake state (i.e. was a
  /// client handshake packet of interest).
  bool feed(const net::DecodedPacket& packet);

  bool complete() const { return complete_; }
  /// The client sent more than a ClientHello's worth of data without one:
  /// not a TLS flow, and no later packet can change that.
  bool failed() const { return failed_; }
  const std::optional<FlowHandshake>& handshake() const { return result_; }

  /// The SNI observed in the ClientHello (a view into the parsed
  /// ClientHello, valid while the extractor lives), empty until complete.
  std::string_view sni() const;

 private:
  bool feed_tcp(const net::DecodedPacket& packet);
  bool feed_quic(const net::DecodedPacket& packet);
  void finish_with_chlo(tls::ClientHello chlo);

  std::optional<FlowHandshake> result_;
  bool seen_syn_ = false;
  bool seen_initial_ = false;
  bool complete_ = false;
  bool failed_ = false;
  quic::CryptoReassembler reassembler_;
  Bytes tcp_stream_;  // client-to-server TCP payload bytes accumulated
  std::optional<net::IpAddr> client_addr_;
  std::uint16_t client_port_ = 0;
};

/// One-shot convenience over a full packet capture of a single flow.
std::optional<FlowHandshake> extract_handshake(
    std::span<const net::Packet> packets);

}  // namespace vpscope::core
