#include "core/handshake.hpp"

#include <array>

#include "quic/initial.hpp"

namespace vpscope::core {

using fingerprint::Transport;

namespace {

/// The Initial datagrams feed_quic decrypts on its stack: up to a full
/// Ethernet payload.
constexpr std::size_t kStackDatagram = 1500;

}  // namespace

bool HandshakeExtractor::feed(const net::DecodedPacket& packet) {
  if (complete_ || failed_) return false;
  if (packet.tcp) return feed_tcp(packet);
  if (packet.udp) return feed_quic(packet);
  return false;
}

bool HandshakeExtractor::feed_tcp(const net::DecodedPacket& packet) {
  const net::TcpHeader& tcp = *packet.tcp;

  // The client SYN opens the observation.
  if (tcp.flags.syn && !tcp.flags.ack) {
    if (seen_syn_) return false;  // retransmission; first one wins
    seen_syn_ = true;
    client_addr_ = packet.src;
    client_port_ = tcp.src_port;

    FlowHandshake h;
    h.transport = Transport::Tcp;
    h.init_packet_size = packet.ip_packet_size;
    h.ttl = packet.ttl;
    h.syn_flags = tcp.flags;
    h.tcp_window = tcp.window;
    h.tcp_mss = tcp.options.mss;
    h.tcp_window_scale = tcp.options.window_scale;
    h.tcp_sack_permitted = tcp.options.sack_permitted;
    result_ = std::move(h);
    return true;
  }

  if (!seen_syn_ || !client_addr_) return false;
  // Only client-to-server payload can carry the ClientHello.
  if (packet.src != *client_addr_ || tcp.src_port != client_port_)
    return false;
  if (packet.payload.empty()) return false;

  // A ClientHello comfortably fits the first few segments; bail out if the
  // client sent lots of data without a parseable hello (not a TLS flow).
  const bool buffered = !tcp_stream_.empty();
  if (buffered)
    tcp_stream_.insert(tcp_stream_.end(), packet.payload.begin(),
                       packet.payload.end());
  if (result_->chlo.parse_record(buffered ? ByteView(tcp_stream_)
                                          : packet.payload)) {
    finish();
    return true;
  }
  if (!buffered) tcp_stream_.assign(packet.payload.begin(),
                                    packet.payload.end());
  if (tcp_stream_.size() > kMaxClientHelloStream) failed_ = true;
  return true;
}

bool HandshakeExtractor::feed_quic(const net::DecodedPacket& packet) {
  if (!quic::looks_like_initial(packet.payload)) return false;
  // Decrypt into this frame: an Initial fits any Ethernet MTU, and only a
  // larger datagram takes one heap buffer.
  std::array<std::uint8_t, kStackDatagram> stack_scratch;
  Bytes heap_scratch;
  std::span<std::uint8_t> scratch(stack_scratch);
  if (packet.payload.size() > scratch.size()) {
    heap_scratch.resize(packet.payload.size());
    scratch = heap_scratch;
  }
  // Only the client's Initials decrypt with the DCID-derived client keys;
  // server packets fail authentication and are skipped, so no explicit
  // direction tracking is needed.
  const auto initial = quic::unprotect_client_initial(packet.payload, scratch);
  if (!initial) return false;

  if (!seen_initial_) {
    seen_initial_ = true;
    FlowHandshake h;
    h.transport = Transport::Quic;
    h.init_packet_size = packet.ip_packet_size;
    h.ttl = packet.ttl;
    result_ = std::move(h);
  }
  // Every Initial's CRYPTO frames, however cut and ordered, go into the one
  // reassembly buffer, which the hello keeps as its own once it parses.
  if (!reassembler_.add(initial->crypto_frames)) {
    failed_ = true;  // a frame ends past kMaxClientHelloStream
    return true;
  }
  if (reassembler_.hand_over([&](Bytes& buffer, std::size_t size) {
        return result_->chlo.parse_handshake(buffer, size);
      }))
    finish();
  return true;
}

void HandshakeExtractor::finish() {
  if (result_->transport == Transport::Quic) {
    if (const auto tp_body = result_->chlo.quic_transport_parameters())
      result_->quic_tp = quic::WireTransportParameters::parse(*tp_body);
  }
  complete_ = true;
}

std::string_view HandshakeExtractor::sni() const {
  if (!complete_ || !result_) return {};
  return result_->chlo.server_name_view().value_or(std::string_view{});
}

std::optional<FlowHandshake> extract_handshake(
    std::span<const net::Packet> packets) {
  HandshakeExtractor extractor;
  net::DecodedPacket decoded;
  for (const auto& packet : packets) {
    if (!net::decode_into(packet, decoded)) continue;
    extractor.feed(decoded);
    if (extractor.complete()) break;
  }
  return extractor.complete() ? extractor.handshake() : std::nullopt;
}

}  // namespace vpscope::core
