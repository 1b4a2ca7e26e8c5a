// QUIC v1 Initial packets with real RFC 9001 protection.
//
// The paper's pipeline must "identify and decrypt QUIC Initial packets and
// extract handshake attributes from TLS CHLO messages over QUIC" (§4.3.4).
// Initial packets are encrypted with keys derived *from the public DCID*, so
// any on-path observer can remove the protection; this module implements
// both directions:
//
//   synthesize:  ClientHello bytes -> CRYPTO frames -> AEAD-sealed,
//                header-protected Initial packet(s), padded to >= 1200 B
//   observe:     UDP datagram -> header unprotection -> AEAD open ->
//                CRYPTO reassembly -> ClientHello bytes
//
// Large ClientHellos (e.g. post-quantum key shares) are split across
// multiple Initial datagrams, as real clients do.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/bytes.hpp"

namespace vpscope::quic {

inline constexpr std::uint32_t kQuicVersion1 = 0x00000001;
inline constexpr std::size_t kMinInitialDatagram = 1200;
/// The CRYPTO stream bytes a CryptoReassembler holds at most: a ClientHello
/// comfortably fits, and a frame reaching past it is refused.
inline constexpr std::size_t kMaxCryptoStream = 16384;

/// Cleartext view of one Initial packet (after header/payload unprotection).
struct InitialPacket {
  std::uint32_t version = kQuicVersion1;
  Bytes dcid;
  Bytes scid;
  Bytes token;
  std::uint64_t packet_number = 0;
  /// CRYPTO frame fragments carried by this packet: (stream offset, data).
  std::vector<std::pair<std::uint64_t, Bytes>> crypto_fragments;
};

/// Client Initial AEAD/HP key material derived from the DCID (RFC 9001 §5.2).
/// Fixed-size fields convert to ByteView.
struct InitialKeys {
  std::array<std::uint8_t, 16> key{};  // AES-128-GCM
  std::array<std::uint8_t, 12> iv{};
  std::array<std::uint8_t, 16> hp{};   // header protection
};

/// The v1 key schedule without heap use: the initial salt is keyed into its
/// HMAC pad states once per process, each derived secret once per call.
InitialKeys derive_client_initial_keys(ByteView dcid);

/// Builds the protected client Initial flight carrying `crypto_stream`
/// (a serialized TLS handshake message). Returns one or more UDP payloads;
/// every datagram is padded to `datagram_size` bytes (client stacks pad to
/// stack-specific sizes >= the RFC 9000 floor of 1200; values below the
/// floor are clamped up to it).
std::vector<Bytes> build_client_initial_flight(
    ByteView dcid, ByteView scid, ByteView crypto_stream,
    std::uint64_t first_packet_number = 0,
    std::size_t datagram_size = kMinInitialDatagram);

/// Removes protection from one client Initial datagram. Returns nullopt if
/// the datagram is not a v1 Initial or authentication fails.
std::optional<InitialPacket> unprotect_client_initial(ByteView datagram);

/// Reassembles the client's CRYPTO stream from the Initials of one flow, in
/// any arrival order, into one buffer with the ranges received so far.
/// Bytes already received at an offset keep their first value (RFC 9000
/// §2.2), so a duplicated or overlapping fragment never grows what is held.
class CryptoReassembler {
 public:
  /// Adds the packet's CRYPTO fragments. Returns false, refusing the rest
  /// of the packet, when a fragment would end past kMaxCryptoStream.
  bool add(const InitialPacket& packet);
  /// The gapless prefix of the stream from offset 0, in place (valid until
  /// the next add).
  ByteView prefix() const;
  /// A copy of prefix().
  Bytes contiguous_prefix() const;
  /// Stream bytes held: the union of the fragments' ranges.
  std::size_t received_bytes() const;

 private:
  bool add_fragment(std::uint64_t offset, ByteView data);

  Bytes buffer_;  // stream bytes at their offsets; unreceived bytes are 0
  /// Received [begin, end) ranges, sorted, disjoint and never adjacent.
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;
};

/// True if the datagram looks like a QUIC v1 long-header Initial (cheap
/// pre-filter used by the pipeline before attempting decryption).
bool looks_like_initial(ByteView datagram);

}  // namespace vpscope::quic
