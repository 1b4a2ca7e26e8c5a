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
//   observe:     UDP datagram -> RFC 9000 pre-filters -> header
//                unprotection -> AEAD open -> CRYPTO frames ->
//                reassembly -> ClientHello bytes
//
// The observe direction runs in caller memory: the header copy and the
// plaintext go into a caller scratch buffer, and the connection ids, token
// and CRYPTO fragments are views. The owning InitialPacket form wraps it.
//
// Large ClientHellos (e.g. post-quantum key shares) are split across
// multiple Initial datagrams, as real clients do.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace vpscope::quic {

inline constexpr std::uint32_t kQuicVersion1 = 0x00000001;
inline constexpr std::size_t kMinInitialDatagram = 1200;
/// The CRYPTO stream bytes a CryptoReassembler holds at most: a ClientHello
/// comfortably fits, and a frame reaching past it is refused.
inline constexpr std::size_t kMaxCryptoStream = 16384;
/// Client-chosen DCID bounds on first contact: at least 8 bytes (RFC 9000
/// §7.2), at most 20 in QUIC v1 (§17.2).
inline constexpr std::size_t kMinClientDcid = 8;
inline constexpr std::size_t kMaxConnectionId = 20;

/// True when CRYPTO stream bytes [offset, offset + size) end within
/// kMaxCryptoStream.
inline bool within_crypto_stream(std::uint64_t offset, std::size_t size) {
  return offset <= kMaxCryptoStream && size <= kMaxCryptoStream - offset;
}

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

/// One CRYPTO frame of an unprotected Initial: its stream offset and bytes.
struct CryptoFragment {
  std::uint64_t offset = 0;
  ByteView data;
};

/// The CRYPTO frames of an Initial payload the unprotect already walked and
/// validated, in packet order, PADDING and PING skipped; the walk here
/// checks nothing. Views into the caller's scratch buffer.
class CryptoFrames {
 public:
  class iterator {
   public:
    iterator() = default;  // the end
    explicit iterator(ByteView frames) : frames_(frames) { ++*this; }
    const CryptoFragment& operator*() const { return current_; }
    const CryptoFragment* operator->() const { return &current_; }
    iterator& operator++();
    bool operator==(const iterator& o) const {
      return done_ == o.done_ && next_ == o.next_;
    }

   private:
    ByteView frames_;
    std::size_t next_ = 0;  // read position past current_
    bool done_ = true;
    CryptoFragment current_;
  };

  CryptoFrames() = default;
  explicit CryptoFrames(ByteView frames) : frames_(frames) {}
  iterator begin() const { return iterator(frames_); }
  iterator end() const { return {}; }

 private:
  ByteView frames_;
};

/// A client Initial with protection removed, every field a view: the
/// connection ids and token into the datagram, the CRYPTO frames into the
/// caller's scratch.
struct InitialView {
  std::uint32_t version = kQuicVersion1;
  ByteView dcid;
  ByteView scid;
  ByteView token;
  std::uint64_t packet_number = 0;
  CryptoFrames crypto_frames;
};

/// Removes protection from one client Initial datagram into `scratch`,
/// which holds the header copy the AEAD authenticates and the plaintext.
/// A scratch of datagram.size() bytes always suffices; throws
/// std::invalid_argument when it is too small for this datagram. Returns
/// nullopt, before any crypto, when the datagram is not a v1 Initial or a
/// pre-filter refuses it:
///   - a UDP payload under kMinInitialDatagram (RFC 9000 §14.1: a server
///     discards it; a snap-truncated Initial cannot authenticate anyway);
///   - a DCID outside [kMinClientDcid, kMaxConnectionId];
///   - a Length field that overruns the datagram or is too short to hold
///     the packet number and tag, which also keeps the header-protection
///     sample inside the datagram;
/// and after the crypto when authentication fails or a frame is malformed.
std::optional<InitialView> unprotect_client_initial(
    ByteView datagram, std::span<std::uint8_t> scratch);

/// The owning form: the same unprotect, with the views copied out.
std::optional<InitialPacket> unprotect_client_initial(ByteView datagram);

/// Reassembles the client's CRYPTO stream from the Initials of one flow, in
/// any arrival order, into one buffer: the stream bytes at their offsets,
/// then one bit per stream byte marking what was received. Bytes already
/// received at an offset keep their first value (RFC 9000 §2.2), so a
/// duplicated or overlapping fragment never grows what is held. The buffer
/// grows at most once per Initial, to its furthest fragment end, so a
/// ClientHello one Initial carries is reassembled in one allocation however
/// its frames are cut and ordered.
class CryptoReassembler {
 public:
  /// Adds the packet's CRYPTO fragments. Returns false, holding none of
  /// them, when one would end past kMaxCryptoStream.
  bool add(const InitialPacket& packet);
  /// The same for the frames of an Initial unprotected into scratch.
  bool add(const CryptoFrames& frames);
  /// Adds one fragment; false, holding nothing of it, when it would end
  /// past kMaxCryptoStream.
  bool add_fragment(std::uint64_t offset, ByteView data);
  /// The gapless prefix of the stream from offset 0, in place (valid until
  /// the next add).
  ByteView prefix() const;
  /// A copy of prefix().
  Bytes contiguous_prefix() const;
  /// Stream bytes held: the union of the fragments' ranges.
  std::size_t received_bytes() const;
  /// Offers the buffer, whose first `size` bytes are prefix(), to
  /// `take(Bytes& buffer, std::size_t size)`. When `take` moves the buffer
  /// out it returns true, and this reassembler is left empty; otherwise
  /// nothing changes.
  template <class Take>
  bool hand_over(Take&& take) {
    if (!take(buffer_, prefix().size())) return false;
    *this = CryptoReassembler();
    return true;
  }

 private:
  /// Grows the buffer to hold stream bytes [0, size) in one allocation.
  void reserve(std::size_t size);
  template <class Fragments>
  bool add_all(const Fragments& fragments);

  Bytes buffer_;  // stream bytes [0, size_), then the received bits
  std::size_t size_ = 0;
};

/// True if the datagram looks like a QUIC v1 long-header Initial (cheap
/// pre-filter used by the pipeline before attempting decryption).
bool looks_like_initial(ByteView datagram);

}  // namespace vpscope::quic
