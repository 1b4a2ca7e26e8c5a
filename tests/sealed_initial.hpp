// Client QUIC Initials built by the tests: any plaintext frame sequence,
// sealed and header-protected as RFC 9001 §5 lays it out, and a client
// Initial re-cut into CRYPTO frames shuffled between PING and PADDING. The
// second is the shape Chrome's QUIC stack sends; the library's own
// build_client_initial_flight always writes one CRYPTO frame at offset 0,
// then PADDING.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/aes.hpp"
#include "net/packet.hpp"
#include "quic/initial.hpp"
#include "quic/varint.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace vpscope::sealed {

/// A client Initial around an arbitrary plaintext frame sequence: a 2-byte
/// Length, a 4-byte packet number, then PADDING up to `datagram_size`.
inline Bytes seal_initial(ByteView dcid, ByteView scid, ByteView token,
                          std::uint64_t pn, Bytes frames,
                          std::size_t datagram_size) {
  constexpr std::size_t kPnLen = 4;
  const std::size_t header_len = 1 + 4 + 1 + dcid.size() + 1 + scid.size() +
                                 quic::varint_size(token.size()) +
                                 token.size() + 2 + kPnLen;
  if (datagram_size > header_len + frames.size() + 16)
    frames.resize(datagram_size - header_len - 16, 0x00);
  Writer hdr;
  hdr.u8(0xc0 | (kPnLen - 1));
  hdr.u32(quic::kQuicVersion1);
  hdr.u8(static_cast<std::uint8_t>(dcid.size()));
  hdr.raw(dcid);
  hdr.u8(static_cast<std::uint8_t>(scid.size()));
  hdr.raw(scid);
  quic::put_varint(hdr, token.size());
  hdr.raw(token);
  hdr.u16(static_cast<std::uint16_t>((kPnLen + frames.size() + 16) | 0x4000));
  const std::size_t pn_offset = hdr.size();
  hdr.u32(static_cast<std::uint32_t>(pn));

  const quic::InitialKeys keys = quic::derive_client_initial_keys(dcid);
  std::array<std::uint8_t, 12> nonce = keys.iv;  // RFC 9001 §5.3
  for (std::size_t i = 0; i < 8; ++i)
    nonce[11 - i] ^= static_cast<std::uint8_t>(pn >> (8 * i));
  const Bytes sealed =
      crypto::Aes128Gcm(keys.key).seal(nonce, hdr.data(), frames);
  Bytes packet = hdr.data();
  packet.insert(packet.end(), sealed.begin(), sealed.end());
  std::array<std::uint8_t, 16> sample;
  std::copy_n(packet.begin() + static_cast<std::ptrdiff_t>(pn_offset + 4), 16,
              sample.begin());
  const auto mask = crypto::Aes128(keys.hp).encrypt_block(sample);
  packet[0] ^= mask[0] & 0x0f;
  for (std::size_t i = 0; i < kPnLen; ++i) packet[pn_offset + i] ^= mask[i + 1];
  return packet;
}

/// `data`, the CRYPTO stream bytes from `offset`, as `pieces` frames of
/// random lengths (some may be empty), shuffled, with PING and PADDING runs
/// between them.
inline Bytes shuffled_crypto_frames(Rng& rng, std::uint64_t offset,
                                    ByteView data, std::size_t pieces) {
  std::vector<std::pair<std::size_t, std::size_t>> cuts;  // [begin, end)
  std::size_t at = 0;
  for (std::size_t i = 0; i < pieces; ++i) {
    const std::size_t end =
        i + 1 == pieces
            ? data.size()
            : std::min(data.size(),
                       at + rng.uniform(0, 2 * data.size() / pieces + 1));
    cuts.emplace_back(at, end);
    at = end;
  }
  rng.shuffle(cuts);
  Writer w;
  for (const auto& [begin, end] : cuts) {
    for (std::size_t k = rng.uniform(0, 3); k > 0; --k)
      w.u8(rng.bernoulli(0.5) ? 0x01 : 0x00);  // PING or PADDING
    if (rng.bernoulli(0.2)) w.raw(Bytes(rng.uniform(1, 40), 0x00));
    w.u8(0x06);
    quic::put_varint(w, offset + begin);
    quic::put_varint(w, end - begin);
    w.raw(data.subspan(begin, end - begin));
  }
  return std::move(w).take();
}

/// The client Initial `datagram` with each CRYPTO fragment re-cut into
/// `pieces` shuffled frames and sealed again at the same size; nullopt when
/// it is not a client Initial or the frames do not fit that size.
inline std::optional<Bytes> reshuffled_initial(ByteView datagram, Rng& rng,
                                               std::size_t pieces) {
  const auto initial = quic::unprotect_client_initial(datagram);
  if (!initial) return std::nullopt;
  Bytes frames;
  for (const auto& [offset, data] : initial->crypto_fragments) {
    const Bytes cut = shuffled_crypto_frames(rng, offset, data, pieces);
    frames.insert(frames.end(), cut.begin(), cut.end());
  }
  Bytes sealed = seal_initial(initial->dcid, initial->scid, initial->token,
                              initial->packet_number, std::move(frames),
                              datagram.size());
  if (sealed.size() != datagram.size()) return std::nullopt;
  return sealed;
}

/// `packet` with its UDP payload, the last payload.size() bytes of the IP
/// packet, replaced (UDP checksum 0, as the synthesizer writes it).
inline net::Packet with_udp_payload(net::Packet packet, ByteView payload) {
  std::copy(payload.begin(), payload.end(),
            packet.data.end() - static_cast<std::ptrdiff_t>(payload.size()));
  return packet;
}

}  // namespace vpscope::sealed
