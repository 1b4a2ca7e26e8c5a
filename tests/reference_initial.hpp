// The QUIC Initial observe path as it stood before the scratch rewrite,
// kept as the reference the Initial oracle and the encoder equivalence test
// compare against: the allocating unprotect_client_initial (no pre-filters,
// header and plaintext on the heap, fragments copied out) and the
// structural transport-parameter parse, copied with only their names moved
// into this namespace. Both call the library's key schedule and AEAD, which
// crypto_test checks against published vectors and the kernel oracle.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "crypto/aes.hpp"
#include "quic/initial.hpp"
#include "quic/transport_params.hpp"
#include "quic/varint.hpp"
#include "util/bytes.hpp"

namespace vpscope::reference {

using quic::derive_client_initial_keys;
using quic::get_varint;
using quic::InitialKeys;
using quic::InitialPacket;
using quic::looks_like_initial;
using quic::TransportParameters;
namespace tp = quic::tp;

constexpr std::uint8_t kFramePadding = 0x00;
constexpr std::uint8_t kFramePing = 0x01;
constexpr std::uint8_t kFrameCrypto = 0x06;
constexpr std::size_t kPnLen = 4;

inline std::array<std::uint8_t, 12> make_nonce(
    const std::array<std::uint8_t, 12>& iv, std::uint64_t packet_number) {
  std::array<std::uint8_t, 12> nonce = iv;
  for (int i = 0; i < 8; ++i)
    nonce[nonce.size() - 1 - static_cast<std::size_t>(i)] ^=
        static_cast<std::uint8_t>(packet_number >> (8 * i));
  return nonce;
}

inline std::optional<InitialPacket> unprotect_client_initial(
    ByteView datagram) {
  if (!looks_like_initial(datagram)) return std::nullopt;

  Reader r(datagram);
  const std::uint8_t first_protected = r.u8();
  const std::uint32_t version = r.u32();
  const std::uint8_t dcid_len = r.u8();
  const ByteView dcid = r.view(dcid_len);
  const std::uint8_t scid_len = r.u8();
  const ByteView scid = r.view(scid_len);
  const std::uint64_t token_len = get_varint(r);
  const ByteView token = r.view(static_cast<std::size_t>(token_len));
  const std::uint64_t length = get_varint(r);
  if (!r.ok()) return std::nullopt;
  const std::size_t pn_offset = r.offset();
  if (r.remaining() < length || length < kPnLen + 16) return std::nullopt;

  const InitialKeys keys = derive_client_initial_keys(dcid);
  const crypto::Aes128 hp_cipher(keys.hp);

  if (datagram.size() < pn_offset + 4 + 16) return std::nullopt;
  std::array<std::uint8_t, 16> sample{};
  std::copy_n(datagram.begin() + static_cast<std::ptrdiff_t>(pn_offset + 4),
              16, sample.begin());
  const auto mask = hp_cipher.encrypt_block(sample);

  const std::uint8_t first = first_protected ^ (mask[0] & 0x0f);
  const std::size_t pn_len = static_cast<std::size_t>(first & 0x03) + 1;
  std::uint64_t pn = 0;
  Bytes header(datagram.begin(),
               datagram.begin() + static_cast<std::ptrdiff_t>(pn_offset + pn_len));
  header[0] = first;
  for (std::size_t i = 0; i < pn_len; ++i) {
    const std::uint8_t b = datagram[pn_offset + i] ^ mask[i + 1];
    header[pn_offset + i] = b;
    pn = pn << 8 | b;
  }
  // No packet-number recovery against a larger expected window is needed:
  // Initials arrive with tiny PNs and we always observe from packet 0.

  const crypto::Aes128Gcm aead(keys.key);
  const ByteView ciphertext =
      datagram.subspan(pn_offset + pn_len,
                       static_cast<std::size_t>(length) - pn_len);
  const auto plain = aead.open(make_nonce(keys.iv, pn), header, ciphertext);
  if (!plain) return std::nullopt;

  InitialPacket out;
  out.version = version;
  out.dcid.assign(dcid.begin(), dcid.end());
  out.scid.assign(scid.begin(), scid.end());
  out.token.assign(token.begin(), token.end());
  out.packet_number = pn;

  Reader fr(*plain);
  while (!fr.empty()) {
    const std::uint8_t type = fr.u8();
    if (!fr.ok()) break;
    if (type == kFramePadding) {
      // Each PADDING frame is a single zero byte and Initials carry
      // hundreds of them in a row: skip the whole run at once.
      const ByteView rest = ByteView{*plain}.subspan(fr.offset());
      fr.skip(static_cast<std::size_t>(
          std::find_if(rest.begin(), rest.end(),
                       [](std::uint8_t b) { return b != kFramePadding; }) -
          rest.begin()));
      continue;
    }
    if (type == kFramePing) continue;
    if (type == kFrameCrypto) {
      const std::uint64_t off = get_varint(fr);
      const std::uint64_t len = get_varint(fr);
      if (!fr.ok()) return std::nullopt;
      Bytes data = fr.bytes(static_cast<std::size_t>(len));
      if (!fr.ok()) return std::nullopt;
      out.crypto_fragments.emplace_back(off, std::move(data));
    } else {
      // Unknown frame in an Initial we synthesized ourselves: treat as
      // malformed rather than guessing its length encoding.
      return std::nullopt;
    }
  }
  return out;
}

inline std::optional<TransportParameters> parse_transport_parameters(
    ByteView body) {
  TransportParameters out;
  Reader r(body);
  while (!r.empty()) {
    const std::uint64_t id = get_varint(r);
    const std::uint64_t len = get_varint(r);
    if (!r.ok()) return std::nullopt;
    const ByteView value = r.view(static_cast<std::size_t>(len));
    if (!r.ok()) return std::nullopt;
    out.param_order.push_back(id);

    Reader vr(value);
    auto read_varint_value = [&]() -> std::optional<std::uint64_t> {
      const std::uint64_t v = get_varint(vr);
      return vr.ok() ? std::optional(v) : std::nullopt;
    };

    switch (id) {
      case tp::kMaxIdleTimeout:
        out.max_idle_timeout = read_varint_value();
        break;
      case tp::kMaxUdpPayloadSize:
        out.max_udp_payload_size = read_varint_value();
        break;
      case tp::kInitialMaxData:
        out.initial_max_data = read_varint_value();
        break;
      case tp::kInitialMaxStreamDataBidiLocal:
        out.initial_max_stream_data_bidi_local = read_varint_value();
        break;
      case tp::kInitialMaxStreamDataBidiRemote:
        out.initial_max_stream_data_bidi_remote = read_varint_value();
        break;
      case tp::kInitialMaxStreamDataUni:
        out.initial_max_stream_data_uni = read_varint_value();
        break;
      case tp::kInitialMaxStreamsBidi:
        out.initial_max_streams_bidi = read_varint_value();
        break;
      case tp::kInitialMaxStreamsUni:
        out.initial_max_streams_uni = read_varint_value();
        break;
      case tp::kAckDelayExponent:
        out.ack_delay_exponent = read_varint_value();
        break;
      case tp::kMaxAckDelay:
        out.max_ack_delay = read_varint_value();
        break;
      case tp::kDisableActiveMigration:
        out.disable_active_migration = true;
        break;
      case tp::kActiveConnectionIdLimit:
        out.active_connection_id_limit = read_varint_value();
        break;
      case tp::kInitialSourceConnectionId:
        out.initial_source_connection_id.assign(value.begin(), value.end());
        out.has_initial_source_connection_id = true;
        break;
      case tp::kMaxDatagramFrameSize:
        out.max_datagram_frame_size = read_varint_value();
        break;
      case tp::kGreaseQuicBit:
        out.grease_quic_bit = true;
        break;
      case tp::kInitialRtt:
        out.initial_rtt_us = read_varint_value();
        break;
      case tp::kGoogleConnectionOptions:
        out.google_connection_options =
            std::string(reinterpret_cast<const char*>(value.data()),
                        value.size());
        break;
      case tp::kUserAgent:
        out.user_agent = std::string(
            reinterpret_cast<const char*>(value.data()), value.size());
        break;
      case tp::kGoogleVersion:
        if (value.size() >= 4)
          out.google_version = static_cast<std::uint32_t>(value[0]) << 24 |
                               static_cast<std::uint32_t>(value[1]) << 16 |
                               static_cast<std::uint32_t>(value[2]) << 8 |
                               value[3];
        break;
      default:
        break;  // unknown/GREASE ids are recorded in param_order only
    }
  }
  return out;
}

}  // namespace vpscope::reference
