#include "quic/initial.hpp"

#include <algorithm>
#include <array>

#include "crypto/aes.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/sha256.hpp"
#include "quic/varint.hpp"

namespace vpscope::quic {

namespace {

// RFC 9001 §5.2: initial_salt for QUIC v1.
constexpr std::array<std::uint8_t, 20> kInitialSaltV1 = {
    0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
    0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a};

constexpr std::uint8_t kFramePadding = 0x00;
constexpr std::uint8_t kFramePing = 0x01;
constexpr std::uint8_t kFrameCrypto = 0x06;

// We always encode the packet number in 4 bytes and the Length field as a
// 2-byte varint: both are choices real clients make for Initial packets and
// they keep offset arithmetic simple.
constexpr std::size_t kPnLen = 4;

std::array<std::uint8_t, 12> make_nonce(const std::array<std::uint8_t, 12>& iv,
                                        std::uint64_t packet_number) {
  std::array<std::uint8_t, 12> nonce = iv;
  for (int i = 0; i < 8; ++i)
    nonce[nonce.size() - 1 - static_cast<std::size_t>(i)] ^=
        static_cast<std::uint8_t>(packet_number >> (8 * i));
  return nonce;
}

void put_varint_2byte(Writer& w, std::uint64_t v) {
  // Forced 2-byte encoding (RFC 9000 allows non-minimal varints for Length).
  w.u16(static_cast<std::uint16_t>(v | 0x4000));
}

}  // namespace

InitialKeys derive_client_initial_keys(ByteView dcid) {
  static const crypto::HmacSha256 salt_v1(kInitialSaltV1);
  const crypto::HmacSha256 initial_secret(salt_v1.mac({dcid}));  // Extract
  std::array<std::uint8_t, 32> client_secret;
  crypto::hkdf_expand_label(initial_secret, "client in", {}, client_secret);
  const crypto::HmacSha256 client(client_secret);
  InitialKeys keys;
  crypto::hkdf_expand_label(client, "quic key", {}, keys.key);
  crypto::hkdf_expand_label(client, "quic iv", {}, keys.iv);
  crypto::hkdf_expand_label(client, "quic hp", {}, keys.hp);
  return keys;
}

std::vector<Bytes> build_client_initial_flight(
    ByteView dcid, ByteView scid, ByteView crypto_stream,
    std::uint64_t first_packet_number, std::size_t datagram_size) {
  const InitialKeys keys = derive_client_initial_keys(dcid);
  const crypto::Aes128Gcm aead(keys.key);
  const crypto::Aes128 hp_cipher(keys.hp);

  const std::size_t target = std::max(datagram_size, kMinInitialDatagram);
  // Per-datagram budget for CRYPTO payload. Header:
  // 1 (first byte) + 4 (version) + 1 + dcid + 1 + scid + 1 (token len 0)
  // + 2 (length varint) + 4 (packet number); plus 16 B AEAD tag.
  const std::size_t header_len = 1 + 4 + 1 + dcid.size() + 1 + scid.size() +
                                 1 + 2 + kPnLen;
  const std::size_t max_plain = target - header_len - 16;

  std::vector<Bytes> datagrams;
  std::size_t offset = 0;
  std::uint64_t pn = first_packet_number;
  do {
    // CRYPTO frame header: type(1) + offset varint + length varint(2-byte).
    Writer plain;
    const std::size_t frame_overhead = 1 + varint_size(offset) + 2;
    const std::size_t chunk =
        std::min(crypto_stream.size() - offset, max_plain - frame_overhead);
    plain.u8(kFrameCrypto);
    put_varint(plain, offset);
    put_varint_2byte(plain, chunk);
    plain.raw(crypto_stream.subspan(offset, chunk));
    offset += chunk;
    // Pad the plaintext so the datagram reaches the 1200-byte floor.
    while (plain.size() < max_plain) plain.u8(kFramePadding);

    // Header (AAD) with the *unprotected* first byte and packet number.
    Writer hdr;
    hdr.u8(0xc0 | (kPnLen - 1));  // long header, fixed bit, Initial, pn len
    hdr.u32(kQuicVersion1);
    hdr.u8(static_cast<std::uint8_t>(dcid.size()));
    hdr.raw(dcid);
    hdr.u8(static_cast<std::uint8_t>(scid.size()));
    hdr.raw(scid);
    put_varint(hdr, 0);  // token length (client Initials carry none here)
    put_varint_2byte(hdr, kPnLen + plain.size() + 16);  // Length field
    const std::size_t pn_offset = hdr.size();
    hdr.u32(static_cast<std::uint32_t>(pn));

    const Bytes sealed =
        aead.seal(make_nonce(keys.iv, pn), hdr.data(), plain.data());

    Bytes packet = hdr.data();
    packet.insert(packet.end(), sealed.begin(), sealed.end());

    // Header protection (RFC 9001 §5.4): sample 16 bytes starting 4 bytes
    // past the packet number start, mask the first byte's low nibble and
    // the packet number bytes.
    std::array<std::uint8_t, 16> sample{};
    std::copy_n(packet.begin() + static_cast<std::ptrdiff_t>(pn_offset + 4),
                16, sample.begin());
    const auto mask = hp_cipher.encrypt_block(sample);
    packet[0] ^= mask[0] & 0x0f;
    for (std::size_t i = 0; i < kPnLen; ++i) packet[pn_offset + i] ^= mask[i + 1];

    datagrams.push_back(std::move(packet));
    ++pn;
  } while (offset < crypto_stream.size());
  return datagrams;
}

bool looks_like_initial(ByteView datagram) {
  if (datagram.size() < 7) return false;
  const std::uint8_t first = datagram[0];
  if ((first & 0x80) == 0) return false;  // not long header
  if ((first & 0x30) != 0x00) return false;  // not Initial
  const std::uint32_t version = static_cast<std::uint32_t>(datagram[1]) << 24 |
                                static_cast<std::uint32_t>(datagram[2]) << 16 |
                                static_cast<std::uint32_t>(datagram[3]) << 8 |
                                datagram[4];
  return version == kQuicVersion1;
}

std::optional<InitialPacket> unprotect_client_initial(ByteView datagram) {
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

bool CryptoReassembler::add(const InitialPacket& packet) {
  for (const auto& [offset, data] : packet.crypto_fragments)
    if (!add_fragment(offset, data)) return false;
  return true;
}

bool CryptoReassembler::add_fragment(std::uint64_t offset, ByteView data) {
  if (offset > kMaxCryptoStream || data.size() > kMaxCryptoStream - offset)
    return false;
  if (data.empty()) return true;
  const auto begin = static_cast<std::size_t>(offset);
  const std::size_t end = begin + data.size();
  if (buffer_.size() < end) buffer_.resize(end);
  const auto fill = [&](std::size_t from, std::size_t to) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(from - begin),
              data.begin() + static_cast<std::ptrdiff_t>(to - begin),
              buffer_.begin() + static_cast<std::ptrdiff_t>(from));
  };
  // Copy only the gaps between the ranges this fragment overlaps or
  // touches, then merge those ranges and the fragment into one.
  auto first = std::lower_bound(
      ranges_.begin(), ranges_.end(), begin,
      [](const auto& range, std::size_t at) { return range.second < at; });
  auto it = first;
  std::size_t cursor = begin;
  std::pair<std::size_t, std::size_t> merged{begin, end};
  for (; it != ranges_.end() && it->first <= end; ++it) {
    if (it->first > cursor) fill(cursor, it->first);
    cursor = std::max(cursor, it->second);
    merged.first = std::min(merged.first, it->first);
    merged.second = std::max(merged.second, it->second);
  }
  if (cursor < end) fill(cursor, end);
  if (first == it) {
    ranges_.insert(first, merged);
  } else {
    *first = merged;
    ranges_.erase(first + 1, it);
  }
  return true;
}

ByteView CryptoReassembler::prefix() const {
  if (ranges_.empty() || ranges_.front().first != 0) return {};
  return ByteView(buffer_).first(ranges_.front().second);
}

Bytes CryptoReassembler::contiguous_prefix() const {
  const ByteView p = prefix();
  return Bytes(p.begin(), p.end());
}

std::size_t CryptoReassembler::received_bytes() const {
  std::size_t total = 0;
  for (const auto& [begin, end] : ranges_) total += end - begin;
  return total;
}

}  // namespace vpscope::quic
