#include "quic/initial.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

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

/// The length of the run of zero bytes `bytes` starts with. Each PADDING
/// frame is one zero byte and Initials carry hundreds in a row, so the run
/// is compared 16 bytes per step.
std::size_t zero_run(ByteView bytes) {
  std::size_t at = 0;
  for (; at + 16 <= bytes.size(); at += 16) {
    std::uint64_t words[2];
    std::memcpy(words, bytes.data() + at, sizeof(words));
    if ((words[0] | words[1]) != 0) break;
  }
  while (at < bytes.size() && bytes[at] == 0) ++at;
  return at;
}

enum class FrameStep { Crypto, End, Malformed };

/// Reads the frames of an Initial payload from `r` (over `frames`) up to
/// and including the next CRYPTO frame, into `out`; PADDING and PING are
/// skipped.
FrameStep next_crypto_frame(Reader& r, ByteView frames, CryptoFragment& out) {
  while (!r.empty()) {
    const std::uint8_t type = r.u8();
    if (type == kFramePadding) {
      r.skip(zero_run(frames.subspan(r.offset())));
      continue;
    }
    if (type == kFramePing) continue;
    // Only PADDING, PING and CRYPTO appear in the Initials we observe; any
    // other frame is treated as malformed rather than guessing its length
    // encoding.
    if (type != kFrameCrypto) return FrameStep::Malformed;
    const std::uint64_t offset = get_varint(r);
    const std::uint64_t length = get_varint(r);
    const ByteView data = r.view(static_cast<std::size_t>(length));
    if (!r.ok()) return FrameStep::Malformed;
    out = {offset, data};
    return FrameStep::Crypto;
  }
  return FrameStep::End;
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

CryptoFrames::iterator& CryptoFrames::iterator::operator++() {
  const ByteView rest = frames_.subspan(next_);
  Reader r(rest);
  done_ = next_crypto_frame(r, rest, current_) != FrameStep::Crypto;
  next_ = done_ ? 0 : next_ + r.offset();
  return *this;
}

std::optional<InitialView> unprotect_client_initial(
    ByteView datagram, std::span<std::uint8_t> scratch) {
  // Pre-filters (RFC 9000), all before the key schedule.
  if (!looks_like_initial(datagram)) return std::nullopt;
  if (datagram.size() < kMinInitialDatagram) return std::nullopt;  // §14.1

  InitialView out;
  Reader r(datagram);
  const std::uint8_t first_protected = r.u8();
  out.version = r.u32();
  const std::uint8_t dcid_len = r.u8();
  if (dcid_len < kMinClientDcid || dcid_len > kMaxConnectionId)
    return std::nullopt;  // §7.2, §17.2
  out.dcid = r.view(dcid_len);
  const std::uint8_t scid_len = r.u8();
  out.scid = r.view(scid_len);
  const std::uint64_t token_len = get_varint(r);
  out.token = r.view(static_cast<std::size_t>(token_len));
  const std::uint64_t length = get_varint(r);
  if (!r.ok()) return std::nullopt;
  const std::size_t pn_offset = r.offset();
  // The Length field must fit the datagram and cover at least 4 + 16
  // bytes, so the header-protection sample (16 bytes from 4 past the
  // packet number) lies inside the datagram too.
  if (r.remaining() < length || length < kPnLen + 16) return std::nullopt;

  const InitialKeys keys = derive_client_initial_keys(out.dcid);
  std::array<std::uint8_t, 16> sample;
  std::copy_n(datagram.begin() + static_cast<std::ptrdiff_t>(pn_offset + 4),
              16, sample.begin());
  const auto mask = crypto::Aes128(keys.hp).encrypt_block(sample);

  const std::uint8_t first = first_protected ^ (mask[0] & 0x0f);
  const std::size_t pn_len = static_cast<std::size_t>(first & 0x03) + 1;
  const std::size_t header_len = pn_offset + pn_len;
  const ByteView ciphertext = datagram.subspan(
      header_len, static_cast<std::size_t>(length) - pn_len);
  const std::size_t plaintext_len = ciphertext.size() - 16;
  if (scratch.size() < header_len + plaintext_len)
    throw std::invalid_argument("unprotect_client_initial: scratch too small");

  // The AAD is the header with the first byte and packet number unmasked.
  std::copy_n(datagram.begin(), header_len, scratch.begin());
  scratch[0] = first;
  for (std::size_t i = 0; i < pn_len; ++i) {
    scratch[pn_offset + i] ^= mask[i + 1];
    out.packet_number = out.packet_number << 8 | scratch[pn_offset + i];
  }
  // No packet-number recovery against a larger expected window is needed:
  // Initials arrive with tiny PNs and we always observe from packet 0.

  const std::span<std::uint8_t> plaintext =
      scratch.subspan(header_len, plaintext_len);
  if (!crypto::Aes128Gcm(keys.key).open_into(
          make_nonce(keys.iv, out.packet_number), scratch.first(header_len),
          ciphertext, plaintext))
    return std::nullopt;

  Reader frames(plaintext);
  CryptoFragment fragment;
  FrameStep step;
  while ((step = next_crypto_frame(frames, plaintext, fragment)) ==
         FrameStep::Crypto) {
  }
  if (step == FrameStep::Malformed) return std::nullopt;
  out.crypto_frames = CryptoFrames(plaintext);
  return out;
}

std::optional<InitialPacket> unprotect_client_initial(ByteView datagram) {
  if (!looks_like_initial(datagram)) return std::nullopt;
  Bytes scratch(datagram.size());
  const auto view = unprotect_client_initial(datagram, scratch);
  if (!view) return std::nullopt;
  InitialPacket out;
  out.version = view->version;
  out.dcid.assign(view->dcid.begin(), view->dcid.end());
  out.scid.assign(view->scid.begin(), view->scid.end());
  out.token.assign(view->token.begin(), view->token.end());
  out.packet_number = view->packet_number;
  for (const CryptoFragment& f : view->crypto_frames)
    out.crypto_fragments.emplace_back(f.offset,
                                      Bytes(f.data.begin(), f.data.end()));
  return out;
}

namespace {

// The received bits: bit i of 64-bit word w marks stream byte 64 * w + i.

std::size_t bitmap_bytes(std::size_t stream) { return (stream + 63) / 64 * 8; }

std::uint64_t load_word(const std::uint8_t* bits, std::size_t w) {
  std::uint64_t word;
  std::memcpy(&word, bits + 8 * w, sizeof(word));
  return word;
}

/// The first offset in [from, to) whose bit is `value`, or `to`.
std::size_t find_bit(const std::uint8_t* bits, std::size_t from,
                     std::size_t to, bool value) {
  for (std::size_t at = from; at < to;) {
    const std::size_t w = at / 64;
    std::uint64_t word = load_word(bits, w);
    if (!value) word = ~word;
    word &= ~std::uint64_t{0} << (at % 64);
    if (word != 0)
      return std::min(to, w * 64 + static_cast<std::size_t>(
                                       std::countr_zero(word)));
    at = (w + 1) * 64;
  }
  return to;
}

void set_bits(std::uint8_t* bits, std::size_t from, std::size_t to) {
  while (from < to) {
    const std::size_t w = from / 64;
    const std::size_t low = from % 64;
    const std::size_t n = std::min<std::size_t>(64 - low, to - from);
    const std::uint64_t mask =
        (n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1) << low;
    const std::uint64_t word = load_word(bits, w) | mask;
    std::memcpy(bits + 8 * w, &word, sizeof(word));
    from += n;
  }
}

ByteView fragment_data(const CryptoFragment& f) { return f.data; }
std::uint64_t fragment_offset(const CryptoFragment& f) { return f.offset; }
ByteView fragment_data(const std::pair<std::uint64_t, Bytes>& f) {
  return f.second;
}
std::uint64_t fragment_offset(const std::pair<std::uint64_t, Bytes>& f) {
  return f.first;
}

}  // namespace

template <class Fragments>
bool CryptoReassembler::add_all(const Fragments& fragments) {
  std::size_t end = 0;
  for (const auto& f : fragments) {
    const ByteView data = fragment_data(f);
    const std::uint64_t offset = fragment_offset(f);
    if (!within_crypto_stream(offset, data.size())) return false;
    if (!data.empty())
      end = std::max(end, static_cast<std::size_t>(offset) + data.size());
  }
  reserve(end);
  for (const auto& f : fragments)
    add_fragment(fragment_offset(f), fragment_data(f));
  return true;
}

bool CryptoReassembler::add(const InitialPacket& packet) {
  return add_all(packet.crypto_fragments);
}

bool CryptoReassembler::add(const CryptoFrames& frames) {
  return add_all(frames);
}

void CryptoReassembler::reserve(std::size_t size) {
  if (size <= size_) return;
  Bytes grown(size + bitmap_bytes(size));  // zero: nothing new received
  std::copy_n(buffer_.begin(), size_, grown.begin());
  std::copy_n(buffer_.begin() + static_cast<std::ptrdiff_t>(size_),
              bitmap_bytes(size_),
              grown.begin() + static_cast<std::ptrdiff_t>(size));
  buffer_.swap(grown);
  size_ = size;
}

bool CryptoReassembler::add_fragment(std::uint64_t offset, ByteView data) {
  if (!within_crypto_stream(offset, data.size())) return false;
  if (data.empty()) return true;
  const auto begin = static_cast<std::size_t>(offset);
  const std::size_t end = begin + data.size();
  reserve(end);
  std::uint8_t* bits = buffer_.data() + size_;
  // Copy only the runs not received yet.
  for (std::size_t at = find_bit(bits, begin, end, false); at < end;) {
    const std::size_t stop = find_bit(bits, at, end, true);
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(at - begin),
              data.begin() + static_cast<std::ptrdiff_t>(stop - begin),
              buffer_.begin() + static_cast<std::ptrdiff_t>(at));
    set_bits(bits, at, stop);
    at = find_bit(bits, stop, end, false);
  }
  return true;
}

ByteView CryptoReassembler::prefix() const {
  return ByteView(buffer_).first(
      find_bit(buffer_.data() + size_, 0, size_, false));
}

Bytes CryptoReassembler::contiguous_prefix() const {
  const ByteView p = prefix();
  return Bytes(p.begin(), p.end());
}

std::size_t CryptoReassembler::received_bytes() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < bitmap_bytes(size_) / 8; ++w)
    total += static_cast<std::size_t>(
        std::popcount(load_word(buffer_.data() + size_, w)));
  return total;
}

}  // namespace vpscope::quic
