#include "net/tcp.hpp"

namespace vpscope::net {

std::uint8_t TcpFlags::to_byte() const {
  return static_cast<std::uint8_t>(
      (cwr << 7) | (ece << 6) | (urg << 5) | (ack << 4) | (psh << 3) |
      (rst << 2) | (syn << 1) | static_cast<int>(fin));
}

TcpFlags TcpFlags::from_byte(std::uint8_t b) {
  TcpFlags f;
  f.cwr = b & 0x80;
  f.ece = b & 0x40;
  f.urg = b & 0x20;
  f.ack = b & 0x10;
  f.psh = b & 0x08;
  f.rst = b & 0x04;
  f.syn = b & 0x02;
  f.fin = b & 0x01;
  return f;
}

namespace {
constexpr std::uint8_t kOptEol = 0;
constexpr std::uint8_t kOptNop = 1;
constexpr std::uint8_t kOptMss = 2;
constexpr std::uint8_t kOptWScale = 3;
constexpr std::uint8_t kOptSackPerm = 4;
constexpr std::uint8_t kOptTimestamps = 8;

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}
}  // namespace

Bytes TcpHeader::serialize(ByteView payload) const {
  Writer opt;
  // Emit options in the order recorded in kind_order when present, so a
  // fingerprint's option sequence round-trips exactly. Fall back to a
  // conventional order otherwise.
  TcpOptionKinds order = options.kind_order;
  if (order.empty()) {
    if (options.mss) order.push_back(kOptMss);
    if (options.window_scale) order.push_back(kOptWScale);
    if (options.sack_permitted) order.push_back(kOptSackPerm);
    if (options.timestamps) order.push_back(kOptTimestamps);
  }
  for (std::uint8_t kind : order) {
    switch (kind) {
      case kOptNop:
        opt.u8(kOptNop);
        break;
      case kOptMss:
        if (options.mss) {
          opt.u8(kOptMss);
          opt.u8(4);
          opt.u16(*options.mss);
        }
        break;
      case kOptWScale:
        if (options.window_scale) {
          opt.u8(kOptWScale);
          opt.u8(3);
          opt.u8(*options.window_scale);
        }
        break;
      case kOptSackPerm:
        if (options.sack_permitted) {
          opt.u8(kOptSackPerm);
          opt.u8(2);
        }
        break;
      case kOptTimestamps:
        if (options.timestamps) {
          opt.u8(kOptTimestamps);
          opt.u8(10);
          opt.u32(options.ts_value);
          opt.u32(0);  // echo reply, zero in SYN
        }
        break;
      default:
        break;  // unknown kinds are not synthesized
    }
  }
  while (opt.size() % 4 != 0) opt.u8(kOptEol);

  const std::size_t header_len = kMinSize + opt.size();
  Writer w;
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u8(static_cast<std::uint8_t>((header_len / 4) << 4));
  w.u8(flags.to_byte());
  w.u16(window);
  w.u16(0);  // checksum (see header comment)
  w.u16(0);  // urgent pointer
  w.raw(opt.data());
  w.raw(payload);
  return std::move(w).take();
}

bool TcpHeader::parse_into(ByteView segment, TcpHeader& h,
                           std::size_t* header_len) {
  if (segment.size() < kMinSize) return false;
  const std::uint8_t* p = segment.data();
  h.src_port = static_cast<std::uint16_t>(p[0] << 8 | p[1]);
  h.dst_port = static_cast<std::uint16_t>(p[2] << 8 | p[3]);
  h.seq = load_be32(p + 4);
  h.ack = load_be32(p + 8);
  h.flags = TcpFlags::from_byte(p[13]);
  h.window = static_cast<std::uint16_t>(p[14] << 8 | p[15]);
  // p[16..19]: checksum + urgent pointer, not modeled.

  const std::size_t hlen = (p[12] >> 4) * std::size_t{4};
  if (hlen < kMinSize || segment.size() < hlen) return false;

  std::size_t at = kMinSize;
  while (at < hlen) {
    const std::uint8_t kind = p[at++];
    if (kind == kOptEol) break;
    h.options.kind_order.push_back(kind);
    if (kind == kOptNop) continue;
    if (at == hlen) return false;  // the length byte is missing
    const std::uint8_t len = p[at++];
    if (len < 2) return false;
    const std::size_t body_len = len - std::size_t{2};
    if (body_len > hlen - at) return false;
    const std::uint8_t* body = p + at;
    at += body_len;
    switch (kind) {
      case kOptMss:
        if (body_len == 2)
          h.options.mss = static_cast<std::uint16_t>(body[0] << 8 | body[1]);
        break;
      case kOptWScale:
        if (body_len == 1) h.options.window_scale = body[0];
        break;
      case kOptSackPerm:
        h.options.sack_permitted = true;
        break;
      case kOptTimestamps:
        if (body_len == 8) {
          h.options.timestamps = true;
          h.options.ts_value = load_be32(body);
        }
        break;
      default:
        break;
    }
  }

  if (header_len) *header_len = hlen;
  return true;
}

std::optional<TcpHeader> TcpHeader::parse(ByteView segment,
                                          std::size_t* header_len) {
  std::optional<TcpHeader> h(std::in_place);
  if (!parse_into(segment, *h, header_len)) h.reset();
  return h;
}

}  // namespace vpscope::net
