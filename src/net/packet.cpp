#include "net/packet.hpp"

#include <algorithm>
#include <bit>

namespace vpscope::net {

namespace {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix, so every output bit
/// depends on every input bit. The flow table only needs a decent hash, but
/// the sharded pipeline assigns workers by `hash % n_shards` — low bits must
/// be as mixed as high bits or low-entropy keys (sequential client
/// addresses, fixed server port) skew the shards.
std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Word `i` of the address in big-endian order: comparing these numbers
/// orders addresses exactly as comparing their bytes does.
std::uint64_t be_word(const IpAddr& addr, int i) {
  const std::uint64_t w = addr.words()[static_cast<std::size_t>(i)];
  if constexpr (std::endian::native == std::endian::little)
    return __builtin_bswap64(w);
  return w;
}

/// Word `i` of the address as a little-endian number: a plain load on a
/// little-endian host and a byte swap on a big-endian one, so FlowKeyHash
/// (and with it shard placement, sampling and canary routes) gives the
/// same value on every host.
std::uint64_t le_word(const IpAddr& addr, int i) {
  const std::uint64_t w = addr.words()[static_cast<std::size_t>(i)];
  if constexpr (std::endian::native == std::endian::big)
    return __builtin_bswap64(w);
  return w;
}

}  // namespace

FlowKey FlowKey::canonical(const IpAddr& src, std::uint16_t sport,
                           const IpAddr& dst, std::uint16_t dport,
                           std::uint8_t protocol, bool* from_a_to_b) {
  FlowKey k;
  k.protocol = protocol;
  // (src bytes, sport) <= (dst bytes, dport), lexicographically.
  const std::uint64_t s0 = be_word(src, 0), d0 = be_word(dst, 0);
  const std::uint64_t s1 = be_word(src, 1), d1 = be_word(dst, 1);
  const bool src_first = s0 != d0   ? s0 < d0
                         : s1 != d1 ? s1 < d1
                                    : sport <= dport;
  if (src_first) {
    k.addr_a = src;
    k.port_a = sport;
    k.addr_b = dst;
    k.port_b = dport;
  } else {
    k.addr_a = dst;
    k.port_a = dport;
    k.addr_b = src;
    k.port_b = sport;
  }
  if (from_a_to_b) *from_a_to_b = src_first;
  return k;
}

std::size_t FlowKeyHash::operator()(const FlowKey& k) const {
  // Five key words, each multiplied by its own odd constant: a bijection
  // per word, so keys that differ in one word differ here too. The
  // products are independent of each other, so they issue in parallel;
  // rotations place them apart before the XOR, and one SplitMix64 round
  // finishes the mix. The address words are read little-endian, so the
  // values are the same on every host; only FlowKey::canonical needs them
  // in byte order.
  const std::uint64_t ports = std::uint64_t{k.protocol} << 32 |
                              std::uint64_t{k.port_a} << 16 | k.port_b;
  const std::uint64_t h =
      le_word(k.addr_a, 0) * 0x9e3779b185ebca87ULL ^
      std::rotl(le_word(k.addr_a, 1) * 0xc2b2ae3d27d4eb4fULL, 21) ^
      std::rotl(le_word(k.addr_b, 0) * 0x165667b19e3779f9ULL, 42) ^
      std::rotl(le_word(k.addr_b, 1) * 0x85ebca77c2b2ae63ULL, 11) ^
      std::rotl(ports * 0x27d4eb2f165667c5ULL, 32);
  return static_cast<std::size_t>(splitmix64(h));
}

std::uint16_t DecodedPacket::src_port() const {
  if (tcp) return tcp->src_port;
  if (udp) return udp->src_port;
  return 0;
}

std::uint16_t DecodedPacket::dst_port() const {
  if (tcp) return tcp->dst_port;
  if (udp) return udp->dst_port;
  return 0;
}

FlowKey DecodedPacket::flow_key(bool* from_a_to_b) const {
  return FlowKey::canonical(src, src_port(), dst, dst_port(), protocol,
                            from_a_to_b);
}

bool decode_into(const Packet& packet, DecodedPacket& out) {
  const ByteView raw{packet.data};
  if (raw.empty()) return false;
  out.timestamp_us = packet.timestamp_us;

  std::size_t ip_hlen = 0;
  std::size_t claimed = 0;  // datagram length per the IP header
  switch (raw[0] >> 4) {
    case 4: {
      Ipv4Header ip;
      if (!Ipv4Header::parse_into(raw, ip, &ip_hlen)) return false;
      out.is_v6 = false;
      out.ttl = ip.ttl;
      out.protocol = ip.protocol;
      out.src = ip.src;
      out.dst = ip.dst;
      claimed = ip.total_length;
      break;
    }
    case 6: {
      Ipv6Header ip;
      if (!Ipv6Header::parse_into(raw, ip, &ip_hlen)) return false;
      out.is_v6 = true;
      out.ttl = ip.hop_limit;
      out.protocol = ip.next_header;
      out.src = ip.src;
      out.dst = ip.dst;
      claimed = Ipv6Header::kSize + std::size_t{ip.payload_length};
      break;
    }
    default:
      return false;
  }
  // Snap-length semantics: a capture may truncate the packet while the IP
  // header still reports the original datagram length — volumetric
  // telemetry must use the header value.
  out.ip_packet_size = std::max(raw.size(), claimed);

  const ByteView transport = raw.subspan(ip_hlen);
  std::size_t t_hlen = 0;
  if (out.protocol == kProtoTcp) {
    out.udp.reset();
    if (!TcpHeader::parse_into(transport, out.tcp.emplace(), &t_hlen))
      return false;
  } else if (out.protocol == kProtoUdp) {
    out.tcp.reset();
    if (!UdpHeader::parse_into(transport, out.udp.emplace(), &t_hlen))
      return false;
  } else {
    return false;
  }
  out.payload = transport.subspan(t_hlen);
  return true;
}

std::optional<DecodedPacket> decode(const Packet& packet) {
  std::optional<DecodedPacket> out(std::in_place);
  if (!decode_into(packet, *out)) out.reset();
  return out;
}

}  // namespace vpscope::net
