// The packet abstraction shared by the synthesizer, PCAP I/O and the
// classification pipeline: a timestamped raw IP datagram, plus a decoded
// view giving typed access to the IP/TCP/UDP layers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/ip.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"

namespace vpscope::net {

/// A raw IP datagram as captured/synthesized. Timestamps are microseconds
/// since an arbitrary epoch (the campus simulator uses simulated time).
struct Packet {
  std::uint64_t timestamp_us = 0;
  Bytes data;  // starts at the IP header (linktype RAW)
};

/// Canonical bidirectional 5-tuple key: (addr, port) pairs are ordered so
/// both directions of a connection map to the same key — exactly what a
/// middlebox flow table needs.
struct FlowKey {
  IpAddr addr_a, addr_b;
  std::uint16_t port_a = 0, port_b = 0;
  std::uint8_t protocol = 0;

  /// Builds the canonical key; `from_a_to_b` reports whether (src, sport)
  /// ended up as the (addr_a, port_a) side.
  static FlowKey canonical(const IpAddr& src, std::uint16_t sport,
                           const IpAddr& dst, std::uint16_t dport,
                           std::uint8_t protocol, bool* from_a_to_b = nullptr);

  bool operator==(const FlowKey&) const = default;
};

/// Full-avalanche hash of the canonical key: five words mixed in parallel,
/// then one SplitMix64 round, so both flow-table probing and
/// `hash % n_shards` shard dispatch distribute evenly even over low-entropy
/// key populations. Its values pick shards (low bits), span samples and
/// canary routes (`hash >> 32`), so they are pinned by tests. Not keyed:
/// crafted keys can collide (DESIGN.md §5m).
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const;
};

/// A decoded packet: typed headers + a payload view into the original bytes.
/// The view borrows from the Packet that produced it. Trivially copyable:
/// no member owns heap memory.
struct DecodedPacket {
  std::uint64_t timestamp_us = 0;
  bool is_v6 = false;
  std::uint8_t ttl = 0;  // hop_limit for v6
  IpAddr src, dst;
  std::uint8_t protocol = 0;
  std::size_t ip_packet_size = 0;  // full datagram length (attribute t1)

  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  ByteView payload;  // transport payload

  std::uint16_t src_port() const;
  std::uint16_t dst_port() const;
  FlowKey flow_key(bool* from_a_to_b = nullptr) const;
};

/// Decodes a raw IP packet into the caller-owned `out` through the one
/// parser per header (Ipv4Header/Ipv6Header, then TcpHeader/UdpHeader
/// parse_into). Returns false for non-IP, truncated, or non-TCP/UDP
/// datagrams (the pipeline ignores those anyway); `out` is then
/// unspecified. Nothing is allocated. `ip_packet_size` is the
/// larger of the captured length and the length the IP header claims
/// (IPv4 total_length, IPv6 40 + payload_length), because a snap-length
/// capture keeps only the headers of a full-size datagram.
bool decode_into(const Packet& packet, DecodedPacket& out);

/// decode_into returning an optional, for callers that keep no scratch.
std::optional<DecodedPacket> decode(const Packet& packet);

}  // namespace vpscope::net
