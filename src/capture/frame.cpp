#include "capture/frame.hpp"

namespace vpscope::capture {

std::optional<ByteView> ip_datagram_of(ByteView frame, LinkType link_type) {
  if (link_type == LinkType::Raw) return frame;
  // Walk the EtherType and up to kMaxVlanTags tags in place, with the
  // bounds and tag limit of net::EthernetHeader::parse, but without
  // copying the MACs into a header nobody reads.
  std::size_t off = 12;
  for (int tags = 0;; ++tags) {
    if (off + 2 > frame.size()) return std::nullopt;
    const auto type =
        static_cast<std::uint16_t>(frame[off] << 8 | frame[off + 1]);
    off += 2;
    if (type == net::kEtherTypeIpv4 || type == net::kEtherTypeIpv6)
      return frame.subspan(off);
    if ((type != net::kEtherTypeVlan && type != net::kEtherTypeQinQ) ||
        tags == net::EthernetHeader::kMaxVlanTags)
      return std::nullopt;
    off += 2;  // the tag's TCI; the next EtherType follows
  }
}

Bytes ethernet_frame_of(ByteView ip_datagram) {
  net::EthernetHeader eth;
  eth.ethertype = net::kEtherTypeIpv4;
  // Seed the MACs from the address fields so both directions of a flow get
  // a stable src/dst pair: v4 addresses live at offsets 12/16 (4 bytes
  // each), v6 at 8/24 (16 bytes each).
  if (!ip_datagram.empty()) {
    const int version = ip_datagram[0] >> 4;
    if (version == 6) {
      eth.ethertype = net::kEtherTypeIpv6;
      if (ip_datagram.size() >= 40) {
        eth.src = net::synthetic_mac(ip_datagram.subspan(8, 16));
        eth.dst = net::synthetic_mac(ip_datagram.subspan(24, 16));
      }
    } else if (ip_datagram.size() >= 20) {
      eth.src = net::synthetic_mac(ip_datagram.subspan(12, 4));
      eth.dst = net::synthetic_mac(ip_datagram.subspan(16, 4));
    }
  }
  return eth.serialize(ip_datagram);
}

}  // namespace vpscope::capture
