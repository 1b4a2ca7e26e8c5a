#include "synth/flow_synthesizer.hpp"

#include <algorithm>

#include "quic/initial.hpp"
#include "tls/constants.hpp"

namespace vpscope::synth {

using fingerprint::Provider;
using fingerprint::StackProfile;
using fingerprint::Transport;

namespace {

/// Extension emit order template. Stacks include different subsets; the
/// resulting per-stack order (and Chrome's per-flow shuffle) is part of the
/// fingerprint surface (attribute o1).
enum class Slot {
  GreaseFirst,
  ServerName,
  ExtendedMasterSecret,
  RenegotiationInfo,
  SupportedGroups,
  EcPointFormats,
  SessionTicket,
  Alpn,
  StatusRequest,
  SignatureAlgorithms,
  Sct,
  EncryptThenMac,
  KeyShare,
  PskModes,
  SupportedVersions,
  CompressCertificate,
  ApplicationSettings,
  RecordSizeLimit,
  DelegatedCredentials,
  PostHandshakeAuth,
  EarlyData,
  QuicTransportParams,
  GreaseLast,
};

}  // namespace

tls::ClientHello FlowSynthesizer::build_client_hello(
    const StackProfile& profile, std::string_view sni) {
  const fingerprint::TlsProfile& t = profile.tls;
  tls::ClientHello chlo;
  chlo.legacy_version = t.legacy_version;
  for (auto& b : chlo.random) b = static_cast<std::uint8_t>(rng_.next_u32());
  if (t.session_id_len > 0) {
    chlo.session_id.resize(t.session_id_len);
    for (auto& b : chlo.session_id)
      b = static_cast<std::uint8_t>(rng_.next_u32());
  }

  // Cipher suites, with a leading GREASE draw when the stack greases.
  if (t.grease)
    chlo.cipher_suites.push_back(
        tls::grease_value(rng_.uniform_int(0, 15)));
  chlo.cipher_suites.insert(chlo.cipher_suites.end(), t.cipher_suites.begin(),
                            t.cipher_suites.end());

  // Assemble the slot list this stack emits.
  std::vector<Slot> slots;
  if (t.grease) slots.push_back(Slot::GreaseFirst);
  slots.push_back(Slot::ServerName);
  if (t.extended_master_secret) slots.push_back(Slot::ExtendedMasterSecret);
  if (t.renegotiation_info) slots.push_back(Slot::RenegotiationInfo);
  slots.push_back(Slot::SupportedGroups);
  if (t.ec_point_formats) slots.push_back(Slot::EcPointFormats);
  if (t.session_ticket) slots.push_back(Slot::SessionTicket);
  if (!t.alpn.empty()) slots.push_back(Slot::Alpn);
  if (t.status_request) slots.push_back(Slot::StatusRequest);
  slots.push_back(Slot::SignatureAlgorithms);
  if (t.sct) slots.push_back(Slot::Sct);
  if (t.encrypt_then_mac) slots.push_back(Slot::EncryptThenMac);
  if (!t.key_share_groups.empty()) slots.push_back(Slot::KeyShare);
  if (!t.psk_modes.empty()) slots.push_back(Slot::PskModes);
  if (!t.supported_versions.empty()) slots.push_back(Slot::SupportedVersions);
  if (!t.compress_certificate.empty())
    slots.push_back(Slot::CompressCertificate);
  if (t.application_settings) slots.push_back(Slot::ApplicationSettings);
  if (t.record_size_limit) slots.push_back(Slot::RecordSizeLimit);
  if (!t.delegated_credentials.empty())
    slots.push_back(Slot::DelegatedCredentials);
  if (t.post_handshake_auth) slots.push_back(Slot::PostHandshakeAuth);
  if (t.early_data || (t.early_data_prob > 0 && rng_.bernoulli(t.early_data_prob)))
    slots.push_back(Slot::EarlyData);
  if (profile.transport == Transport::Quic)
    slots.push_back(Slot::QuicTransportParams);
  if (t.grease) slots.push_back(Slot::GreaseLast);

  if (t.randomize_extension_order) rng_.shuffle(slots);

  const bool ticket_nonempty = rng_.bernoulli(t.session_ticket_nonempty_prob);

  for (Slot slot : slots) {
    switch (slot) {
      case Slot::GreaseFirst:
        chlo.add_raw(tls::grease_value(rng_.uniform_int(0, 15)), {});
        break;
      case Slot::ServerName:
        chlo.add_server_name(sni);
        break;
      case Slot::ExtendedMasterSecret:
        chlo.add_extended_master_secret();
        break;
      case Slot::RenegotiationInfo:
        chlo.add_renegotiation_info();
        break;
      case Slot::SupportedGroups: {
        std::vector<std::uint16_t> groups;
        if (t.grease)
          groups.push_back(tls::grease_value(rng_.uniform_int(0, 15)));
        groups.insert(groups.end(), t.groups.begin(), t.groups.end());
        chlo.add_supported_groups(groups);
        break;
      }
      case Slot::EcPointFormats:
        chlo.add_ec_point_formats({0});
        break;
      case Slot::SessionTicket:
        chlo.add_session_ticket(ticket_nonempty ? 192 : 0);
        break;
      case Slot::Alpn:
        chlo.add_alpn(t.alpn);
        break;
      case Slot::StatusRequest:
        chlo.add_status_request(t.status_request_type);
        break;
      case Slot::SignatureAlgorithms:
        chlo.add_signature_algorithms(t.sigalgs);
        break;
      case Slot::Sct:
        chlo.add_sct();
        break;
      case Slot::EncryptThenMac:
        chlo.add_encrypt_then_mac();
        break;
      case Slot::KeyShare: {
        std::vector<std::uint16_t> shares;
        if (t.grease)
          shares.push_back(tls::grease_value(rng_.uniform_int(0, 15)));
        shares.insert(shares.end(), t.key_share_groups.begin(),
                      t.key_share_groups.end());
        chlo.add_key_shares(shares,
                            static_cast<std::uint8_t>(rng_.next_u32()));
        break;
      }
      case Slot::PskModes:
        chlo.add_psk_key_exchange_modes(t.psk_modes);
        break;
      case Slot::SupportedVersions: {
        std::vector<std::uint16_t> versions;
        if (t.grease)
          versions.push_back(tls::grease_value(rng_.uniform_int(0, 15)));
        versions.insert(versions.end(), t.supported_versions.begin(),
                        t.supported_versions.end());
        chlo.add_supported_versions(versions);
        break;
      }
      case Slot::CompressCertificate:
        chlo.add_compress_certificate(t.compress_certificate);
        break;
      case Slot::ApplicationSettings:
        chlo.add_application_settings({"h2"}, t.application_settings_code);
        break;
      case Slot::RecordSizeLimit:
        chlo.add_record_size_limit(*t.record_size_limit);
        break;
      case Slot::DelegatedCredentials:
        chlo.add_delegated_credentials(t.delegated_credentials);
        break;
      case Slot::PostHandshakeAuth:
        chlo.add_post_handshake_auth();
        break;
      case Slot::EarlyData:
        chlo.add_early_data();
        break;
      case Slot::QuicTransportParams: {
        quic::TransportParameters tp = profile.quic.transport_params;
        if (tp.has_initial_source_connection_id) {
          tp.initial_source_connection_id.resize(profile.quic.scid_len);
          for (auto& b : tp.initial_source_connection_id)
            b = static_cast<std::uint8_t>(rng_.next_u32());
        }
        chlo.add_quic_transport_parameters(tp.serialize());
        break;
      }
      case Slot::GreaseLast:
        chlo.add_raw(tls::grease_value(rng_.uniform_int(0, 15)), Bytes{0});
        break;
    }
  }

  // Padding goes last regardless of shuffling, as in real stacks.
  if (t.padding_to) chlo.add_padding_to(*t.padding_to);
  return chlo;
}

net::IpAddr FlowSynthesizer::random_client_ip() {
  return net::IpAddr::v4(
      10, static_cast<std::uint8_t>(rng_.uniform(0, 255)),
      static_cast<std::uint8_t>(rng_.uniform(0, 255)),
      static_cast<std::uint8_t>(rng_.uniform(1, 254)));
}

net::IpAddr FlowSynthesizer::server_ip_for(Provider provider) {
  // One stable /16 per provider, host drawn per flow.
  const std::uint8_t base = [&] {
    switch (provider) {
      case Provider::YouTube: return std::uint8_t{142};
      case Provider::Netflix: return std::uint8_t{45};
      case Provider::Disney: return std::uint8_t{13};
      case Provider::Amazon: return std::uint8_t{52};
    }
    return std::uint8_t{99};
  }();
  return net::IpAddr::v4(base, 250,
                         static_cast<std::uint8_t>(rng_.uniform(0, 255)),
                         static_cast<std::uint8_t>(rng_.uniform(1, 254)));
}

LabeledFlow FlowSynthesizer::synthesize(const StackProfile& base_profile,
                                        const FlowOptions& options) {
  // Per-flow stack-variant mixture: the ground-truth label always comes
  // from the requested platform, but the flow may be emitted from a variant
  // build (see StackProfile::variants).
  const StackProfile* selected = &base_profile;
  if (!base_profile.variants.empty()) {
    double u = rng_.uniform01();
    for (const auto& variant : base_profile.variants) {
      if (u < variant.prob) {
        selected = variant.profile.get();
        break;
      }
      u -= variant.prob;
    }
  }
  const StackProfile& profile = *selected;

  LabeledFlow flow;
  flow.platform = base_profile.platform;
  flow.provider = profile.provider;
  flow.transport = profile.transport;
  flow.client_ip = random_client_ip();
  flow.server_ip = server_ip_for(profile.provider);
  if (options.ipv6) {
    // Map the drawn v4 addresses into a ULA-style v6 space.
    auto to_v6 = [](net::IpAddr v4) {
      net::IpAddr v6;
      v6.is_v6 = true;
      v6.bytes[0] = 0xfd;
      v6.bytes[1] = 0x00;
      for (int i = 0; i < 4; ++i) v6.bytes[static_cast<std::size_t>(12 + i)] = v4.bytes[static_cast<std::size_t>(i)];
      return v6;
    };
    flow.client_ip = to_v6(flow.client_ip);
    flow.server_ip = to_v6(flow.server_ip);
  }
  flow.client_port = static_cast<std::uint16_t>(rng_.uniform(32768, 60999));
  flow.server_port = 443;
  flow.sni = rng_.pick(profile.sni_candidates);

  const std::uint8_t ttl = static_cast<std::uint8_t>(
      profile.tcp.initial_ttl - std::min<int>(options.capture_hops, 32));
  std::uint64_t now = options.start_time_us;

  auto push = [&](Bytes ip_payload, std::uint8_t proto, bool from_client) {
    const net::IpAddr& src = from_client ? flow.client_ip : flow.server_ip;
    const net::IpAddr& dst = from_client ? flow.server_ip : flow.client_ip;
    const std::uint8_t hops = from_client ? ttl : 57;  // server side: never
                                                       // an attribute
    if (options.ipv6) {
      net::Ipv6Header ip;
      ip.hop_limit = hops;
      ip.next_header = proto;
      ip.src = src;
      ip.dst = dst;
      flow.packets.push_back({now, ip.serialize(ip_payload)});
    } else {
      net::Ipv4Header ip;
      ip.ttl = hops;
      ip.protocol = proto;
      ip.src = src;
      ip.dst = dst;
      ip.identification = static_cast<std::uint16_t>(rng_.next_u32());
      flow.packets.push_back({now, ip.serialize(ip_payload)});
    }
  };
  auto push_client = [&](Bytes ip_payload, std::uint8_t proto) {
    push(std::move(ip_payload), proto, true);
  };
  auto push_server = [&](Bytes ip_payload, std::uint8_t proto) {
    push(std::move(ip_payload), proto, false);
  };

  const tls::ClientHello chlo = build_client_hello(profile, flow.sni);

  if (profile.transport == Transport::Tcp) {
    const fingerprint::TcpProfile& tp = profile.tcp;
    const std::uint32_t client_isn = rng_.next_u32();
    const std::uint32_t server_isn = rng_.next_u32();

    // SYN
    net::TcpHeader syn;
    syn.src_port = flow.client_port;
    syn.dst_port = flow.server_port;
    syn.seq = client_isn;
    syn.flags.syn = true;
    syn.flags.cwr = tp.ecn_setup;
    syn.flags.ece = tp.ecn_setup;
    syn.window = tp.window;
    syn.options.mss = tp.mss;
    syn.options.window_scale = tp.window_scale;
    syn.options.sack_permitted = tp.sack_permitted;
    syn.options.timestamps = tp.timestamps;
    syn.options.ts_value = rng_.next_u32();
    syn.options.kind_order.assign(tp.option_kind_order);
    push_client(syn.serialize({}), net::kProtoTcp);

    // SYN-ACK (generic server stack — carries no client fingerprint).
    now += static_cast<std::uint64_t>(rng_.uniform(3000, 30000));
    net::TcpHeader synack;
    synack.src_port = flow.server_port;
    synack.dst_port = flow.client_port;
    synack.seq = server_isn;
    synack.ack = client_isn + 1;
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.flags.ece = tp.ecn_setup;
    synack.window = 65535;
    synack.options.mss = 1460;
    synack.options.sack_permitted = true;
    synack.options.window_scale = 7;
    synack.options.timestamps = tp.timestamps;
    synack.options.ts_value = rng_.next_u32();
    push_server(synack.serialize({}), net::kProtoTcp);

    // ACK
    now += static_cast<std::uint64_t>(rng_.uniform(50, 500));
    net::TcpHeader ack;
    ack.src_port = flow.client_port;
    ack.dst_port = flow.server_port;
    ack.seq = client_isn + 1;
    ack.ack = server_isn + 1;
    ack.flags.ack = true;
    ack.window = tp.window;
    push_client(ack.serialize({}), net::kProtoTcp);

    // ClientHello record
    now += static_cast<std::uint64_t>(rng_.uniform(100, 2000));
    net::TcpHeader hello = ack;
    hello.flags.psh = true;
    push_client(hello.serialize(chlo.serialize_record()), net::kProtoTcp);

    // ServerHello stub (realism only; the pipeline ignores server records).
    now += static_cast<std::uint64_t>(rng_.uniform(3000, 30000));
    net::TcpHeader sh;
    sh.src_port = flow.server_port;
    sh.dst_port = flow.client_port;
    sh.seq = server_isn + 1;
    sh.ack = ack.seq + static_cast<std::uint32_t>(chlo.serialize_record().size());
    sh.flags.ack = true;
    sh.flags.psh = true;
    sh.window = 65535;
    Writer server_record;
    server_record.u8(22);
    server_record.u16(0x0303);
    server_record.u16(96);
    for (int i = 0; i < 96; ++i)
      server_record.u8(static_cast<std::uint8_t>(rng_.next_u32()));
    push_server(sh.serialize(std::move(server_record).take()), net::kProtoTcp);
  } else {
    // QUIC: client Initial flight (possibly several datagrams).
    Bytes dcid(profile.quic.dcid_len, 0);
    for (auto& b : dcid) b = static_cast<std::uint8_t>(rng_.next_u32());
    // The on-wire SCID must match initial_source_connection_id in the TP;
    // build_client_hello randomized it, so recover it from the CHLO we built.
    Bytes scid;
    if (const auto* tp_ext = chlo.find(tls::ext::kQuicTransportParameters)) {
      if (const auto tp = quic::TransportParameters::parse(tp_ext->body))
        scid = tp->initial_source_connection_id;
    }

    const auto datagrams = quic::build_client_initial_flight(
        dcid, scid, chlo.serialize_handshake(), 0,
        profile.quic.initial_datagram_size);
    for (const auto& dg : datagrams) {
      net::UdpHeader udp;
      udp.src_port = flow.client_port;
      udp.dst_port = flow.server_port;
      push_client(udp.serialize(dg), net::kProtoUdp);
      now += static_cast<std::uint64_t>(rng_.uniform(20, 200));
    }

    // Server Initial stub (random long-header-looking datagram).
    now += static_cast<std::uint64_t>(rng_.uniform(3000, 30000));
    net::UdpHeader udp;
    udp.src_port = flow.server_port;
    udp.dst_port = flow.client_port;
    Bytes server_dg(1200, 0);
    for (auto& b : server_dg) b = static_cast<std::uint8_t>(rng_.next_u32());
    server_dg[0] = 0xc1;  // long header, Initial-ish, but not client-keyed
    push_server(udp.serialize(server_dg), net::kProtoUdp);
  }

  // Optional downstream payload, emitted as snap-length-truncated packets:
  // headers carry the true total_length while the capture keeps only the
  // headers — exactly what a telemetry tap does.
  if (options.payload_bytes > 0 && options.payload_duration_us > 0) {
    const std::uint64_t mtu_payload = 1400;
    const std::uint64_t n_packets =
        std::max<std::uint64_t>(1, options.payload_bytes / mtu_payload);
    // Cap the number of synthesized packets; scale per-packet size via the
    // IP total_length field instead (snaplen semantics). The cap is raised
    // when needed so no emitted packet has to report more than the IPv4
    // maximum and the aggregate volume stays exact.
    const std::uint64_t emit =
        std::max(std::min<std::uint64_t>(n_packets, 64),
                 (options.payload_bytes + 65534) / 65535);
    const std::uint64_t bytes_per_emit = options.payload_bytes / emit;
    const std::uint64_t dt = options.payload_duration_us / emit;
    for (std::uint64_t i = 0; i < emit; ++i) {
      now += dt;
      net::TcpHeader data;
      data.src_port = flow.server_port;
      data.dst_port = flow.client_port;
      data.flags.ack = true;
      data.window = 65535;
      net::UdpHeader udata;
      udata.src_port = flow.server_port;
      udata.dst_port = flow.client_port;

      const std::uint8_t proto = profile.transport == Transport::Tcp
                                     ? net::kProtoTcp
                                     : net::kProtoUdp;
      // The IP header reports the full (untruncated) datagram size, capped
      // at the IPv4 maximum for both families so a flow's volume does not
      // depend on its address family; bytes beyond one MTU per packet are
      // accumulated by the telemetry layer across the emitted packets.
      const std::uint64_t datagram_size =
          std::min<std::uint64_t>(bytes_per_emit, 65535);
      const Bytes transport_hdr = profile.transport == Transport::Tcp
                                      ? data.serialize({})
                                      : udata.serialize({});
      if (options.ipv6) {
        net::Ipv6Header ip;
        ip.hop_limit = 57;
        ip.next_header = proto;
        ip.src = flow.server_ip;
        ip.dst = flow.client_ip;
        // 0 would mean "size of the captured payload".
        ip.payload_length = static_cast<std::uint16_t>(
            datagram_size > net::Ipv6Header::kSize
                ? datagram_size - net::Ipv6Header::kSize
                : 0);
        flow.packets.push_back({now, ip.serialize(transport_hdr)});
      } else {
        net::Ipv4Header ip;
        ip.ttl = 57;
        ip.src = flow.server_ip;
        ip.dst = flow.client_ip;
        ip.protocol = proto;
        ip.total_length = static_cast<std::uint16_t>(datagram_size);
        flow.packets.push_back({now, ip.serialize(transport_hdr)});
      }
    }
  }

  return flow;
}

}  // namespace vpscope::synth
