#include "fuzz/corpus.hpp"

#include "capture/export.hpp"
#include "quic/initial.hpp"
#include "synth/flow_synthesizer.hpp"

namespace vpscope::fuzz {

using fingerprint::Provider;
using fingerprint::Transport;

namespace {

SeedCase make_seed(synth::FlowSynthesizer& synth, Rng& rng,
                   const fingerprint::StackProfile& profile) {
  SeedCase seed;
  seed.platform = profile.platform;
  seed.provider = profile.provider;
  seed.transport = profile.transport;

  const std::string sni = profile.sni_candidates.empty()
                              ? std::string("video.example.net")
                              : profile.sni_candidates.front();
  seed.chlo = synth.build_client_hello(profile, sni);
  seed.record = seed.chlo.serialize_record();
  seed.handshake = seed.chlo.serialize_handshake();
  if (const auto* tp = seed.chlo.find(tls::ext::kQuicTransportParameters))
    seed.tp_body = tp->body;

  seed.dcid.resize(profile.quic.dcid_len ? profile.quic.dcid_len : 8);
  for (auto& b : seed.dcid) b = static_cast<std::uint8_t>(rng.next_u32());
  seed.scid.resize(profile.quic.scid_len);
  for (auto& b : seed.scid) b = static_cast<std::uint8_t>(rng.next_u32());
  if (seed.transport == Transport::Quic)
    seed.flight =
        quic::build_client_initial_flight(seed.dcid, seed.scid, seed.handshake);

  const synth::LabeledFlow flow = synth.synthesize(profile);
  seed.pcap_blob = capture::export_pcap(
      flow.packets, {.link_type = capture::LinkType::Raw});
  seed.pcap_eth_blob = capture::export_pcap(
      flow.packets, {.link_type = capture::LinkType::Ethernet});
  return seed;
}

}  // namespace

std::vector<SeedCase> build_corpus(std::uint64_t seed) {
  Rng rng(seed);
  synth::FlowSynthesizer synth(rng.fork());

  std::vector<SeedCase> corpus;
  for (const auto& platform : fingerprint::all_platforms()) {
    for (Provider provider : fingerprint::all_providers()) {
      if (!fingerprint::supports(platform, provider)) continue;
      if (fingerprint::supports_tcp(platform, provider))
        corpus.push_back(make_seed(
            synth, rng,
            fingerprint::make_profile(platform, provider, Transport::Tcp)));
      if (fingerprint::supports_quic(platform, provider))
        corpus.push_back(make_seed(
            synth, rng,
            fingerprint::make_profile(platform, provider, Transport::Quic)));
    }
  }
  for (int v = 0; v < fingerprint::num_unknown_profiles(); ++v)
    corpus.push_back(make_seed(
        synth, rng,
        fingerprint::make_unknown_profile(Provider::YouTube, v)));
  return corpus;
}

}  // namespace vpscope::fuzz
