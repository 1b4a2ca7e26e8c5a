// fingerprint_explorer: prints the connection-establishment fingerprint of
// any (platform, provider, transport) combination — the TCP SYN shape, the
// ClientHello composition (with JA3), and the QUIC transport parameters —
// and diffs two platforms side by side. Handy for understanding *why* the
// classifier can (or cannot) separate two platforms.
//
// Usage:
//   fingerprint_explorer list
//   fingerprint_explorer show  <platform> <provider> <tcp|quic>
//   fingerprint_explorer diff  <platform A> <platform B> <provider> <tcp|quic>
// Platform names as printed by `list`, e.g. "Windows/Chrome".
#include <cstdio>
#include <cstring>
#include <string>

#include "core/attributes.hpp"
#include "core/handshake.hpp"
#include "synth/flow_synthesizer.hpp"
#include "tls/client_hello.hpp"

using namespace vpscope;

namespace {

fingerprint::PlatformId parse_platform(const std::string& name) {
  for (const auto& p : fingerprint::all_platforms())
    if (to_string(p) == name) return p;
  std::fprintf(stderr, "unknown platform '%s' (try `list`)\n", name.c_str());
  std::exit(1);
}

fingerprint::Provider parse_provider(const std::string& name) {
  for (const auto p : fingerprint::all_providers())
    if (to_string(p) == name) return p;
  std::fprintf(stderr, "unknown provider '%s' "
                       "(YouTube|Netflix|Disney|Amazon)\n", name.c_str());
  std::exit(1);
}

core::FlowHandshake observe(const fingerprint::PlatformId& platform,
                            fingerprint::Provider provider,
                            fingerprint::Transport transport) {
  Rng rng(1);
  synth::FlowSynthesizer synthesizer(rng);
  const auto profile =
      fingerprint::make_profile(platform, provider, transport);
  const auto flow = synthesizer.synthesize(profile);
  auto handshake = core::extract_handshake(flow.packets);
  if (!handshake) {
    std::fprintf(stderr, "internal error: handshake extraction failed\n");
    std::exit(1);
  }
  return *handshake;
}

void show(const fingerprint::PlatformId& platform,
          fingerprint::Provider provider,
          fingerprint::Transport transport) {
  const auto handshake = observe(platform, provider, transport);
  std::printf("== %s x %s over %s ==\n", to_string(platform).c_str(),
              to_string(provider).c_str(), to_string(transport).c_str());
  const auto chlo = tls::ClientHello::from_wire(handshake.chlo);
  std::printf("JA3: %s\n", tls::ja3_hash(chlo).c_str());
  std::printf("JA3 string: %s\n\n", tls::ja3_string(chlo).c_str());

  core::TokenInterner interner;  // grow-mode: no fitted vocabulary here
  const auto raw = core::extract_raw_attributes(handshake, interner);
  const auto& catalog = core::attribute_catalog();
  for (int a = 0; a < core::kNumAttributes; ++a) {
    const auto& info = catalog[static_cast<std::size_t>(a)];
    const auto& value = raw[static_cast<std::size_t>(a)];
    if (!value.present) continue;
    std::printf("  %-4s %-40s = %s\n", info.label, info.field_name,
                core::attribute_signature(value, info.type, interner).c_str());
  }
}

void diff(const fingerprint::PlatformId& a, const fingerprint::PlatformId& b,
          fingerprint::Provider provider,
          fingerprint::Transport transport) {
  const auto ha = observe(a, provider, transport);
  const auto hb = observe(b, provider, transport);
  core::TokenInterner interner;  // shared grow-mode vocabulary for the pair
  const auto ra = core::extract_raw_attributes(ha, interner);
  const auto rb = core::extract_raw_attributes(hb, interner);
  const auto& catalog = core::attribute_catalog();

  std::printf("== %s vs %s (%s, %s) — differing attributes ==\n",
              to_string(a).c_str(), to_string(b).c_str(),
              to_string(provider).c_str(), to_string(transport).c_str());
  int differing = 0;
  for (int i = 0; i < core::kNumAttributes; ++i) {
    const auto& info = catalog[static_cast<std::size_t>(i)];
    const auto sig_a = core::attribute_signature(
        ra[static_cast<std::size_t>(i)], info.type, interner);
    const auto sig_b = core::attribute_signature(
        rb[static_cast<std::size_t>(i)], info.type, interner);
    if (sig_a == sig_b) continue;
    ++differing;
    std::printf("  %-4s %-40s\n    A: %s\n    B: %s\n", info.label,
                info.field_name, sig_a.c_str(), sig_b.c_str());
  }
  std::printf("%d differing attributes (note: GREASE and extension-order "
              "randomization contribute per-flow noise)\n", differing);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "list") == 0) {
    for (const auto& p : fingerprint::all_platforms())
      std::printf("%s\n", to_string(p).c_str());
    return 0;
  }
  if (argc == 5 && std::strcmp(argv[1], "show") == 0) {
    show(parse_platform(argv[2]), parse_provider(argv[3]),
         std::string(argv[4]) == "quic" ? fingerprint::Transport::Quic
                                        : fingerprint::Transport::Tcp);
    return 0;
  }
  if (argc == 6 && std::strcmp(argv[1], "diff") == 0) {
    diff(parse_platform(argv[2]), parse_platform(argv[3]),
         parse_provider(argv[4]),
         std::string(argv[5]) == "quic" ? fingerprint::Transport::Quic
                                        : fingerprint::Transport::Tcp);
    return 0;
  }
  std::fprintf(stderr,
               "usage:\n  %s list\n  %s show <platform> <provider> "
               "<tcp|quic>\n  %s diff <A> <B> <provider> <tcp|quic>\n",
               argv[0], argv[0], argv[0]);
  return 1;
}
