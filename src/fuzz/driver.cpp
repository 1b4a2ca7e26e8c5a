#include "fuzz/driver.hpp"

#include <exception>
#include <functional>

#include "capture/afpacket.hpp"
#include "capture/pcap.hpp"
#include "core/handshake.hpp"

namespace vpscope::fuzz {

namespace {

void record(TortureReport& report, const TortureConfig& config,
            const OracleResult& result) {
  ++report.mutants;
  if (result.accepted)
    ++report.accepted;
  else
    ++report.rejected;
  if (!result.ok() && report.failures.size() < config.max_failures)
    report.failures.push_back(result.failure);
}

/// Round-robin over the corpus until `total_mutants` mutants ran, one
/// mutation + oracle check per step.
TortureReport run(const std::vector<SeedCase>& corpus,
                  const TortureConfig& config,
                  const std::function<OracleResult(Mutator&, const SeedCase&)>&
                      step) {
  TortureReport report;
  Mutator mutator(config.seed);
  if (corpus.empty()) return report;
  for (std::size_t i = 0; report.mutants < config.total_mutants; ++i)
    record(report, config, step(mutator, corpus[i % corpus.size()]));
  return report;
}

}  // namespace

std::string TortureReport::summary(const char* target) const {
  std::string s(target);
  s += ": " + std::to_string(mutants) + " mutants, " +
       std::to_string(accepted) + " accepted, " + std::to_string(rejected) +
       " rejected, " + std::to_string(failures.size()) + " oracle failures";
  for (const auto& f : failures) s += "\n  " + f;
  return s;
}

TortureReport torture_tls_record(const std::vector<SeedCase>& corpus,
                                 const TortureConfig& config) {
  return run(corpus, config, [](Mutator& m, const SeedCase& seed) {
    return check_tls_record(m.mutate_record(seed));
  });
}

TortureReport torture_tls_handshake(const std::vector<SeedCase>& corpus,
                                    const TortureConfig& config) {
  return run(corpus, config, [](Mutator& m, const SeedCase& seed) {
    return check_tls_handshake(m.mutate_handshake(seed));
  });
}

TortureReport torture_transport_params(const std::vector<SeedCase>& corpus,
                                       const TortureConfig& config) {
  return run(corpus, config, [](Mutator& m, const SeedCase& seed) {
    return check_transport_params(m.mutate_transport_params(seed));
  });
}

TortureReport torture_quic_initial(const std::vector<SeedCase>& corpus,
                                   const TortureConfig& config) {
  // Only QUIC seeds carry a flight worth mutating.
  std::vector<SeedCase> quic;
  for (const auto& seed : corpus)
    if (seed.transport == fingerprint::Transport::Quic) quic.push_back(seed);
  return run(quic, config, [](Mutator& m, const SeedCase& seed) {
    return check_initial_flight(m.mutate_initial_flight(seed));
  });
}

TortureReport torture_pcap(const std::vector<SeedCase>& corpus,
                           const TortureConfig& config) {
  return run(corpus, config, [](Mutator& m, const SeedCase& seed) {
    // Alternate between the RAW and Ethernet-framed surfaces so the L2
    // shim (MAC header, VLAN tags) is under the same mutation pressure.
    const Bytes& blob = (m.rng().uniform(0, 1) && !seed.pcap_eth_blob.empty())
                            ? seed.pcap_eth_blob
                            : seed.pcap_blob;
    return check_pcap_blob(m.mutate_pcap_blob(blob));
  });
}

TortureReport torture_afpacket_block(const std::vector<SeedCase>& corpus,
                                     const TortureConfig& config) {
  return run(corpus, config, [](Mutator& m, const SeedCase& seed) {
    // Rebuild the kernel's layout from the seed's Ethernet capture, then
    // corrupt it: what a hostile/corrupt ring must not do to the walker.
    std::vector<capture::RingFrame> frames;
    auto reader = capture::PcapReader::open(seed.pcap_eth_blob);
    while (reader) {
      const auto frame = reader->next();
      if (!frame) break;
      capture::RingFrame rf;
      rf.timestamp_us = frame->timestamp_us;
      rf.orig_len = frame->orig_len;
      rf.bytes = frame->bytes;
      frames.push_back(rf);
      if (frames.size() >= 64) break;  // one block's worth
    }
    const Bytes image = capture::build_block_image(frames, 1 << 16);
    return check_block_image(m.mutate_block_image(image));
  });
}

TortureReport torture_classifier(const std::vector<SeedCase>& corpus,
                                 const pipeline::ClassifierBank& bank,
                                 const TortureConfig& config) {
  return run(corpus, config, [&bank](Mutator& m, const SeedCase& seed) {
    OracleResult result;
    const Bytes mutant = m.mutate_record(seed);
    try {
      core::FlowHandshake hs;
      if (!hs.chlo.parse_record(mutant))
        return result;  // garbage rejected upstream of the bank
      result.accepted = true;

      hs.transport = seed.transport;
      if (const auto tp_body = hs.chlo.quic_transport_parameters())
        hs.quic_tp = quic::WireTransportParameters::parse(*tp_body);
      if (hs.transport == fingerprint::Transport::Quic && !hs.quic_tp)
        hs.transport = fingerprint::Transport::Tcp;

      const auto pred = bank.classify(hs, seed.provider);
      const double t = bank.confidence_threshold();
      auto in01 = [](double c) { return c >= 0.0 && c <= 1.0; };
      if (!in01(pred.platform_confidence) || !in01(pred.device_confidence) ||
          !in01(pred.agent_confidence)) {
        result.failure = "classifier: confidence outside [0,1] [mutant " +
                         to_hex(mutant) + "]";
      } else if (pred.outcome == telemetry::Outcome::Composite &&
                 pred.platform_confidence < t) {
        result.failure =
            "classifier: Composite below confidence gate [mutant " +
            to_hex(mutant) + "]";
      } else if (pred.outcome == telemetry::Outcome::Partial &&
                 pred.device_confidence < t && pred.agent_confidence < t) {
        result.failure = "classifier: Partial below confidence gate [mutant " +
                         to_hex(mutant) + "]";
      }
    } catch (const std::exception& e) {
      result.failure = std::string("classifier: ") + e.what() + " [mutant " +
                       to_hex(mutant) + "]";
    }
    return result;
  });
}

}  // namespace vpscope::fuzz
