// The classifier bank of the paper's Fig. 4: per (provider, transport)
// scenario, three random-forest classifiers predicting the composite user
// platform, the device type (OS) alone, and the software agent alone, plus
// the 80%-confidence composite -> partial -> unknown fallback logic.
//
// Five scenarios exist (YouTube over TCP and QUIC; Netflix, Disney+, Amazon
// over TCP), so the deployed bank holds 15 forests. The paper counts
// "twelve classifiers (three per provider)" because it groups YouTube's two
// transports into one provider bank; the split by transport is explicit
// here since the attribute schema differs (42 vs 50 attributes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/encoder.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/forest.hpp"
#include "obs/span.hpp"
#include "obs/timer.hpp"
#include "synth/dataset.hpp"
#include "telemetry/telemetry.hpp"

namespace vpscope::pipeline {

/// One flow's classification result.
struct PlatformPrediction {
  telemetry::Outcome outcome = telemetry::Outcome::Unknown;
  std::optional<fingerprint::PlatformId> platform;
  std::optional<fingerprint::Os> device;
  std::optional<fingerprint::Agent> agent;
  double platform_confidence = 0.0;
  double device_confidence = 0.0;
  double agent_confidence = 0.0;
};

/// The three prediction objectives per scenario.
enum class Objective : std::uint8_t { UserPlatform, DeviceType, SoftwareAgent };

struct BankParams {
  /// Deployment forest configuration. Mild regularization (min split size,
  /// wider per-split feature sampling) keeps the forest from memorizing the
  /// per-flow GREASE/extension-order noise in the attribute vectors, which
  /// is what makes predict_proba calibrated enough for the paper's
  /// 80%-confidence gate to behave as described (correct predictions
  /// confident, errors unsure).
  ml::ForestParams forest{.n_trees = 60,
                          .max_depth = 20,
                          .min_samples_split = 6,
                          .max_features = 40,
                          .bootstrap = true,
                          .seed = 1};
  double confidence_threshold = 0.8;  // the paper's 80% gate
};

class ClassifierBank {
 public:
  /// Trains all scenario banks from a labeled dataset (typically the lab
  /// dataset). Scenarios with no training flows are left untrained and
  /// classify everything as Unknown.
  void train(const synth::Dataset& dataset, const BankParams& params = {});

  bool trained(fingerprint::Provider provider,
               fingerprint::Transport transport) const;

  /// Full Fig. 4 logic: composite prediction, fallback to per-objective
  /// predictions under the confidence threshold, Unknown rejection.
  /// `profiler`/`slot` optionally record the Encode and Classify stage
  /// latencies (obs::StageProfiler); null costs nothing. `spans` optionally
  /// records causal Encode/Classify spans for a sampled flow (DESIGN.md
  /// §5k); null costs one branch per stage.
  PlatformPrediction classify(const core::FlowHandshake& handshake,
                              fingerprint::Provider provider,
                              obs::StageProfiler* profiler = nullptr,
                              int slot = 0,
                              obs::SpanScratch* spans = nullptr) const;

  /// Raw access to one scenario's forest + encoder (evaluation harness use).
  struct Scenario {
    core::FeatureEncoder encoder{fingerprint::Transport::Tcp};
    ml::RandomForest platform_model;
    ml::RandomForest device_model;
    ml::RandomForest agent_model;
    /// Inference-time compiled forms of the three forests; classify() only
    /// ever touches these (the uncompiled models stay available for the
    /// evaluation harness and for re-compilation after reload).
    ml::CompiledForest platform_compiled;
    ml::CompiledForest device_compiled;
    ml::CompiledForest agent_compiled;
    /// Class label -> PlatformId for the composite model.
    std::vector<fingerprint::PlatformId> platform_classes;
    /// Class label -> Os / Agent for the partial models.
    std::vector<fingerprint::Os> device_classes;
    std::vector<fingerprint::Agent> agent_classes;
  };
  const Scenario* scenario(fingerprint::Provider provider,
                           fingerprint::Transport transport) const;

  /// Installs one trained scenario (the bundle load path — DESIGN.md §5j);
  /// replaces any existing scenario for the key and (re)compiles the three
  /// forests. Never call on a bank that is being read concurrently — build
  /// a fresh bank and publish it through ModelLifecycle instead.
  void install_scenario(fingerprint::Provider provider,
                        fingerprint::Transport transport, Scenario scenario);

  /// The trained (provider, transport) keys in deterministic (map) order —
  /// the iteration order bank serialization uses.
  std::vector<std::pair<fingerprint::Provider, fingerprint::Transport>>
  scenario_keys() const;

  double confidence_threshold() const { return threshold_; }
  /// Same concurrency caveat as install_scenario.
  void set_confidence_threshold(double threshold) { threshold_ = threshold; }

  /// Deferred cross-flow classification (DESIGN.md §5g): ready flows are
  /// encoded immediately (into per-scenario row-major feature matrices —
  /// scenarios differ in encoder dimension) but the forests score them
  /// later, across all staged flows at once, through
  /// CompiledForest::predict_with_confidence_batch. Per flow the outcome is
  /// bit-identical to classify(), which builds it through the same
  /// decision function; the win is the 4-rows-per-vector kernel. One
  /// instance per pipeline (not thread-safe); `bank` must outlive it.
  class ClassifyBatch {
   public:
    explicit ClassifyBatch(const ClassifierBank* bank) : bank_(bank) {}

    /// Encodes and stages one completed handshake under an opaque `cookie`
    /// the caller uses to route the result. Returns false (stages nothing)
    /// for an untrained scenario — the caller falls back to the inline
    /// path. `profiler`/`slot` time the Encode stage like classify() does;
    /// `spans` records the flow's Encode span (its Classify span is
    /// recorded by the caller when the batch resolves).
    bool add(const core::FlowHandshake& handshake,
             fingerprint::Provider provider, std::uint64_t cookie,
             obs::StageProfiler* profiler = nullptr, int slot = 0,
             obs::SpanScratch* spans = nullptr);

    /// Resolves every staged flow, invoking `emit(cookie, prediction)` in
    /// staging order per scenario, then clears the staging (buckets keep
    /// their capacity — steady state allocates nothing).
    void classify(
        const std::function<void(std::uint64_t, const PlatformPrediction&)>&
            emit);

    std::size_t size() const { return staged_; }
    bool empty() const { return staged_ == 0; }

   private:
    struct Bucket {
      const Scenario* scenario = nullptr;
      std::vector<double> matrix;  // staged rows x encoder dimension
      std::vector<std::uint64_t> cookies;
    };
    Bucket& bucket_for(const Scenario* scenario);

    const ClassifierBank* bank_;
    std::vector<Bucket> buckets_;  // one per scenario seen, linear scan
    std::size_t staged_ = 0;
    // Reused scratch: encoder raw attributes, forest batch staging, the
    // per-bucket label/confidence rows and the low-confidence sub-batch.
    core::RawAttrs raw_;
    ml::CompiledForest::BatchScratch forest_;
    std::vector<int> labels_;
    std::vector<double> confidences_;
    std::vector<double> sub_matrix_;
    std::vector<int> device_labels_, agent_labels_;
    std::vector<double> device_confidences_, agent_confidences_;
  };

 private:
  std::map<std::pair<int, int>, Scenario> scenarios_;
  double threshold_ = 0.8;
};

}  // namespace vpscope::pipeline
