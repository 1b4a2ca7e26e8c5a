#include "pipeline/classifier_bank.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/handshake.hpp"

namespace vpscope::pipeline {

using fingerprint::Provider;
using fingerprint::Transport;

namespace {

std::pair<int, int> scenario_key(Provider provider, Transport transport) {
  return {static_cast<int>(provider), static_cast<int>(transport)};
}

/// Builds a dense class index over the values present in `values`,
/// preserving first-seen order of the provided canonical ordering.
template <typename T>
int class_index(std::vector<T>& classes, const T& value) {
  const auto it = std::find(classes.begin(), classes.end(), value);
  if (it != classes.end()) return static_cast<int>(it - classes.begin());
  classes.push_back(value);
  return static_cast<int>(classes.size()) - 1;
}

/// One forest's (argmax class, max probability) for one flow.
using Scored = std::pair<int, double>;

/// The paper's 80%-confidence gate.
bool confident(double confidence, double threshold) {
  return confidence >= threshold;
}

/// Fig. 4's decision for one flow, shared by classify() and
/// ClassifyBatch::classify() so the confidence gate and the fallback exist
/// once: a confident composite verdict implies both partial objectives;
/// otherwise `fallback()` yields the (device, agent) scores and whichever
/// of them is confident is kept. `fallback` runs only under the gate.
template <typename Fallback>
PlatformPrediction decide(const ClassifierBank::Scenario& s, double threshold,
                          Scored platform, Fallback&& fallback) {
  PlatformPrediction out;
  out.platform_confidence = platform.second;
  if (confident(platform.second, threshold)) {
    out.outcome = telemetry::Outcome::Composite;
    const auto& id =
        s.platform_classes[static_cast<std::size_t>(platform.first)];
    out.platform = id;
    out.device = id.os;
    out.agent = id.agent;
    out.device_confidence = platform.second;
    out.agent_confidence = platform.second;
    return out;
  }
  const auto [device, agent] = fallback();
  out.device_confidence = device.second;
  out.agent_confidence = agent.second;
  if (confident(device.second, threshold))
    out.device = s.device_classes[static_cast<std::size_t>(device.first)];
  if (confident(agent.second, threshold))
    out.agent = s.agent_classes[static_cast<std::size_t>(agent.first)];
  out.outcome = out.device || out.agent ? telemetry::Outcome::Partial
                                        : telemetry::Outcome::Unknown;
  return out;
}

}  // namespace

void ClassifierBank::train(const synth::Dataset& dataset,
                           const BankParams& params) {
  scenarios_.clear();
  threshold_ = params.confidence_threshold;

  // Group flows (as handshakes) per scenario.
  struct Staging {
    std::vector<core::FlowHandshake> handshakes;
    std::vector<fingerprint::PlatformId> labels;
  };
  std::map<std::pair<int, int>, Staging> staging;

  for (const auto& flow : dataset.flows) {
    const auto handshake = core::extract_handshake(flow.packets);
    if (!handshake) continue;  // malformed synthesis would be a bug; skip
    auto& s = staging[scenario_key(flow.provider, flow.transport)];
    s.handshakes.push_back(*handshake);
    s.labels.push_back(flow.platform);
  }

  for (auto& [key, s] : staging) {
    const auto transport = static_cast<Transport>(key.second);
    Scenario scenario;
    scenario.encoder = core::FeatureEncoder(transport);
    scenario.encoder.fit(s.handshakes);

    ml::Dataset platform_data, device_data, agent_data;
    for (std::size_t i = 0; i < s.handshakes.size(); ++i) {
      const auto features = scenario.encoder.transform(s.handshakes[i]);
      const fingerprint::PlatformId& label = s.labels[i];
      platform_data.x.push_back(features);
      platform_data.y.push_back(
          class_index(scenario.platform_classes, label));
      device_data.x.push_back(features);
      device_data.y.push_back(class_index(scenario.device_classes, label.os));
      agent_data.x.push_back(features);
      agent_data.y.push_back(class_index(scenario.agent_classes, label.agent));
    }

    ml::ForestParams fp = params.forest;
    scenario.platform_model.fit(platform_data, fp);
    fp.seed += 101;
    scenario.device_model.fit(device_data, fp);
    fp.seed += 101;
    scenario.agent_model.fit(agent_data, fp);

    scenario.platform_compiled =
        ml::CompiledForest::compile(scenario.platform_model);
    scenario.device_compiled =
        ml::CompiledForest::compile(scenario.device_model);
    scenario.agent_compiled =
        ml::CompiledForest::compile(scenario.agent_model);

    scenarios_.emplace(key, std::move(scenario));
  }
}

bool ClassifierBank::trained(Provider provider, Transport transport) const {
  return scenarios_.count(scenario_key(provider, transport)) > 0;
}

const ClassifierBank::Scenario* ClassifierBank::scenario(
    Provider provider, Transport transport) const {
  const auto it = scenarios_.find(scenario_key(provider, transport));
  return it == scenarios_.end() ? nullptr : &it->second;
}

void ClassifierBank::install_scenario(Provider provider, Transport transport,
                                      Scenario scenario) {
  scenario.platform_compiled =
      ml::CompiledForest::compile(scenario.platform_model);
  scenario.device_compiled = ml::CompiledForest::compile(scenario.device_model);
  scenario.agent_compiled = ml::CompiledForest::compile(scenario.agent_model);
  scenarios_.insert_or_assign(scenario_key(provider, transport),
                              std::move(scenario));
}

std::vector<std::pair<Provider, Transport>> ClassifierBank::scenario_keys()
    const {
  std::vector<std::pair<Provider, Transport>> keys;
  keys.reserve(scenarios_.size());
  for (const auto& [key, scenario] : scenarios_)
    keys.emplace_back(static_cast<Provider>(key.first),
                      static_cast<Transport>(key.second));
  return keys;
}

PlatformPrediction ClassifierBank::classify(const core::FlowHandshake& handshake,
                                            Provider provider,
                                            obs::StageProfiler* profiler,
                                            int slot,
                                            obs::SpanScratch* spans) const {
  const Scenario* s = scenario(provider, handshake.transport);
  if (!s) return {};  // untrained scenario: Unknown

  // One scratch per thread: classify() is const and runs concurrently on
  // every shard worker. The whole extract -> encode -> predict chain below
  // is allocation-free in steady state: raw attributes are POD TokenId
  // records, the encoder writes into the reused feature buffer (resize
  // within capacity after the first few calls), and the compiled forests
  // allocate nothing per call.
  struct ClassifyScratch {
    core::RawAttrs raw;
    std::vector<double> features;
    ml::CompiledForest::Scratch forest;
  };
  thread_local ClassifyScratch scratch;

  scratch.features.resize(s->encoder.dimension());
  {
    obs::ScopedTimer timer(profiler, obs::Stage::Encode, slot);
    obs::SpanScope span(spans, obs::SpanKind::Encode);
    s->encoder.transform_into(handshake, scratch.raw, scratch.features);
  }
  const std::span<const double> features(scratch.features);

  // Covers the forest scoring and the confidence logic.
  obs::ScopedTimer classify_timer(profiler, obs::Stage::Classify, slot);
  obs::SpanScope classify_span(spans, obs::SpanKind::Classify);
  const auto score = [&](const ml::CompiledForest& forest) {
    return forest.predict_with_confidence(features, scratch.forest);
  };
  return decide(*s, threshold_, score(s->platform_compiled), [&] {
    return std::pair{score(s->device_compiled), score(s->agent_compiled)};
  });
}

ClassifierBank::ClassifyBatch::Bucket& ClassifierBank::ClassifyBatch::bucket_for(
    const Scenario* scenario) {
  // At most one bucket per trained scenario (five in the full bank): linear
  // scan beats any map here and keeps bucket order — and therefore emit
  // order — deterministic (first-seen scenario order).
  for (Bucket& bucket : buckets_)
    if (bucket.scenario == scenario) return bucket;
  buckets_.emplace_back();
  buckets_.back().scenario = scenario;
  return buckets_.back();
}

bool ClassifierBank::ClassifyBatch::add(const core::FlowHandshake& handshake,
                                        fingerprint::Provider provider,
                                        std::uint64_t cookie,
                                        obs::StageProfiler* profiler,
                                        int slot,
                                        obs::SpanScratch* spans) {
  const Scenario* s = bank_->scenario(provider, handshake.transport);
  if (!s) return false;  // untrained: the caller's inline path says Unknown
  Bucket& bucket = bucket_for(s);
  const std::size_t dim = s->encoder.dimension();
  const std::size_t row_start = bucket.matrix.size();
  bucket.matrix.resize(row_start + dim);
  {
    obs::ScopedTimer timer(profiler, obs::Stage::Encode, slot);
    obs::SpanScope span(spans, obs::SpanKind::Encode);
    s->encoder.transform_into(
        handshake, raw_,
        std::span<double>(bucket.matrix).subspan(row_start, dim));
  }
  bucket.cookies.push_back(cookie);
  ++staged_;
  return true;
}

void ClassifierBank::ClassifyBatch::classify(
    const std::function<void(std::uint64_t, const PlatformPrediction&)>&
        emit) {
  const double threshold = bank_->threshold_;
  for (Bucket& bucket : buckets_) {
    const std::size_t rows = bucket.cookies.size();
    if (rows == 0) continue;
    const Scenario* s = bucket.scenario;
    const std::size_t dim = s->encoder.dimension();
    labels_.resize(rows);
    confidences_.resize(rows);
    s->platform_compiled.predict_with_confidence_batch(
        bucket.matrix, dim, labels_, confidences_, forest_);

    // Rows under the composite gate fall back to the per-objective forests
    // — batched too, over the compacted sub-matrix of just those rows.
    sub_matrix_.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      if (confident(confidences_[r], threshold)) continue;
      const auto row = std::span<const double>(bucket.matrix).subspan(
          r * dim, dim);
      sub_matrix_.insert(sub_matrix_.end(), row.begin(), row.end());
    }
    if (!sub_matrix_.empty()) {
      const std::size_t sub_n = sub_matrix_.size() / dim;
      device_labels_.resize(sub_n);
      device_confidences_.resize(sub_n);
      agent_labels_.resize(sub_n);
      agent_confidences_.resize(sub_n);
      s->device_compiled.predict_with_confidence_batch(
          sub_matrix_, dim, device_labels_, device_confidences_, forest_);
      s->agent_compiled.predict_with_confidence_batch(
          sub_matrix_, dim, agent_labels_, agent_confidences_, forest_);
    }

    std::size_t sub_k = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      emit(bucket.cookies[r],
           decide(*s, threshold, {labels_[r], confidences_[r]}, [&] {
             const std::size_t k = sub_k++;
             return std::pair{
                 Scored{device_labels_[k], device_confidences_[k]},
                 Scored{agent_labels_[k], agent_confidences_[k]}};
           }));
    }
    bucket.matrix.clear();
    bucket.cookies.clear();
  }
  staged_ = 0;
}

}  // namespace vpscope::pipeline
