// Tests for the deployment extensions: model serialization (ship trained
// forests to capture servers), the §5.3 concept-drift monitor, and IPv6
// flow handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/handshake.hpp"
#include "ml/serialize.hpp"
#include "pipeline/drift.hpp"
#include "pipeline/pipeline.hpp"
#include "synth/dataset.hpp"

namespace vpscope {
namespace {

using fingerprint::Agent;
using fingerprint::Environment;
using fingerprint::Os;
using fingerprint::Provider;
using fingerprint::Transport;

// ---- forest serialization ----

ml::Dataset blob_data(std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 60; ++i) {
      data.x.push_back({c * 5.0 + rng.normal(0, 1.0),
                        rng.uniform_real(0, 100), c * 2.0 + rng.normal(0, 0.5)});
      data.y.push_back(c);
    }
  }
  return data;
}

TEST(ForestSerialization, RoundTripPredictionsIdentical) {
  const auto data = blob_data(1);
  ml::RandomForest forest;
  forest.fit(data, {.n_trees = 20, .max_depth = 10, .min_samples_split = 2,
                    .max_features = 2, .bootstrap = true, .seed = 3});

  const Bytes blob = ml::serialize_forest(forest);
  const auto restored = ml::deserialize_forest(blob);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_classes(), forest.num_classes());
  EXPECT_EQ(restored->tree_count(), forest.tree_count());
  for (const auto& row : data.x) {
    EXPECT_EQ(restored->predict(row), forest.predict(row));
    EXPECT_EQ(restored->predict_proba(row), forest.predict_proba(row));
  }
  EXPECT_EQ(restored->feature_importances(), forest.feature_importances());
}

TEST(ForestSerialization, FileRoundTrip) {
  const auto data = blob_data(2);
  ml::RandomForest forest;
  forest.fit(data, {.n_trees = 5, .max_depth = 6, .min_samples_split = 2,
                    .max_features = 0, .bootstrap = true, .seed = 4});
  const auto path =
      (std::filesystem::temp_directory_path() / "vpscope_forest.bin").string();
  ASSERT_TRUE(ml::save_forest(forest, path));
  const auto restored = ml::load_forest(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->predict(data.x[0]), forest.predict(data.x[0]));
  std::filesystem::remove(path);
}

TEST(ForestSerialization, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(ml::deserialize_forest(Bytes{}).has_value());
  EXPECT_FALSE(ml::deserialize_forest(Bytes(64, 0xab)).has_value());

  const auto data = blob_data(3);
  ml::RandomForest forest;
  forest.fit(data, {.n_trees = 3, .max_depth = 4, .min_samples_split = 2,
                    .max_features = 0, .bootstrap = true, .seed = 5});
  Bytes blob = ml::serialize_forest(forest);
  // Every truncation point must be rejected, never crash.
  for (std::size_t cut : {std::size_t{3}, std::size_t{10}, blob.size() / 2,
                          blob.size() - 1}) {
    Bytes truncated(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ml::deserialize_forest(truncated).has_value()) << cut;
  }
  // Trailing junk is also rejected (format is exact-length).
  Bytes padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(ml::deserialize_forest(padded).has_value());
}

TEST(ForestSerialization, LoadMissingFileFails) {
  EXPECT_FALSE(ml::load_forest("/nonexistent/path/forest.bin").has_value());
}

// ---- drift monitor ----

TEST(DriftMonitor, NotCalibratedUntilEnoughFlows) {
  pipeline::DriftConfig config;
  config.calibration = 50;
  config.window = 40;
  pipeline::DriftMonitor monitor(config);
  for (int i = 0; i < 49; ++i)
    monitor.record(Provider::Netflix, Transport::Tcp,
                   telemetry::Outcome::Composite, 0.95);
  EXPECT_FALSE(monitor.status(Provider::Netflix, Transport::Tcp).calibrated);
  monitor.record(Provider::Netflix, Transport::Tcp,
                 telemetry::Outcome::Composite, 0.95);
  EXPECT_TRUE(monitor.status(Provider::Netflix, Transport::Tcp).calibrated);
  EXPECT_FALSE(monitor.status(Provider::Netflix, Transport::Tcp).drifting);
}

TEST(DriftMonitor, StableTrafficDoesNotFlag) {
  pipeline::DriftConfig config;
  config.calibration = 100;
  config.window = 100;
  pipeline::DriftMonitor monitor(config);
  Rng rng(1);
  for (int i = 0; i < 400; ++i) {
    const bool composite = rng.bernoulli(0.9);
    monitor.record(Provider::Disney, Transport::Tcp,
                   composite ? telemetry::Outcome::Composite
                             : telemetry::Outcome::Partial,
                   composite ? 0.9 + rng.uniform01() * 0.1 : 0.5);
  }
  const auto status = monitor.status(Provider::Disney, Transport::Tcp);
  EXPECT_TRUE(status.calibrated);
  EXPECT_FALSE(status.drifting);
  EXPECT_FALSE(monitor.any_drifting());
}

TEST(DriftMonitor, RisingRejectRateFlags) {
  pipeline::DriftConfig config;
  config.calibration = 100;
  config.window = 100;
  pipeline::DriftMonitor monitor(config);
  for (int i = 0; i < 100; ++i)
    monitor.record(Provider::Amazon, Transport::Tcp,
                   telemetry::Outcome::Composite, 0.95);
  // Post-rollout traffic: 40% rejected.
  Rng rng(2);
  for (int i = 0; i < 150; ++i)
    monitor.record(Provider::Amazon, Transport::Tcp,
                   rng.bernoulli(0.4) ? telemetry::Outcome::Unknown
                                      : telemetry::Outcome::Composite,
                   0.95);
  const auto status = monitor.status(Provider::Amazon, Transport::Tcp);
  EXPECT_TRUE(status.drifting);
  EXPECT_GT(status.recent_reject_rate, status.baseline_reject_rate + 0.1);
  EXPECT_TRUE(monitor.any_drifting());
}

TEST(DriftMonitor, FallingConfidenceFlags) {
  pipeline::DriftConfig config;
  config.calibration = 100;
  config.window = 100;
  pipeline::DriftMonitor monitor(config);
  for (int i = 0; i < 100; ++i)
    monitor.record(Provider::YouTube, Transport::Quic,
                   telemetry::Outcome::Composite, 0.97);
  for (int i = 0; i < 150; ++i)
    monitor.record(Provider::YouTube, Transport::Quic,
                   telemetry::Outcome::Composite, 0.84);
  EXPECT_TRUE(monitor.status(Provider::YouTube, Transport::Quic).drifting);
}

TEST(DriftMonitor, RecalibrateClearsFlag) {
  pipeline::DriftConfig config;
  config.calibration = 50;
  config.window = 50;
  pipeline::DriftMonitor monitor(config);
  for (int i = 0; i < 50; ++i)
    monitor.record(Provider::Netflix, Transport::Tcp,
                   telemetry::Outcome::Composite, 0.95);
  for (int i = 0; i < 80; ++i)
    monitor.record(Provider::Netflix, Transport::Tcp,
                   telemetry::Outcome::Unknown, 0.3);
  ASSERT_TRUE(monitor.status(Provider::Netflix, Transport::Tcp).drifting);
  monitor.recalibrate(Provider::Netflix, Transport::Tcp);
  EXPECT_FALSE(monitor.status(Provider::Netflix, Transport::Tcp).drifting);
  EXPECT_FALSE(monitor.status(Provider::Netflix, Transport::Tcp).calibrated);
}

TEST(DriftMonitor, EndToEndDetectsHomeRollout) {
  // The realistic loop: baseline on lab-like traffic, then the home
  // environment's rollout arrives and the scenario most affected (Amazon)
  // flags. This is the §5.3 retraining trigger.
  const auto lab = synth::generate_lab_dataset(42, 0.3);
  pipeline::ClassifierBank bank;
  bank.train(lab);

  pipeline::DriftConfig config;
  config.calibration = 150;
  config.window = 150;
  pipeline::DriftMonitor monitor(config);
  pipeline::VideoFlowPipeline pipe(&bank);
  pipe.set_sink([](telemetry::SessionRecord) {});
  pipe.set_drift_monitor(&monitor);

  Rng rng(9);
  synth::FlowSynthesizer synth(rng);
  const auto lab_profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Amazon, Transport::Tcp);
  const auto home_profile = fingerprint::make_profile(
      {Os::Windows, Agent::Chrome}, Provider::Amazon, Transport::Tcp,
      Environment::Home);

  auto feed = [&](const fingerprint::StackProfile& profile, int n) {
    for (int i = 0; i < n; ++i) {
      const auto flow = synth.synthesize(profile);
      for (const auto& packet : flow.packets) pipe.on_packet(packet);
      pipe.flush_all();
    }
  };

  feed(lab_profile, 150);  // calibration on in-distribution traffic
  EXPECT_TRUE(monitor.status(Provider::Amazon, Transport::Tcp).calibrated);
  feed(home_profile, 150);  // the rollout arrives
  const auto status = monitor.status(Provider::Amazon, Transport::Tcp);
  EXPECT_TRUE(status.drifting)
      << "recent reject " << status.recent_reject_rate << " vs baseline "
      << status.baseline_reject_rate;
}

// ---- IPv6 ----

TEST(Ipv6Flows, SynthesizeAndExtract) {
  Rng rng(10);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::MacOS, Agent::Firefox}, Provider::Netflix, Transport::Tcp);
  synth::FlowOptions options;
  options.ipv6 = true;
  const auto flow = synth.synthesize(profile, options);
  ASSERT_TRUE(flow.client_ip.is_v6);

  const auto decoded = net::decode(flow.packets[0]);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_v6);
  EXPECT_EQ(decoded->ttl, 64);  // hop limit plays the TTL role

  const auto handshake = core::extract_handshake(flow.packets);
  ASSERT_TRUE(handshake.has_value());
  EXPECT_EQ(handshake->chlo.server_name_view(), flow.sni);
}

TEST(Ipv6Flows, PipelineClassifiesV6TrafficWithV4TrainedBank) {
  const auto lab = synth::generate_lab_dataset(42, 0.2);  // v4 training
  pipeline::ClassifierBank bank;
  bank.train(lab);

  Rng rng(11);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Firefox}, Provider::Disney, Transport::Tcp);
  synth::FlowOptions options;
  options.ipv6 = true;
  const auto flow = synth.synthesize(profile, options);

  pipeline::VideoFlowPipeline pipe(&bank);
  std::vector<telemetry::SessionRecord> records;
  pipe.set_sink([&records](telemetry::SessionRecord r) {
    records.push_back(std::move(r));
  });
  for (const auto& packet : flow.packets) pipe.on_packet(packet);
  pipe.flush_all();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().provider, Provider::Disney);
  ASSERT_TRUE(records.front().platform.has_value());
  EXPECT_EQ(*records.front().platform,
            (fingerprint::PlatformId{Os::Windows, Agent::Firefox}));
}

// An IPv6 flow keeps its payload volume: its payload packets are IPv6 too,
// and their size comes from payload_length the way an IPv4 packet's comes
// from total_length. The IPv4 twin differs only by the 20 extra header
// bytes of each of the two server handshake packets.
TEST(Ipv6Flows, PayloadVolumeMatchesTheIpv4Twin) {
  const auto profile = fingerprint::make_profile(
      {Os::Windows, Agent::Firefox}, Provider::Disney, Transport::Tcp);
  const auto bytes_down = [&profile](bool ipv6) -> std::uint64_t {
    synth::FlowSynthesizer synth(Rng(13));
    synth::FlowOptions options;
    options.ipv6 = ipv6;
    options.payload_bytes = 5'000'000;
    options.payload_duration_us = 60'000'000;
    const auto flow = synth.synthesize(profile, options);
    pipeline::VideoFlowPipeline pipe(nullptr);
    std::vector<telemetry::SessionRecord> records;
    pipe.set_sink([&records](telemetry::SessionRecord r) {
      records.push_back(std::move(r));
    });
    for (const auto& packet : flow.packets) pipe.on_packet(packet);
    pipe.flush_all();
    EXPECT_EQ(pipe.stats().flows_total, 1u) << "ipv6=" << ipv6;
    EXPECT_EQ(records.size(), 1u) << "ipv6=" << ipv6;
    return records.empty() ? 0 : records.front().counters.bytes_down;
  };
  const std::uint64_t v4 = bytes_down(false);
  EXPECT_EQ(v4, 5'000'188u);
  EXPECT_EQ(bytes_down(true), v4 + 2 * 20);
}

TEST(Ipv6Flows, QuicOverV6RoundTrips) {
  Rng rng(12);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {Os::Android, Agent::NativeApp}, Provider::YouTube, Transport::Quic);
  synth::FlowOptions options;
  options.ipv6 = true;
  const auto flow = synth.synthesize(profile, options);
  const auto handshake = core::extract_handshake(flow.packets);
  ASSERT_TRUE(handshake.has_value());
  EXPECT_EQ(handshake->transport, Transport::Quic);
  EXPECT_TRUE(handshake->quic_tp.has_value());
}

}  // namespace
}  // namespace vpscope
