#include <gtest/gtest.h>

#include "campus/campus.hpp"
#include "synth/dataset.hpp"

namespace vpscope::campus {
namespace {

using fingerprint::Agent;
using fingerprint::DeviceType;
using fingerprint::Os;
using fingerprint::PlatformId;
using fingerprint::Provider;

TEST(CampusModel, PlatformWeightsNormalized) {
  for (Provider provider : fingerprint::all_providers()) {
    double total = 0;
    for (const auto& platform : fingerprint::all_platforms())
      total += CampusSimulator::platform_weight(provider, platform);
    EXPECT_NEAR(total, 1.0, 0.02) << fingerprint::to_string(provider);
  }
}

TEST(CampusModel, WeightsRespectSupportMatrix) {
  for (Provider provider : fingerprint::all_providers()) {
    for (const auto& platform : fingerprint::all_platforms()) {
      if (!fingerprint::supports(platform, provider))
        EXPECT_EQ(CampusSimulator::platform_weight(provider, platform), 0.0)
            << fingerprint::to_string(platform) << " "
            << fingerprint::to_string(provider);
    }
  }
}

TEST(CampusModel, YoutubeMobileShareNearForty) {
  double mobile = 0, total = 0;
  for (const auto& platform : fingerprint::all_platforms()) {
    const double w =
        CampusSimulator::platform_weight(Provider::YouTube, platform);
    total += w;
    if (platform.device() == DeviceType::Mobile) mobile += w;
  }
  // "up to 40% of YouTube engagement occurs on mobile devices".
  EXPECT_NEAR(mobile / total, 0.38, 0.06);
}

TEST(CampusModel, SubscriptionServicesArePcHeavy) {
  for (Provider provider :
       {Provider::Netflix, Provider::Disney, Provider::Amazon}) {
    double pc = 0, mobile = 0;
    for (const auto& platform : fingerprint::all_platforms()) {
      const double w = CampusSimulator::platform_weight(provider, platform);
      if (platform.device() == DeviceType::PC) pc += w;
      if (platform.device() == DeviceType::Mobile) mobile += w;
    }
    EXPECT_GT(pc, mobile * 2) << fingerprint::to_string(provider);
  }
}

TEST(CampusModel, AmazonMacBandwidthFiftyPercentAboveTv) {
  // Fig. 9's headline: Amazon on Mac ~5.7 Mbit/s median, ~50% above TVs.
  const double mac = CampusSimulator::bandwidth_median_mbps(
      Provider::Amazon, {Os::MacOS, Agent::Safari});
  const double tv = CampusSimulator::bandwidth_median_mbps(
      Provider::Amazon, {Os::AndroidTV, Agent::NativeApp});
  EXPECT_NEAR(mac, 5.7, 0.01);
  EXPECT_NEAR(mac / tv, 1.5, 0.05);
}

TEST(CampusModel, NetflixNonSafariBrowsersBelowTwoMbps) {
  for (Agent agent : {Agent::Chrome, Agent::Edge, Agent::Firefox}) {
    EXPECT_LT(CampusSimulator::bandwidth_median_mbps(Provider::Netflix,
                                                     {Os::Windows, agent}),
              2.0);
  }
  EXPECT_GT(CampusSimulator::bandwidth_median_mbps(Provider::Netflix,
                                                   {Os::MacOS, Agent::Safari}),
            3.0);
}

TEST(CampusModel, DiurnalPeaksMatchPaper) {
  // Netflix peaks 20-22; Amazon/Disney+ 19-23; YouTube has a long plateau.
  EXPECT_GT(CampusSimulator::hourly_weight(Provider::Netflix, DeviceType::PC, 21),
            CampusSimulator::hourly_weight(Provider::Netflix, DeviceType::PC, 15));
  EXPECT_GT(CampusSimulator::hourly_weight(Provider::Amazon, DeviceType::PC, 20),
            CampusSimulator::hourly_weight(Provider::Amazon, DeviceType::PC, 10));
  // YouTube 17:00 ~ YouTube 23:00 (sustained window).
  EXPECT_NEAR(
      CampusSimulator::hourly_weight(Provider::YouTube, DeviceType::PC, 17),
      CampusSimulator::hourly_weight(Provider::YouTube, DeviceType::PC, 23),
      1e-9);
  // Mobile curves are flatter: midday mobile demand beats midday-to-peak
  // ratio of PCs for Netflix.
  const double pc_ratio =
      CampusSimulator::hourly_weight(Provider::Netflix, DeviceType::PC, 13) /
      CampusSimulator::hourly_weight(Provider::Netflix, DeviceType::PC, 21);
  const double mobile_ratio =
      CampusSimulator::hourly_weight(Provider::Netflix, DeviceType::Mobile, 13) /
      CampusSimulator::hourly_weight(Provider::Netflix, DeviceType::Mobile, 21);
  EXPECT_GT(mobile_ratio, pc_ratio);
}

TEST(CampusSimulator, PlansAreDeterministicForSeed) {
  CampusConfig config;
  config.seed = 5;
  CampusSimulator a(config), b(config);
  for (int i = 0; i < 100; ++i) {
    const SessionPlan pa = a.plan_session();
    const SessionPlan pb = b.plan_session();
    EXPECT_EQ(pa.provider, pb.provider);
    EXPECT_EQ(pa.start_us, pb.start_us);
    EXPECT_DOUBLE_EQ(pa.duration_s, pb.duration_s);
  }
}

TEST(CampusSimulator, PlansRespectConfig) {
  CampusConfig config;
  config.days = 3;
  config.unknown_platform_fraction = 0.2;
  config.seed = 6;
  CampusSimulator sim(config);
  int unknown = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const SessionPlan plan = sim.plan_session();
    EXPECT_LT(plan.start_us, 3ULL * 24 * 3600 * 1000000ULL);
    EXPECT_GE(plan.duration_s, 20.0);
    EXPECT_GT(plan.bandwidth_mbps, 0.0);
    unknown += plan.unknown_platform;
    if (!plan.unknown_platform)
      EXPECT_TRUE(fingerprint::supports(plan.platform, plan.provider));
  }
  EXPECT_NEAR(static_cast<double>(unknown) / n, 0.2, 0.03);
}

TEST(CampusSimulator, EndToEndRunProducesCoherentStore) {
  const auto lab = synth::generate_lab_dataset(42, 0.3);
  pipeline::ClassifierBank bank;
  bank.train(lab);

  CampusConfig config;
  config.days = 1;
  config.sessions_per_day = 600;
  config.seed = 7;
  CampusSimulator sim(config);
  const auto store = sim.run(bank);

  EXPECT_EQ(store.size(), 600u);
  // Unknown-platform sessions (15%) plus residual low-confidence flows land
  // in the rejected bucket — the paper excluded ~20%.
  EXPECT_GT(store.unknown_fraction(), 0.05);
  EXPECT_LT(store.unknown_fraction(), 0.40);

  // Watch time exists and YouTube dominates it (Fig. 7).
  const double yt =
      store.watch_hours(telemetry::Query().provider(Provider::YouTube));
  for (Provider p : {Provider::Netflix, Provider::Disney, Provider::Amazon})
    EXPECT_GT(yt, store.watch_hours(telemetry::Query().provider(p)));

  // Volume accounting flowed through the decimated samples.
  double total_gb = 0;
  for (const auto& hourly : store.hourly_volume_gb(telemetry::Query()))
    total_gb += hourly;
  EXPECT_GT(total_gb, 1.0);
}

}  // namespace
}  // namespace vpscope::campus
