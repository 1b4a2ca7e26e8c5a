#include <gtest/gtest.h>

#include "telemetry/telemetry.hpp"

namespace vpscope::telemetry {
namespace {

using fingerprint::Agent;
using fingerprint::Os;
using fingerprint::Provider;

TEST(FlowCounters, DurationAndThroughput) {
  FlowCounters c;
  c.add_up(1'000'000, 100);
  c.add_down(2'000'000, 1'000'000);
  c.add_down(11'000'000, 1'500'000);
  EXPECT_DOUBLE_EQ(c.duration_s(), 10.0);
  EXPECT_EQ(c.bytes_down, 2'500'000u);
  EXPECT_EQ(c.bytes_up, 100u);
  EXPECT_EQ(c.packets_down, 2u);
  EXPECT_EQ(c.packets_up, 1u);
  // 2.5 MB over 10 s = 2 Mbit/s.
  EXPECT_NEAR(c.mean_downstream_mbps(), 2.0, 1e-9);
}

TEST(FlowCounters, OutOfOrderTimestamps) {
  FlowCounters c;
  c.add_down(5'000'000, 10);
  c.add_down(1'000'000, 10);  // late packet with earlier timestamp
  c.add_down(7'000'000, 10);
  EXPECT_EQ(c.first_us, 1'000'000u);
  EXPECT_EQ(c.last_us, 7'000'000u);
}

TEST(FlowCounters, SinglePacketHasZeroDuration) {
  FlowCounters c;
  c.add_down(1'000'000, 1000);
  EXPECT_DOUBLE_EQ(c.duration_s(), 0.0);
  EXPECT_DOUBLE_EQ(c.mean_downstream_mbps(), 0.0);
}

SessionRecord make_record(Provider provider, Os os, Agent agent,
                          double duration_s, double mbps,
                          std::uint64_t start_us = 0,
                          Outcome outcome = Outcome::Composite) {
  SessionRecord r;
  r.provider = provider;
  r.outcome = outcome;
  if (outcome != Outcome::Unknown) {
    r.platform = fingerprint::PlatformId{os, agent};
    r.device = os;
    r.agent = agent;
  }
  r.counters.add_up(start_us, 50);
  r.counters.add_down(
      start_us + static_cast<std::uint64_t>(duration_s * 1e6),
      static_cast<std::uint64_t>(mbps * 1e6 / 8 * duration_s));
  return r;
}

TEST(SessionStore, WatchHoursFilters) {
  SessionStore store;
  store.insert(make_record(Provider::YouTube, Os::Windows, Agent::Chrome,
                           3600, 2.0));
  store.insert(make_record(Provider::YouTube, Os::IOS, Agent::NativeApp,
                           1800, 2.0));
  store.insert(make_record(Provider::Netflix, Os::Windows, Agent::Chrome,
                           7200, 2.0));
  EXPECT_NEAR(store.watch_hours(Query().provider(Provider::YouTube)), 1.5,
              1e-9);
  EXPECT_NEAR(store.watch_hours(Query().device(Os::Windows)), 3.0, 1e-9);
}

TEST(SessionStore, BandwidthSamplesSkipZeroDuration) {
  SessionStore store;
  store.insert(make_record(Provider::Amazon, Os::MacOS, Agent::Safari, 600,
                           5.7));
  SessionRecord degenerate;
  degenerate.provider = Provider::Amazon;
  degenerate.counters.add_down(0, 100);  // single packet, zero duration
  store.insert(degenerate);
  const auto samples = store.bandwidth_mbps(Query().provider(Provider::Amazon));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0], 5.7, 0.01);
}

TEST(SessionStore, HourlyVolumeBucketsByStartHour) {
  SessionStore store;
  // Session starting at hour 20 of day 1.
  const std::uint64_t start = (24 + 20) * 3600ULL * 1'000'000ULL;
  store.insert(make_record(Provider::Netflix, Os::Windows, Agent::Chrome,
                           1200, 4.0, start));
  const auto hourly = store.hourly_volume_gb(Query());
  for (int h = 0; h < 24; ++h) {
    if (h == 20)
      EXPECT_GT(hourly[static_cast<std::size_t>(h)], 0.0);
    else
      EXPECT_DOUBLE_EQ(hourly[static_cast<std::size_t>(h)], 0.0);
  }
}

TEST(HourlyVolume, ProRatesAcrossSpannedHours) {
  // Regression pin for the DESIGN.md §5h fix. Seed-era shape: a 3-hour
  // 19:00-22:00 session credited ALL 3 GB to hour 19. New shape: each
  // spanned hour receives volume proportional to its overlap — 1 GB each
  // to hours 19, 20 and 21 — with the total preserved exactly.
  const std::uint64_t hour = 3600ULL * 1'000'000ULL;
  std::array<double, 24> hourly{};
  accumulate_hourly_volume_gb(hourly, 19 * hour, 22 * hour,
                              3'000'000'000ULL);
  for (int h = 0; h < 24; ++h) {
    const double expected = (h == 19 || h == 20 || h == 21) ? 1.0 : 0.0;
    EXPECT_DOUBLE_EQ(hourly[static_cast<std::size_t>(h)], expected)
        << "hour " << h;
  }
  // The old attribution (everything at the start hour) is gone for good.
  EXPECT_NE(hourly[19], 3.0);
  EXPECT_DOUBLE_EQ(hourly[19] + hourly[20] + hourly[21], 3.0);
}

TEST(HourlyVolume, PartialOverlapsWeightedByTimeInHour) {
  // 19:30-20:30 splits evenly; 19:45-20:00 lands fully in hour 19.
  const std::uint64_t hour = 3600ULL * 1'000'000ULL;
  std::array<double, 24> hourly{};
  accumulate_hourly_volume_gb(hourly, 19 * hour + hour / 2,
                              20 * hour + hour / 2, 2'000'000'000ULL);
  EXPECT_DOUBLE_EQ(hourly[19], 1.0);
  EXPECT_DOUBLE_EQ(hourly[20], 1.0);

  std::array<double, 24> inside{};
  accumulate_hourly_volume_gb(inside, 19 * hour + 3 * hour / 4, 20 * hour,
                              1'000'000'000ULL);
  EXPECT_DOUBLE_EQ(inside[19], 1.0);
  EXPECT_DOUBLE_EQ(inside[20], 0.0);
}

TEST(HourlyVolume, WrapsAcrossMidnightAndDegeneratesAtZeroDuration) {
  const std::uint64_t hour = 3600ULL * 1'000'000ULL;
  // 23:30 of day 0 to 00:30 of day 1: half to hour 23, half to hour 0.
  std::array<double, 24> wrap{};
  accumulate_hourly_volume_gb(wrap, 23 * hour + hour / 2,
                              24 * hour + hour / 2, 4'000'000'000ULL);
  EXPECT_DOUBLE_EQ(wrap[23], 2.0);
  EXPECT_DOUBLE_EQ(wrap[0], 2.0);

  // Zero-duration flows keep the seed-era shape: all volume at start hour.
  std::array<double, 24> zero{};
  accumulate_hourly_volume_gb(zero, 5 * hour + 1, 5 * hour + 1,
                              1'000'000'000ULL);
  EXPECT_DOUBLE_EQ(zero[5], 1.0);
}

TEST(SessionStore, HourlyVolumeProRatedThroughStoreScans) {
  // The store-level shape: one 20:00-23:00 session must no longer inflate
  // the 20h bucket with its entire volume (the seed behaviour this PR
  // replaces), on the unfiltered and the provider-filtered scan alike.
  SessionStore store;
  const std::uint64_t start = (24 + 20) * 3600ULL * 1'000'000ULL;
  store.insert(make_record(Provider::Netflix, Os::Windows, Agent::Chrome,
                           3 * 3600, 4.0, start));
  const auto typed = store.hourly_volume_gb(Query());
  const auto filtered =
      store.hourly_volume_gb(Query().provider(Provider::Netflix));
  const double total = typed[20] + typed[21] + typed[22];
  EXPECT_GT(typed[20], 0.0);
  EXPECT_DOUBLE_EQ(typed[20], typed[21]);
  EXPECT_DOUBLE_EQ(typed[21], typed[22]);
  EXPECT_NE(typed[20], total);  // not the seed-era start-hour lump
  for (int h = 0; h < 24; ++h)
    EXPECT_DOUBLE_EQ(typed[static_cast<std::size_t>(h)],
                     filtered[static_cast<std::size_t>(h)]);
}

TEST(SessionStore, UnknownFraction) {
  SessionStore store;
  store.insert(make_record(Provider::YouTube, Os::Windows, Agent::Chrome, 60,
                           2.0));
  store.insert(make_record(Provider::YouTube, Os::Windows, Agent::Chrome, 60,
                           2.0, 0, Outcome::Unknown));
  store.insert(make_record(Provider::YouTube, Os::Windows, Agent::Chrome, 60,
                           2.0, 0, Outcome::Partial));
  EXPECT_NEAR(store.unknown_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(FlowCounters, IdleUsClampsNonMonotonicClock) {
  FlowCounters c;
  c.add_down(5'000'000, 10);
  EXPECT_EQ(c.idle_us(8'000'000), 3'000'000u);
  EXPECT_EQ(c.idle_us(5'000'000), 0u);
  // A capture clock that stepped backwards must read as "not idle", never
  // as a wrapped ~2^64 idle time that would evict every flow.
  EXPECT_EQ(c.idle_us(4'000'000), 0u);
  EXPECT_EQ(c.idle_us(0), 0u);
}

TEST(FlowCounters, IdleUsSafeNearUint64Max) {
  // A hostile timestamp near 2^64 must not wrap idle-timeout arithmetic.
  FlowCounters c;
  const std::uint64_t huge = ~std::uint64_t{0} - 100;
  c.add_down(huge, 10);
  EXPECT_EQ(c.idle_us(2'000'000), 0u);
  EXPECT_EQ(c.idle_us(huge + 50), 50u);
}

TEST(SessionStore, EmptyStoreSafeDefaults) {
  SessionStore store;
  EXPECT_DOUBLE_EQ(store.unknown_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(store.watch_hours(Query()), 0.0);
  EXPECT_TRUE(store.bandwidth_mbps(Query()).empty());
}

}  // namespace
}  // namespace vpscope::telemetry
