// Telemetry-store lane (DESIGN.md §5h): the segment wire format
// (round-trip over a full synthetic corpus, rejection of every corruption
// class), columnar segment sealing and zone-map pruning, the
// spill-to-disk + mmap-read-back lifecycle, and the multi-writer
// segment-handoff ingest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/crc32.hpp"

namespace vpscope::telemetry {
namespace {

using fingerprint::Agent;
using fingerprint::Os;
using fingerprint::Provider;

constexpr std::uint64_t kHourUs = 3600ULL * 1'000'000ULL;

/// Scratch directories are suffixed with the pid: the suite also runs
/// whole-binary in the `concurrency` and `fuzz` lanes, so under `ctest -j`
/// several processes execute the same test concurrently and must not race
/// on each other's spill files.
std::string scratch_dir(const char* base) {
  return std::string(base) + "-" + std::to_string(::getpid());
}

/// Deterministic corpus covering every (provider, platform, outcome,
/// transport) combination plus the SNI and counter edge cases the wire
/// format must preserve: empty / long / repeated SNIs, zero-duration flows,
/// timestamps near 2^64, zero and huge volumes.
std::vector<SessionRecord> synth_corpus(std::size_t n) {
  const auto platforms = fingerprint::all_platforms();
  const auto providers = fingerprint::all_providers();
  std::vector<SessionRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionRecord r;
    r.provider = providers[i % providers.size()];
    r.transport = i % 2 ? fingerprint::Transport::Quic
                        : fingerprint::Transport::Tcp;
    const auto& p = platforms[i % platforms.size()];
    switch (i % 4) {
      case 0:
        r.outcome = Outcome::Composite;
        r.platform = p;
        r.device = p.os;
        r.agent = p.agent;
        r.confidence = 0.75 + static_cast<double>(i % 25) / 100.0;
        break;
      case 1:
        r.outcome = Outcome::Partial;
        r.device = p.os;
        r.confidence = 0.5;
        break;
      case 2:
        r.outcome = Outcome::Partial;
        r.agent = p.agent;
        r.confidence = 0.5;
        break;
      default:
        r.outcome = Outcome::Unknown;
        break;
    }
    switch (i % 7) {
      case 0: r.sni = ""; break;
      case 1: r.sni = std::string(200, 'x') + std::to_string(i % 3); break;
      default: r.sni = "cdn-" + std::to_string(i % 13) + ".example.net";
    }
    if (i % 11 == 0) {
      r.counters.first_us = r.counters.last_us = i * kHourUs / 7;  // 0-length
    } else if (i % 11 == 1) {
      r.counters.first_us = ~std::uint64_t{0} - 1000;  // near 2^64
      r.counters.last_us = ~std::uint64_t{0};
    } else {
      r.counters.first_us = i * 1'000'003ULL;
      r.counters.last_us = r.counters.first_us + (i % 5000) * 1'000'000ULL;
    }
    r.counters.bytes_down = i % 11 == 2 ? 0 : i * 1'000'000'007ULL;
    r.counters.bytes_up = r.counters.bytes_down / 40;
    r.counters.packets_down = i;
    r.counters.packets_up = i / 2;
    out.push_back(std::move(r));
  }
  return out;
}

SegmentColumns columns_of(const std::vector<SessionRecord>& corpus,
                          core::TokenInterner& interner) {
  SegmentColumns columns;
  columns.reserve(corpus.size());
  for (const auto& r : corpus) columns.append(r, interner.intern(r.sni));
  return columns;
}

void recompute_crc(Bytes& data) {
  const std::uint32_t crc = crc32(ByteView{data}.subspan(28));
  data[24] = static_cast<std::uint8_t>(crc >> 24);
  data[25] = static_cast<std::uint8_t>(crc >> 16);
  data[26] = static_cast<std::uint8_t>(crc >> 8);
  data[27] = static_cast<std::uint8_t>(crc);
}

// ---- wire format: round trip ----

TEST(SegmentWire, RoundTripFullCorpus) {
  const auto corpus = synth_corpus(3000);
  core::TokenInterner interner;
  const SegmentColumns columns = columns_of(corpus, interner);
  const Bytes wire = serialize_segment(columns, interner);

  core::TokenInterner other;  // a different store's interner
  const auto restored = deserialize_segment(ByteView{wire}, other);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->rows(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(restored->materialize(i, other), corpus[i]) << "row " << i;
}

TEST(SegmentWire, FileRoundTripAndMmapScan) {
  const auto corpus = synth_corpus(512);
  core::TokenInterner interner;
  const SegmentColumns columns = columns_of(corpus, interner);

  const std::string dir = scratch_dir("telemetry_store_test_io");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/roundtrip.vpsg";
  ASSERT_TRUE(write_segment_file(path, columns, interner));

  core::TokenInterner other;
  const auto restored = read_segment_file(path, other);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->rows(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(restored->materialize(i, other), corpus[i]) << "row " << i;

  // The zero-copy mmap path sees the identical rows.
  auto mapped = MappedSegment::open(path);
  ASSERT_TRUE(mapped.has_value());
  ASSERT_EQ(mapped->rows(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto row = materialize_row(mapped->view(), i,
                                     mapped->sni_token(mapped->view().sni[i]));
    EXPECT_EQ(row, corpus[i]) << "row " << i;
  }

  std::filesystem::remove_all(dir);
}

// ---- wire format: corruption rejection ----

TEST(SegmentWire, RejectsTruncationAtEveryBoundary) {
  core::TokenInterner interner;
  const SegmentColumns columns = columns_of(synth_corpus(64), interner);
  const Bytes wire = serialize_segment(columns, interner);

  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len < 40; ++len) lengths.push_back(len);
  for (std::size_t len = 40; len < wire.size(); len += 97)
    lengths.push_back(len);
  lengths.push_back(wire.size() - 1);
  for (const std::size_t len : lengths) {
    core::TokenInterner scratch;
    EXPECT_FALSE(
        deserialize_segment(ByteView{wire.data(), len}, scratch).has_value())
        << "accepted a " << len << "-byte prefix of a " << wire.size()
        << "-byte segment";
  }
}

TEST(SegmentWire, RejectsHeaderCorruption) {
  core::TokenInterner interner;
  const SegmentColumns columns = columns_of(synth_corpus(16), interner);
  const Bytes wire = serialize_segment(columns, interner);

  const auto rejects = [&wire](std::size_t offset, std::uint8_t value,
                               const char* what) {
    Bytes bad = wire;
    bad[offset] = value;
    core::TokenInterner scratch;
    EXPECT_FALSE(deserialize_segment(ByteView{bad}, scratch).has_value())
        << what;
  };
  rejects(0, 0x00, "bad magic");
  rejects(5, static_cast<std::uint8_t>(kSegmentVersion + 1), "bad version");
  rejects(6, 2, "bad endian tag");
  rejects(7, 1, "nonzero reserved byte");
}

TEST(SegmentWire, RejectsCrcMismatch) {
  core::TokenInterner interner;
  const SegmentColumns columns = columns_of(synth_corpus(64), interner);
  const Bytes wire = serialize_segment(columns, interner);

  // A flipped bit anywhere in the covered region, and a flipped CRC byte
  // itself, must both fail.
  for (const std::size_t offset : {std::size_t{24}, std::size_t{30},
                                   wire.size() / 2, wire.size() - 1}) {
    Bytes bad = wire;
    bad[offset] ^= 0x01;
    core::TokenInterner scratch;
    EXPECT_FALSE(deserialize_segment(ByteView{bad}, scratch).has_value())
        << "offset " << offset;
  }
}

TEST(SegmentWire, RejectsInflatedRowCounts) {
  core::TokenInterner interner;
  const SegmentColumns columns = columns_of(synth_corpus(64), interner);
  const Bytes wire = serialize_segment(columns, interner);

  const auto with_row_count = [&wire](std::uint32_t rows) {
    Bytes bad = wire;
    bad[8] = static_cast<std::uint8_t>(rows >> 24);
    bad[9] = static_cast<std::uint8_t>(rows >> 16);
    bad[10] = static_cast<std::uint8_t>(rows >> 8);
    bad[11] = static_cast<std::uint8_t>(rows);
    recompute_crc(bad);  // prove rejection is structural, not CRC luck
    return bad;
  };
  for (const std::uint32_t rows :
       {std::uint32_t{65}, std::uint32_t{1} << 20, ~std::uint32_t{0}}) {
    const Bytes bad = with_row_count(rows);
    core::TokenInterner scratch;
    EXPECT_FALSE(deserialize_segment(ByteView{bad}, scratch).has_value())
        << "claimed rows " << rows;
  }
  // dict_count > rows is equally structural nonsense.
  Bytes bad = wire;
  bad[12] = 0xff;
  recompute_crc(bad);
  core::TokenInterner scratch;
  EXPECT_FALSE(deserialize_segment(ByteView{bad}, scratch).has_value());
}

TEST(SegmentWire, RejectsStructuralCorruptionEvenWithValidCrc) {
  // A crafted 1-row segment with SNI "x": header (28) + dict (4+2+1 = 7)
  // padded to offset 40, then 15 8-byte-aligned columns. Each mutation gets
  // a freshly recomputed CRC, so rejection can only come from content
  // validation.
  SessionRecord r;
  r.provider = Provider::Netflix;
  r.outcome = Outcome::Composite;
  r.platform = fingerprint::PlatformId{Os::Windows, Agent::Chrome};
  r.device = Os::Windows;
  r.agent = Agent::Chrome;
  r.confidence = 0.9;
  r.sni = "x";
  r.counters.first_us = 100;
  r.counters.last_us = 200;
  core::TokenInterner interner;
  SegmentColumns columns;
  columns.append(r, interner.intern(r.sni));
  const Bytes wire = serialize_segment(columns, interner);

  constexpr std::size_t kPayload = 40;
  const auto rejects = [&wire](std::size_t offset, std::uint8_t value,
                               const char* what) {
    Bytes bad = wire;
    bad[offset] = value;
    recompute_crc(bad);
    core::TokenInterner scratch;
    EXPECT_FALSE(deserialize_segment(ByteView{bad}, scratch).has_value())
        << what;
  };
  rejects(kPayload + 0, 0x7f, "provider code out of range");
  rejects(kPayload + 8, 0x02, "transport code out of range");
  rejects(kPayload + 16, 0x03, "outcome code out of range");
  rejects(kPayload + 24, 0x09, "platform_os code out of range");
  rejects(kPayload + 32, kNoValue, "platform_agent unset while os set");
  rejects(kPayload + 40, 0x09, "device code out of range");
  rejects(kPayload + 48, 0x09, "agent code out of range");
  rejects(kPayload + 64, 0xee, "SNI id absent from dictionary");
  // first_us > last_us: bump the low-order byte of first_us (native-endian
  // column; first byte on little-endian) past last_us = 200.
  rejects(kPayload + 72, 0xfa, "first_us after last_us");
}

// ---- columnar store: sealing, zone maps, spill ----

StoreOptions small_segments(std::size_t rows, std::size_t resident = 0,
                            const std::string& dir = "telemetry-spill") {
  StoreOptions options;
  options.segment_rows = rows;
  options.max_resident_segments = resident;
  options.spill_dir = dir;
  return options;
}

TEST(ColumnarStore, SealsAtSegmentRows) {
  SessionStore store(small_segments(8));
  const auto corpus = synth_corpus(20);
  for (const auto& r : corpus) store.insert(r);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.rows, 20u);
  EXPECT_EQ(stats.resident_segments, 2u);
  EXPECT_EQ(stats.active_rows, 4u);

  const auto records = store.records();
  ASSERT_EQ(records.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(records[i], corpus[i]) << "row " << i;
}

TEST(ColumnarStore, ZoneMapsSkipNonMatchingProviderSegments) {
  SessionStore store(small_segments(8));
  for (int i = 0; i < 8; ++i) {
    SessionRecord r;
    r.provider = Provider::YouTube;
    store.insert(r);
  }
  for (int i = 0; i < 8; ++i) {
    SessionRecord r;
    r.provider = Provider::Netflix;
    store.insert(r);
  }
  (void)store.watch_hours(Query().provider(Provider::Netflix));
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.segments_skipped, 1u);  // the all-YouTube segment
  EXPECT_EQ(stats.segments_scanned, 1u);
}

TEST(ColumnarStore, ZoneMapsSkipTimeWindows) {
  SessionStore store(small_segments(16));
  for (std::uint64_t i = 0; i < 64; ++i) {
    SessionRecord r;
    r.counters.first_us = i * kHourUs;  // time-ordered ingest
    r.counters.last_us = r.counters.first_us + kHourUs / 2;
    store.insert(r);
  }
  // A window overlapping only the first segment (hours 0-15).
  (void)store.watch_hours(Query().started_between(0, 2 * kHourUs));
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_skipped, 3u);

  // Zone maps must never false-skip: the windowed result matches a
  // brute-force sum over every materialized record.
  const double typed =
      store.watch_hours(Query().started_between(0, 2 * kHourUs));
  double brute_s = 0.0;
  for (const SessionRecord& r : store.records())
    if (r.counters.first_us <= 2 * kHourUs) brute_s += r.counters.duration_s();
  EXPECT_DOUBLE_EQ(typed, brute_s / 3600.0);
}

TEST(ColumnarStore, SpillsToDiskAndReadsBack) {
  const std::string dir = scratch_dir("telemetry_store_test_spill");
  std::filesystem::remove_all(dir);
  const auto corpus = synth_corpus(1000);
  {
    SessionStore store(small_segments(64, 2, dir));
    SessionStore reference;  // never spills
    for (const auto& r : corpus) {
      store.insert(r);
      reference.insert(r);
    }
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.rows, corpus.size());
    EXPECT_GT(stats.spilled_segments, 0u);
    EXPECT_LE(stats.resident_segments, 2u);
    EXPECT_TRUE(std::filesystem::exists(dir));
    EXPECT_EQ(stats.spill_read_failures, 0u);

    // Aggregations over the spilled store are bit-identical to the fully
    // resident one (same rows, same order, mmap instead of RAM).
    const Query queries[] = {
        Query(),
        Query().provider(Provider::YouTube),
        Query().provider(Provider::Netflix).device(Os::Windows),
        Query().device_type(fingerprint::DeviceType::Mobile),
        Query().outcome(Outcome::Unknown),
    };
    for (const Query& q : queries) {
      EXPECT_EQ(store.watch_hours(q), reference.watch_hours(q));
      EXPECT_EQ(store.bandwidth_mbps(q), reference.bandwidth_mbps(q));
      EXPECT_EQ(store.hourly_volume_gb(q), reference.hourly_volume_gb(q));
    }
    EXPECT_EQ(store.stats().spill_read_failures, 0u);

    // records() still materializes everything in insertion order.
    const auto records = store.records();
    ASSERT_EQ(records.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i)
      EXPECT_EQ(records[i], corpus[i]) << "row " << i;
  }
  // Spill files are owned by the store: destruction removes them.
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(ColumnarStore, SurvivesSpillFileCorruption) {
  const std::string dir = scratch_dir("telemetry_store_test_corrupt");
  std::filesystem::remove_all(dir);
  {
    SessionStore store(small_segments(32, 1, dir));
    const auto corpus = synth_corpus(200);
    for (const auto& r : corpus) store.insert(r);
    ASSERT_GT(store.stats().spilled_segments, 0u);

    // Truncate one spill file behind the store's back.
    bool truncated = false;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::filesystem::resize_file(entry.path(),
                                   std::filesystem::file_size(entry.path()) /
                                       2);
      truncated = true;
      break;
    }
    ASSERT_TRUE(truncated);

    // Queries keep working over the surviving segments and report the loss
    // instead of crashing or trusting the damaged file.
    (void)store.watch_hours(Query());
    EXPECT_GT(store.stats().spill_read_failures, 0u);
    const auto records = store.records();
    EXPECT_LT(records.size(), corpus.size());
    EXPECT_GT(records.size(), 0u);
  }
  std::filesystem::remove_all(dir);
}

// ---- multi-writer ingest ----

TEST(ShardedStore, ConcurrentWritersMatchSerialStore) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 5000;
  ShardedSessionStore sharded(kWriters, small_segments(128));

  // Each writer ingests its own slice of the corpus from its own thread —
  // the ShardedPipeline::set_shard_sinks arrangement.
  const auto corpus = synth_corpus(kWriters * kPerWriter);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto sink = sharded.sink(w);
      for (std::size_t i = w * kPerWriter; i < (w + 1) * kPerWriter; ++i)
        sink(corpus[i]);
    });
  }
  for (auto& t : threads) t.join();
  sharded.flush_all();
  EXPECT_EQ(sharded.size(), corpus.size());

  const SessionStore snapshot = sharded.snapshot();
  SessionStore serial;
  for (const auto& r : corpus) serial.insert(r);

  // Counts are exact; floating-point sums only differ by segment arrival
  // order, so compare value multisets / near-equality.
  EXPECT_DOUBLE_EQ(snapshot.unknown_fraction(), serial.unknown_fraction());
  for (const Provider p : fingerprint::all_providers()) {
    const Query q = Query().provider(p);
    EXPECT_NEAR(snapshot.watch_hours(q), serial.watch_hours(q),
                1e-6 * std::max(1.0, serial.watch_hours(q)));
    auto a = snapshot.bandwidth_mbps(q);
    auto b = serial.bandwidth_mbps(q);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << fingerprint::to_string(p);
  }
}

TEST(ShardedStore, FlushMakesStagedRowsVisible) {
  ShardedSessionStore sharded(2, small_segments(1024));
  SessionRecord r;
  r.provider = Provider::Disney;
  sharded.writer(0).insert(r);
  sharded.writer(1).insert(r);
  EXPECT_EQ(sharded.size(), 0u);  // staged, not yet handed off
  sharded.flush_all();
  EXPECT_EQ(sharded.size(), 2u);
  EXPECT_DOUBLE_EQ(sharded.snapshot().unknown_fraction(), 1.0);
}

}  // namespace
}  // namespace vpscope::telemetry
