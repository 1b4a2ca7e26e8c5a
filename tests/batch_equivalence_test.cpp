// Batched data plane equivalence (ctest -L batch; DESIGN.md §5g).
//
// Batching is a pure performance transform, so every test here is an
// equality, not a tolerance. The forest scorer oracle holds
// CompiledForest to RandomForest::predict_proba, memcmp-equal, for the
// one-row call and for batches of 1-257 rows at every SIMD level: over
// all 15 lab forests on the lab corpus, on >= 50k structure-aware wire
// mutants, on hand-built forests whose trees need one, two and three mask
// words, and on NaN features. The batched sharded pipeline must reproduce
// the single-threaded pipeline's records and stats exactly, including
// partial batches at flush and the drop-accounting identity mid-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/handshake.hpp"
#include "fuzz/driver.hpp"
#include "ml/serialize.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"
#include "tls/client_hello.hpp"
#include "util/spsc_ring.hpp"

namespace vpscope {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;
using ml::CompiledForest;

/// Lab dataset + trained bank shared by the whole lane (training is the
/// expensive part; the tests are pure CPU over the artifacts). Torture-size
/// forests keep the 50k-mutant pass fast without weakening any identity —
/// every equality below holds for any forest by construction.
class BatchEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 0.25));
    bank_ = new pipeline::ClassifierBank();
    pipeline::BankParams params;
    params.forest = {.n_trees = 12, .max_depth = 12, .min_samples_split = 4,
                     .max_features = 20, .bootstrap = true, .seed = 1};
    bank_->train(*lab_, params);
  }
  static void TearDownTestSuite() {
    delete lab_;
    delete bank_;
    lab_ = nullptr;
    bank_ = nullptr;
  }

  /// Row-major feature matrix of every lab flow that lands in `scenario`
  /// (encoded through the scenario's own fitted encoder).
  static std::vector<double> encoded_rows(
      const pipeline::ClassifierBank::Scenario& scenario, Provider provider,
      Transport transport) {
    std::vector<double> matrix;
    core::RawAttrs raw;
    const std::size_t dim = scenario.encoder.dimension();
    for (const auto& flow : lab_->flows) {
      if (flow.provider != provider || flow.transport != transport) continue;
      const auto handshake = core::extract_handshake(flow.packets);
      if (!handshake) continue;
      const std::size_t at = matrix.size();
      matrix.resize(at + dim);
      scenario.encoder.transform_into(
          *handshake, raw, std::span<double>(matrix).subspan(at, dim));
    }
    return matrix;
  }

  static synth::Dataset* lab_;
  static pipeline::ClassifierBank* bank_;
};

synth::Dataset* BatchEquivalenceTest::lab_ = nullptr;
pipeline::ClassifierBank* BatchEquivalenceTest::bank_ = nullptr;

/// Every SIMD level the host can actually run (Scalar always; Avx2 where
/// supported). Auto is included to pin the dispatcher itself.
std::vector<CompiledForest::Simd> supported_levels() {
  std::vector<CompiledForest::Simd> levels = {CompiledForest::Simd::Auto,
                                              CompiledForest::Simd::Scalar};
  if (CompiledForest::simd_supported(CompiledForest::Simd::Avx2))
    levels.push_back(CompiledForest::Simd::Avx2);
  return levels;
}

/// A scenario's three forests, each with its compiled form.
struct Objective {
  const ml::RandomForest* model;
  const CompiledForest* compiled;
};
std::array<Objective, 3> objectives_of(
    const pipeline::ClassifierBank::Scenario& s) {
  return {{{&s.platform_model, &s.platform_compiled},
           {&s.device_model, &s.device_compiled},
           {&s.agent_model, &s.agent_compiled}}};
}

/// Row `r` of a row-major matrix, as the vector RandomForest takes.
std::vector<double> row_vector(std::span<const double> matrix, std::size_t r,
                               std::size_t dim) {
  const auto row = matrix.subspan(r * dim, dim);
  return {row.begin(), row.end()};
}

/// RandomForest::predict_proba on each row of a row-major matrix — the
/// oracle's reference; it shares no code with the scorer.
std::vector<double> reference_proba(const ml::RandomForest& forest,
                                    std::span<const double> matrix,
                                    std::size_t dim) {
  std::vector<double> out;
  for (std::size_t r = 0; r < matrix.size() / dim; ++r) {
    const auto proba = forest.predict_proba(row_vector(matrix, r, dim));
    out.insert(out.end(), proba.begin(), proba.end());
  }
  return out;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The scorer oracle over one matrix: every row through the one-row calls
/// (probabilities, then label and confidence against
/// RandomForest::predict_with_confidence), then the whole matrix as one
/// batch at every SIMD level, all memcmp-equal to `expected`.
void expect_scorer_matches(const ml::RandomForest& forest,
                           const CompiledForest& compiled,
                           std::span<const double> matrix, std::size_t dim,
                           std::span<const double> expected) {
  const auto n_classes = static_cast<std::size_t>(compiled.num_classes());
  const std::size_t rows = matrix.size() / dim;
  ASSERT_EQ(expected.size(), rows * n_classes);
  std::vector<double> got(n_classes);
  CompiledForest::Scratch scratch;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto x = matrix.subspan(r * dim, dim);
    compiled.predict_proba_into(x, got);
    ASSERT_TRUE(same_bits(got, expected.subspan(r * n_classes, n_classes)))
        << "one-row, row " << r;
    const auto [label, conf] = compiled.predict_with_confidence(x, scratch);
    const auto [ref_label, ref_conf] =
        forest.predict_with_confidence(row_vector(matrix, r, dim));
    ASSERT_EQ(label, ref_label) << "row " << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(conf),
              std::bit_cast<std::uint64_t>(ref_conf))
        << "row " << r;
  }
  for (const auto level : supported_levels()) {
    std::vector<double> batch(rows * n_classes, -1.0);
    compiled.predict_proba_batch(matrix, dim, batch, level);
    ASSERT_TRUE(same_bits(batch, expected))
        << "rows=" << rows << " level=" << static_cast<int>(level);
  }
}

/// A forest built by hand with exactly `leaves[t]` leaves in tree t:
/// random shapes, features and leaf distributions, thresholds on a coarse
/// grid so rows tie with them. Written in the v1 wire format and loaded
/// through deserialize_forest, the one way to build a tree without
/// training it.
ml::RandomForest random_shape_forest(const std::vector<int>& leaves, int dim,
                                     int n_classes, Rng& rng) {
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1, right = -1;
    std::vector<double> proba;
  };
  Writer w;
  w.u32(0x56505346);  // "VPSF"
  w.u16(1);           // v1: forest only
  w.u32(static_cast<std::uint32_t>(n_classes));
  w.u32(static_cast<std::uint32_t>(leaves.size()));
  for (const int n_leaves : leaves) {
    std::vector<Node> nodes;
    const auto build = [&](auto&& self, int n) -> int {
      const int at = static_cast<int>(nodes.size());
      nodes.emplace_back();
      if (n == 1) {
        std::vector<double> proba(static_cast<std::size_t>(n_classes), 0.0);
        proba[static_cast<std::size_t>(rng.uniform_int(0, n_classes - 1))] +=
            0.625;
        proba[static_cast<std::size_t>(rng.uniform_int(0, n_classes - 1))] +=
            0.375;
        nodes[static_cast<std::size_t>(at)].proba = std::move(proba);
        return at;
      }
      const int left_leaves = rng.uniform_int(1, n - 1);
      const int left = self(self, left_leaves);
      const int right = self(self, n - left_leaves);
      Node& node = nodes[static_cast<std::size_t>(at)];
      node.feature = rng.uniform_int(0, dim - 1);
      node.threshold = 0.25 * rng.uniform_int(-8, 8);
      node.left = left;
      node.right = right;
      return at;
    };
    build(build, n_leaves);
    w.u32(static_cast<std::uint32_t>(dim));
    w.u32(static_cast<std::uint32_t>(nodes.size()));
    for (const Node& node : nodes) {
      w.u32(static_cast<std::uint32_t>(node.feature + 1));
      w.u64(std::bit_cast<std::uint64_t>(node.threshold));
      w.u32(static_cast<std::uint32_t>(node.left + 1));
      w.u32(static_cast<std::uint32_t>(node.right + 1));
      w.u16(0);  // depth
      w.u16(static_cast<std::uint16_t>(node.proba.size()));
      for (const double p : node.proba) w.u64(std::bit_cast<std::uint64_t>(p));
    }
    w.u16(0);  // importances
  }
  auto forest = ml::deserialize_forest(std::move(w).take());
  if (!forest) throw std::runtime_error("hand-built forest did not load");
  return std::move(*forest);
}

/// Rows on the same grid as random_shape_forest's thresholds (so ties and
/// signed zeros occur), with ~1 feature in 8 NaN and a few infinities.
std::vector<double> grid_rows(std::size_t rows, int dim, Rng& rng) {
  std::vector<double> matrix(rows * static_cast<std::size_t>(dim));
  for (double& v : matrix) {
    const int pick = rng.uniform_int(0, 39);
    v = pick < 5    ? std::numeric_limits<double>::quiet_NaN()
        : pick == 5 ? std::numeric_limits<double>::infinity()
        : pick == 6 ? -std::numeric_limits<double>::infinity()
        : pick == 7 ? -0.0
                    : 0.25 * rng.uniform_int(-9, 9);
  }
  return matrix;
}

TEST_F(BatchEquivalenceTest, PredictProbaBatchBitIdenticalForSizes1To257) {
  const auto* s = bank_->scenario(Provider::YouTube, Transport::Tcp);
  ASSERT_NE(s, nullptr);
  const std::size_t dim = s->encoder.dimension();
  const std::vector<double> pool =
      encoded_rows(*s, Provider::YouTube, Transport::Tcp);
  const std::size_t pool_rows = pool.size() / dim;
  ASSERT_GT(pool_rows, 8u);
  const auto n_classes = static_cast<std::size_t>(
      s->platform_compiled.num_classes());
  const std::vector<double> pool_expected =
      reference_proba(s->platform_model, pool, dim);

  // Every size from 1 to 257: every 4-row vector remainder, and batches
  // larger than the pool (cycled, so the lab corpus's size is no limit).
  for (std::size_t rows = 1; rows <= 257; ++rows) {
    std::vector<double> matrix(rows * dim);
    std::vector<double> expected(rows * n_classes);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t src = (r * 7) % pool_rows;
      std::memcpy(&matrix[r * dim], &pool[src * dim], dim * sizeof(double));
      std::memcpy(&expected[r * n_classes], &pool_expected[src * n_classes],
                  n_classes * sizeof(double));
    }
    for (const auto level : supported_levels()) {
      std::vector<double> got(rows * n_classes, -1.0);
      s->platform_compiled.predict_proba_batch(matrix, dim, got, level);
      ASSERT_TRUE(same_bits(got, expected))
          << "rows=" << rows << " level=" << static_cast<int>(level);
    }
  }
  // One-row scoring of the whole pool.
  expect_scorer_matches(s->platform_model, s->platform_compiled, pool, dim,
                        pool_expected);
}

// Every lab forest (5 scenarios x 3 objectives) on the whole lab corpus,
// and on the same rows with every third feature replaced by NaN. The
// served bank keeps every tree within one mask word.
TEST_F(BatchEquivalenceTest, EveryLabForestBitIdenticalOnCorpusAndNaNRows) {
  int forests = 0;
  for (const auto& [provider, transport] : bank_->scenario_keys()) {
    const auto* s = bank_->scenario(provider, transport);
    ASSERT_NE(s, nullptr);
    const std::size_t dim = s->encoder.dimension();
    const std::vector<double> corpus = encoded_rows(*s, provider, transport);
    ASSERT_GT(corpus.size(), 0u);
    std::vector<double> nan_rows = corpus;
    for (std::size_t i = 0; i < nan_rows.size(); i += 3)
      nan_rows[i] = std::numeric_limits<double>::quiet_NaN();
    for (const auto& [model, compiled] : objectives_of(*s)) {
      EXPECT_EQ(compiled->mask_words(),
                static_cast<std::size_t>(compiled->tree_count()));
      for (const auto* rows : {&corpus, &std::as_const(nan_rows)})
        expect_scorer_matches(*model, *compiled, *rows, dim,
                              reference_proba(*model, *rows, dim));
      ++forests;
    }
  }
  EXPECT_EQ(forests, 15);
}

// Hand-built trees on both sides of every mask-word boundary: 63, 64 and
// 65 leaves, 128 and 129, and one forest mixing one-, two- and three-word
// trees with a stump. Rows carry NaN, +/-inf, signed zeros and exact ties.
TEST(ForestScorerOracle, MultiWordMasksBitIdenticalAcrossLeafCounts) {
  constexpr int kDim = 6;
  constexpr int kClasses = 5;
  Rng rng(0x5eed);
  const std::vector<std::vector<int>> shapes = {
      {63, 63, 63}, {64, 64, 64}, {65, 65, 65},
      {128, 128},   {129, 129},   {1, 63, 64, 65, 128, 129, 130, 200, 2}};
  for (const auto& shape : shapes) {
    const ml::RandomForest forest =
        random_shape_forest(shape, kDim, kClasses, rng);
    const CompiledForest compiled = CompiledForest::compile(forest);
    std::size_t words = 0;
    for (const int leaves : shape)
      words += static_cast<std::size_t>((leaves + 63) / 64);
    EXPECT_EQ(compiled.mask_words(), words);
    const std::vector<double> rows = grid_rows(257, kDim, rng);
    expect_scorer_matches(forest, compiled, rows, kDim,
                          reference_proba(forest, rows, kDim));
  }
}

// A forest trained on random labels grows inseparable, deep trees (far more
// than 64 leaves each), so every tree needs several mask words; scoring
// must stay bit-identical to the forest at every SIMD level.
TEST_F(BatchEquivalenceTest, DeepForestFallbackBitIdenticalAcrossLevels) {
  constexpr std::size_t kSamples = 600;
  constexpr std::size_t kDim = 16;
  ml::Dataset data;
  Rng rng(0xdeef);
  data.x.resize(kSamples);
  data.y.resize(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    data.x[i].resize(kDim);
    for (std::size_t f = 0; f < kDim; ++f)
      data.x[i][f] = rng.uniform01();
    data.y[i] = rng.uniform_int(0, 7);
  }
  ml::RandomForest forest;
  ml::ForestParams params;
  params.n_trees = 8;
  params.max_depth = 32;
  params.min_samples_split = 2;
  forest.fit(data, params);
  const CompiledForest compiled = CompiledForest::compile(forest);
  ASSERT_GE(compiled.mask_words(), 2u * 8u);  // >= 2 words a tree on average

  const std::size_t rows = 67;  // off the 4-row vector boundary on purpose
  std::vector<double> matrix(rows * kDim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t f = 0; f < kDim; ++f)
      matrix[r * kDim + f] = rng.uniform01();
  expect_scorer_matches(forest, compiled, matrix, kDim,
                        reference_proba(forest, matrix, kDim));
}

TEST_F(BatchEquivalenceTest, PredictWithConfidenceBatchMatchesPerRow) {
  const auto* s = bank_->scenario(Provider::YouTube, Transport::Quic);
  ASSERT_NE(s, nullptr);
  const std::size_t dim = s->encoder.dimension();
  const std::vector<double> matrix =
      encoded_rows(*s, Provider::YouTube, Transport::Quic);
  const std::size_t rows = matrix.size() / dim;
  ASSERT_GT(rows, 0u);

  CompiledForest::BatchScratch batch_scratch;
  for (const auto& [model, compiled] : objectives_of(*s)) {
    std::vector<int> expected_labels(rows);
    std::vector<double> expected_conf(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto [label, conf] =
          model->predict_with_confidence(row_vector(matrix, r, dim));
      expected_labels[r] = label;
      expected_conf[r] = conf;
    }
    for (const auto level : supported_levels()) {
      std::vector<int> labels(rows, -1);
      std::vector<double> conf(rows, -1.0);
      compiled->predict_with_confidence_batch(matrix, dim, labels, conf,
                                              batch_scratch, level);
      EXPECT_EQ(labels, expected_labels);
      EXPECT_TRUE(same_bits(conf, expected_conf));
    }
  }
}

TEST_F(BatchEquivalenceTest, ScorerBitIdenticalOn50kWireMutants) {
  // The PR-3 structure-aware mutation machinery, re-aimed: every mutant
  // ClientHello that still parses is encoded through the real scenario
  // encoder, and all three of its scenario's forests must score it exactly
  // as RandomForest::predict_proba does — the adversarial counterpart of
  // the corpus test above. Rows are checked one at a time as they come and
  // again per scenario as batches of up to 257.
  const auto corpus = fuzz::build_corpus(0xbeef);
  ASSERT_FALSE(corpus.empty());

  struct Pending {
    const pipeline::ClassifierBank::Scenario* scenario = nullptr;
    std::vector<double> matrix;
  };
  std::vector<Pending> pending;
  const auto drain = [](Pending& p) {
    const std::size_t dim = p.scenario->encoder.dimension();
    for (const auto& [model, compiled] : objectives_of(*p.scenario))
      expect_scorer_matches(*model, *compiled, p.matrix, dim,
                            reference_proba(*model, p.matrix, dim));
    p.matrix.clear();
  };

  fuzz::Mutator mutator(0xf022);
  core::RawAttrs raw;
  constexpr std::size_t kMutants = 50'000;
  std::size_t compared = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const fuzz::SeedCase& seed = corpus[i % corpus.size()];
    const Bytes mutant = mutator.mutate_record(seed);
    core::FlowHandshake hs;
    if (!hs.chlo.parse_record(mutant))
      continue;  // rejected upstream of the bank; nothing to check
    hs.transport = seed.transport;
    if (const auto tp_body = hs.chlo.quic_transport_parameters())
      hs.quic_tp = quic::WireTransportParameters::parse(*tp_body);
    if (hs.transport == Transport::Quic && !hs.quic_tp)
      hs.transport = Transport::Tcp;

    const auto* s = bank_->scenario(seed.provider, hs.transport);
    if (!s) continue;
    auto it = std::find_if(pending.begin(), pending.end(),
                           [s](const Pending& p) { return p.scenario == s; });
    if (it == pending.end()) {
      pending.push_back({s, {}});
      it = pending.end() - 1;
    }
    const std::size_t dim = s->encoder.dimension();
    const std::size_t at = it->matrix.size();
    it->matrix.resize(at + dim);
    s->encoder.transform_into(hs, raw,
                              std::span<double>(it->matrix).subspan(at, dim));
    if (it->matrix.size() == 257 * dim) drain(*it);
    if (HasFatalFailure()) return;
    ++compared;
  }
  for (Pending& p : pending)
    if (!p.matrix.empty()) drain(p);
  // Structure-aware mutants keep parsing often; the identity must have been
  // exercised on a large accepted subset, not vacuously.
  EXPECT_GT(compared, kMutants / 10);
}

// ---- pipeline-level equivalence ----

/// Canonical text form of a record, so multisets compare as sorted vectors.
std::string record_fingerprint(const telemetry::SessionRecord& r) {
  std::ostringstream os;
  os.precision(17);
  os << static_cast<int>(r.provider) << '|' << static_cast<int>(r.transport)
     << '|' << static_cast<int>(r.outcome) << '|';
  if (r.platform)
    os << static_cast<int>(r.platform->os) << ','
       << static_cast<int>(r.platform->agent);
  os << '|';
  if (r.device) os << static_cast<int>(*r.device);
  os << '|';
  if (r.agent) os << static_cast<int>(*r.agent);
  os << '|' << r.confidence << '|' << r.sni << '|' << r.counters.bytes_down
     << '|' << r.counters.bytes_up;
  return os.str();
}

/// Interleaved multi-scenario capture feed (same shape as the sharded
/// equivalence suite uses).
std::vector<net::Packet> interleaved_mix(int flows) {
  struct Case {
    Provider provider;
    Transport transport;
  };
  static const std::vector<Case> cases = {
      {Provider::YouTube, Transport::Tcp},
      {Provider::YouTube, Transport::Quic},
      {Provider::Netflix, Transport::Tcp},
      {Provider::Disney, Transport::Tcp},
      {Provider::Amazon, Transport::Tcp},
  };
  Rng rng(777);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c = cases[static_cast<std::size_t>(i) % cases.size()];
    const auto platforms = fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()], c.provider,
        c.transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i % 25) * 1700;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return packets;
}

TEST_F(BatchEquivalenceTest, BatchedShardedMatchesSingleThreadedInline) {
  const auto packets = interleaved_mix(150);

  pipeline::VideoFlowPipeline reference(bank_);  // classify_batch = 1: inline
  std::vector<std::string> expected;
  reference.set_sink([&](telemetry::SessionRecord r) {
    expected.push_back(record_fingerprint(r));
  });
  for (const auto& packet : packets) reference.on_packet(packet);
  reference.flush_all();
  std::sort(expected.begin(), expected.end());
  const auto expected_stats = reference.stats();
  ASSERT_EQ(expected_stats.video_flows, 150u);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                  std::size_t{32}}) {
    pipeline::ShardedPipeline sharded(
        bank_,
        {.n_shards = 2, .queue_capacity = 128, .batch_size = batch});
    std::vector<std::string> got;
    sharded.set_sink([&](telemetry::SessionRecord r) {
      got.push_back(record_fingerprint(r));
    });
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "batch_size=" << batch;

    const auto stats = sharded.stats();
    EXPECT_EQ(stats.video_flows, expected_stats.video_flows);
    EXPECT_EQ(stats.classified_composite, expected_stats.classified_composite);
    EXPECT_EQ(stats.classified_partial, expected_stats.classified_partial);
    EXPECT_EQ(stats.classified_unknown, expected_stats.classified_unknown);
    EXPECT_EQ(stats.packets_total, expected_stats.packets_total);
    EXPECT_EQ(stats.packets_processed, stats.packets_total);
    EXPECT_EQ(stats.packets_stranded, 0u);
    EXPECT_EQ(stats.packets_dropped_payload, 0u);
    EXPECT_EQ(stats.packets_dropped_handshake, 0u);
  }
}

TEST_F(BatchEquivalenceTest, PartialBatchAtFlushDrainsInsteadOfStranding) {
  // Fewer flows than one classify batch and fewer packets than one dispatch
  // batch boundary would ever need: everything rides on the flush path.
  const auto packets = interleaved_mix(5);
  pipeline::ShardedPipeline sharded(
      bank_, {.n_shards = 2, .queue_capacity = 128, .batch_size = 64});
  std::size_t records = 0;
  sharded.set_sink([&](telemetry::SessionRecord) { ++records; });
  for (const auto& packet : packets) sharded.on_packet(packet);

  // Mid-flight (packets may still be staged in the dispatcher batch): the
  // snapshot identity must hold with the staged backlog reported as
  // stranded, never over-accounted.
  const auto mid = sharded.snapshot();
  EXPECT_LE(mid.packets_processed + mid.packets_dropped_payload +
                mid.packets_dropped_handshake + mid.packets_stranded,
            mid.packets_total);

  // flush_idle is in-band: it must drain the staged partial batch first.
  sharded.flush_idle(/*now_us=*/1u << 30, /*idle_timeout_us=*/1);
  EXPECT_EQ(records, 5u);

  const auto stats = sharded.stats();
  EXPECT_EQ(stats.video_flows, 5u);
  EXPECT_EQ(stats.classified_composite + stats.classified_partial +
                stats.classified_unknown,
            5u);
  EXPECT_EQ(stats.packets_processed, stats.packets_total);
  EXPECT_EQ(stats.packets_stranded, 0u);
  EXPECT_EQ(sharded.observability().packets_staged.total(), 0);
}

TEST_F(BatchEquivalenceTest, BlockModeDispatchDoesZeroAdmissionClassWork) {
  const auto packets = interleaved_mix(40);
  {
    // Block mode, no watchdog, no bypass: no shed decision is ever made, so
    // the dispatcher must never evaluate a packet's admission class.
    pipeline::ShardedPipeline sharded(
        bank_, {.n_shards = 2, .queue_capacity = 16, .batch_size = 32});
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();
    EXPECT_EQ(sharded.admission_class_evaluations(), 0u);
    EXPECT_EQ(sharded.stats().packets_dropped_payload +
                  sharded.stats().packets_dropped_handshake,
              0u);
  }
  {
    // Shed mode with a tiny ring and zero grace: every drop must have
    // evaluated a class to attribute itself — the counter moves with drops
    // and only with drops.
    pipeline::ShardedPipeline sharded(
        bank_,
        {.n_shards = 1,
         .queue_capacity = 4,
         .batch_size = 32,
         .overload = pipeline::ShardedPipelineOptions::Overload::Shed,
         .payload_grace_us = 0,
         .handshake_grace_us = 0});
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();
    const auto stats = sharded.stats();
    const std::uint64_t drops =
        stats.packets_dropped_payload + stats.packets_dropped_handshake;
    if (drops > 0)
      EXPECT_GT(sharded.admission_class_evaluations(), 0u);
    else
      EXPECT_EQ(sharded.admission_class_evaluations(), 0u);
    // Identity holds with shedding too.
    EXPECT_EQ(stats.packets_processed + drops + stats.packets_stranded,
              stats.packets_total);
  }
}

// ---- ring stress (the TSan-lane pair for the direct tests in util_test) ----

TEST(SpscRingBulkStress, MixedBulkAndSingleOpsKeepFifoUnderThreads) {
  // Move-only payload so a double-move or lost slot shows up as a null or
  // a sequence gap; TSan (ctest -L concurrency under VPSCOPE_SANITIZE=
  // thread) checks the one-release-store-per-batch publication protocol.
  constexpr std::uint64_t kItems = 200'000;
  SpscRing<std::unique_ptr<std::uint64_t>> ring(64);

  std::thread producer([&] {
    std::uint64_t next = 0;
    std::unique_ptr<std::uint64_t> batch[13];
    int phase = 0;
    while (next < kItems) {
      const std::size_t want = std::min<std::uint64_t>(
          (phase % 4 == 0) ? 1 : (phase % 4 == 1) ? 3 : (phase % 4 == 2) ? 7
                                                                         : 13,
          kItems - next);
      ++phase;
      if (want == 1) {
        auto one = std::make_unique<std::uint64_t>(next);
        while (!ring.try_push(one)) std::this_thread::yield();
        ++next;
        continue;
      }
      for (std::size_t i = 0; i < want; ++i)
        batch[i] = std::make_unique<std::uint64_t>(next + i);
      std::size_t done = 0;
      while (done < want) {
        const std::size_t pushed =
            ring.try_push_bulk(batch + done, want - done);
        if (pushed == 0)
          std::this_thread::yield();
        else
          done += pushed;
      }
      next += want;
    }
  });

  std::uint64_t expect = 0;
  std::unique_ptr<std::uint64_t> out[32];
  int phase = 0;
  while (expect < kItems) {
    ++phase;
    if (phase % 3 == 0) {
      std::unique_ptr<std::uint64_t> one;
      if (!ring.try_pop(one)) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_NE(one, nullptr);
      ASSERT_EQ(*one, expect);
      ++expect;
      continue;
    }
    const std::size_t got =
        ring.try_pop_bulk(out, (phase % 3 == 1) ? 5 : 32);
    if (got == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_NE(out[i], nullptr);
      ASSERT_EQ(*out[i], expect);  // strict FIFO across mixed op sizes
      out[i].reset();
      ++expect;
    }
  }
  producer.join();
  std::unique_ptr<std::uint64_t> leftover;
  EXPECT_FALSE(ring.try_pop(leftover));
}

}  // namespace
}  // namespace vpscope
