#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"
#include "ml/forest.hpp"
#include "ml/serialize.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/mutual_info.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"

// Global allocation counter backing the CompiledForest zero-allocation
// test: every operator-new in the binary bumps it, so a hot path that
// stays flat across calls provably allocates nothing.
static std::atomic<std::uint64_t> g_heap_allocations{0};

// GCC flags free() inside a replaced operator delete as mismatched; the
// malloc/free pairing across replaced new/delete is the standard idiom.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace vpscope::ml {
namespace {

/// Two Gaussian blobs per class around distinct centers, plus noise dims.
Dataset make_blobs(int per_class, int classes, int informative_dims,
                   int noise_dims, double spread, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      std::vector<double> x;
      for (int d = 0; d < informative_dims; ++d)
        x.push_back(c * 10.0 + rng.normal(0.0, spread));
      for (int d = 0; d < noise_dims; ++d)
        x.push_back(rng.uniform_real(-50, 50));
      data.x.push_back(std::move(x));
      data.y.push_back(c);
    }
  }
  return data;
}

Dataset make_xor(int n, std::uint64_t seed) {
  // Greedy CART only splits XOR thanks to sampling imbalance (zero exact
  // first-split gain), so keep the feature space to the two XOR inputs.
  Rng rng(seed);
  Dataset data;
  for (int i = 0; i < n; ++i) {
    const bool a = rng.bernoulli(0.5), b = rng.bernoulli(0.5);
    data.x.push_back({a ? 1.0 : 0.0, b ? 1.0 : 0.0});
    data.y.push_back(a != b ? 1 : 0);
  }
  return data;
}

// ---- Dataset utilities ----

TEST(Dataset, SubsetAndProject) {
  Dataset d;
  d.x = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  d.y = {0, 1, 2};
  const Dataset s = d.subset({2, 0});
  EXPECT_EQ(s.y, (std::vector<int>{2, 0}));
  EXPECT_EQ(s.x[0], (std::vector<double>{7, 8, 9}));
  const Dataset p = d.project({2, 0});
  EXPECT_EQ(p.x[1], (std::vector<double>{6, 4}));
  EXPECT_EQ(p.y, d.y);
}

TEST(Dataset, StratifiedFoldsPreserveClassBalance) {
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) labels.push_back(i < 80 ? 0 : 1);
  const auto folds = stratified_fold_ids(labels, 5, 3);
  for (int f = 0; f < 5; ++f) {
    int class0 = 0, class1 = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (folds[i] != f) continue;
      (labels[i] == 0 ? class0 : class1)++;
    }
    EXPECT_EQ(class0, 16);
    EXPECT_EQ(class1, 4);
  }
}

TEST(Dataset, SplitFoldPartitions) {
  const std::vector<int> folds = {0, 1, 2, 0, 1, 2};
  std::vector<int> train, test;
  split_fold(folds, 1, &train, &test);
  EXPECT_EQ(test, (std::vector<int>{1, 4}));
  EXPECT_EQ(train, (std::vector<int>{0, 2, 3, 5}));
}

TEST(Dataset, StratifiedSplitFractions) {
  std::vector<int> labels(200, 0);
  for (int i = 100; i < 200; ++i) labels[static_cast<std::size_t>(i)] = 1;
  std::vector<int> train, test;
  stratified_split(labels, 0.25, 5, &train, &test);
  EXPECT_EQ(test.size(), 50u);
  EXPECT_EQ(train.size(), 150u);
}

// ---- Decision tree ----

TEST(DecisionTree, LearnsXor) {
  const Dataset data = make_xor(400, 1);
  DecisionTree tree;
  tree.fit(data, {}, {.max_depth = 6, .min_samples_split = 2,
                      .max_features = 0},
           2, Rng(1));
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    correct += tree.predict(data.x[i]) == data.y[i];
  EXPECT_GT(correct, 390);
}

TEST(DecisionTree, DepthLimitRespected) {
  const Dataset data = make_blobs(50, 4, 2, 5, 3.0, 2);
  DecisionTree tree;
  tree.fit(data, {}, {.max_depth = 3, .min_samples_split = 2,
                      .max_features = 0},
           4, Rng(1));
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTree, PureLeafProbabilities) {
  Dataset data;
  data.x = {{0.0}, {0.0}, {10.0}, {10.0}};
  data.y = {0, 0, 1, 1};
  DecisionTree tree;
  tree.fit(data, {}, {}, 2, Rng(1));
  const auto p0 = tree.predict_proba({0.0});
  EXPECT_DOUBLE_EQ(p0[0], 1.0);
  EXPECT_DOUBLE_EQ(p0[1], 0.0);
}

TEST(DecisionTree, ImportancesFavorInformativeFeature) {
  const Dataset data = make_blobs(100, 3, 1, 4, 1.0, 3);
  DecisionTree tree;
  tree.fit(data, {}, {}, 3, Rng(1));
  const auto imp = tree.feature_importances();
  ASSERT_EQ(imp.size(), 5u);
  // Feature 0 is the informative one.
  for (std::size_t i = 1; i < imp.size(); ++i) EXPECT_GT(imp[0], imp[i]);
  double total = 0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ---- Random forest ----

// Stored feature/child fields are index + 1; a field above INT_MAX must be
// rejected before the narrowing `- 1` (signed overflow, an abort under the
// non-recovering UBSan lane) — the fuzz lane's model-bundle mutants hit it.
TEST(DecisionTree, DeserializeRejectsIndexFieldsAboveIntMax) {
  const auto one_node = [](std::uint32_t feature, std::uint32_t left,
                           std::uint32_t right) {
    Writer w;
    w.u32(1);  // num_features
    w.u32(1);  // node count
    w.u32(feature);
    w.u64(0);  // threshold
    w.u32(left);
    w.u32(right);
    w.u16(0);  // depth
    w.u16(0);  // proba count
    w.u16(0);  // importance count
    return std::move(w).take();
  };
  const auto parse = [](const Bytes& wire) {
    Reader r(wire);
    return DecisionTree::deserialize(r);
  };
  EXPECT_TRUE(parse(one_node(0, 0, 0)).has_value());  // a lone leaf
  EXPECT_FALSE(parse(one_node(0x80000000u, 0, 0)).has_value());
  EXPECT_FALSE(parse(one_node(0, 0x80000000u, 0)).has_value());
  EXPECT_FALSE(parse(one_node(0, 0, 0xffffffffu)).has_value());
}

// A toy 4-tree forest with tree 0's root threshold patched to NaN loaded
// before the check; the bitmask scorer treats a NaN split as "go left"
// where the traversal goes right. +/-inf loaded too. The loader refuses
// all three, while a finite patch at the same offset still loads.
TEST(DecisionTree, DeserializeRejectsNonFiniteSplitThresholds) {
  const Dataset data = make_blobs(30, 2, 2, 1, 1.0, 21);
  RandomForest forest;
  forest.fit(data, {.n_trees = 4, .max_depth = 4, .min_samples_split = 2,
                    .max_features = 0, .bootstrap = true, .seed = 5});
  ASSERT_GE(forest.trees()[0].nodes()[0].feature, 0);  // the root splits
  const Bytes wire = serialize_forest(forest);
  // v1 layout: magic u32, version u16, classes u32, trees u32; then tree 0:
  // num_features u32, node count u32, root node feature + 1 u32, threshold.
  constexpr std::size_t kRootThreshold = 4 + 2 + 4 + 4 + 4 + 4 + 4;
  const auto patched = [&](double threshold) {
    Writer w;
    w.u64(std::bit_cast<std::uint64_t>(threshold));
    Bytes out = wire;
    const Bytes bits = std::move(w).take();
    std::copy(bits.begin(), bits.end(),
              out.begin() + static_cast<long>(kRootThreshold));
    return out;
  };
  const auto finite = deserialize_forest(patched(0.375));
  ASSERT_TRUE(finite.has_value());
  EXPECT_EQ(finite->trees()[0].nodes()[0].threshold, 0.375);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(deserialize_forest(patched(bad)).has_value()) << bad;
    EXPECT_FALSE(deserialize_compiled_forest(patched(bad)).has_value()) << bad;
  }
}

TEST(RandomForest, SeparatesBlobs) {
  const Dataset train = make_blobs(60, 5, 3, 10, 2.0, 4);
  const Dataset test = make_blobs(20, 5, 3, 10, 2.0, 5);
  RandomForest forest;
  forest.fit(train, {.n_trees = 30, .max_depth = 12, .min_samples_split = 2,
                     .max_features = 0, .bootstrap = true, .seed = 1});
  const auto pred = forest.predict_batch(test);
  EXPECT_GT(accuracy(test.y, pred), 0.95);
}

TEST(RandomForest, ProbabilitiesSumToOne) {
  const Dataset data = make_blobs(40, 3, 2, 2, 2.0, 6);
  RandomForest forest;
  forest.fit(data, {.n_trees = 10, .max_depth = 8, .min_samples_split = 2,
                    .max_features = 0, .bootstrap = true, .seed = 2});
  const auto proba = forest.predict_proba(data.x[0]);
  double total = 0;
  for (double p : proba) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  const auto [cls, conf] = forest.predict_with_confidence(data.x[0]);
  EXPECT_EQ(cls, forest.predict(data.x[0]));
  EXPECT_GT(conf, 0.5);
}

TEST(RandomForest, DeterministicForSeed) {
  const Dataset data = make_blobs(30, 4, 2, 8, 3.0, 7);
  RandomForest a, b;
  ForestParams params{.n_trees = 15, .max_depth = 10, .min_samples_split = 2,
                      .max_features = 4, .bootstrap = true, .seed = 99};
  a.fit(data, params);
  b.fit(data, params);
  for (const auto& row : data.x) EXPECT_EQ(a.predict(row), b.predict(row));
}

TEST(RandomForest, MoreRobustThanSingleTreeUnderNoise) {
  // Heavily noisy blobs: ensemble should beat a single deep tree out of
  // sample.
  const Dataset train = make_blobs(50, 4, 1, 20, 4.0, 8);
  const Dataset test = make_blobs(50, 4, 1, 20, 4.0, 9);

  DecisionTree tree;
  tree.fit(train, {}, {.max_depth = 20, .min_samples_split = 2,
                       .max_features = 4},
           4, Rng(3));
  int tree_correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    tree_correct += tree.predict(test.x[i]) == test.y[i];

  RandomForest forest;
  forest.fit(train, {.n_trees = 40, .max_depth = 20, .min_samples_split = 2,
                     .max_features = 4, .bootstrap = true, .seed = 3});
  const auto pred = forest.predict_batch(test);
  const double forest_acc = accuracy(test.y, pred);
  EXPECT_GE(forest_acc,
            static_cast<double>(tree_correct) / static_cast<double>(test.size()));
}

TEST(RandomForest, ThrowsOnEmpty) {
  RandomForest forest;
  EXPECT_THROW(forest.fit(Dataset{}, {}), std::invalid_argument);
}

// ---- Compiled forest ----

/// Trains a forest with enough classes/depth to exercise non-trivial
/// structure, shared across the compiled-forest tests.
struct CompiledFixture {
  Dataset train;
  RandomForest forest;
  CompiledForest compiled;

  CompiledFixture() {
    train = make_blobs(80, 4, 3, 5, 2.5, 11);
    forest.fit(train, {.n_trees = 40, .max_depth = 14, .min_samples_split = 2,
                       .max_features = 3, .bootstrap = true, .seed = 3});
    compiled = CompiledForest::compile(forest);
  }

  std::vector<double> random_input(Rng& rng) const {
    std::vector<double> x(train.dim());
    for (auto& v : x) v = rng.uniform_real(-60.0, 60.0);
    return x;
  }
};

TEST(CompiledForest, BitIdenticalProbabilitiesOn500RandomInputs) {
  const CompiledFixture f;
  EXPECT_EQ(f.compiled.num_classes(), f.forest.num_classes());
  EXPECT_EQ(f.compiled.tree_count(), f.forest.tree_count());
  EXPECT_GT(f.compiled.node_count(), 0u);

  Rng rng(99);
  std::vector<double> proba(static_cast<std::size_t>(f.compiled.num_classes()));
  CompiledForest::Scratch scratch;
  for (int i = 0; i < 500; ++i) {
    const auto x = f.random_input(rng);
    const auto expected = f.forest.predict_proba(x);
    f.compiled.predict_proba_into(x, proba);
    ASSERT_EQ(proba, expected) << "input " << i;  // bit-identical, not near
    const auto [cls, conf] = f.compiled.predict_with_confidence(x, scratch);
    const auto [ref_cls, ref_conf] = f.forest.predict_with_confidence(x);
    ASSERT_EQ(cls, ref_cls);
    ASSERT_EQ(conf, ref_conf);
  }
}

TEST(CompiledForest, SerializeRoundTripStaysEquivalent) {
  const CompiledFixture f;
  const Bytes wire = serialize_forest(f.forest);
  const auto restored = deserialize_compiled_forest(wire);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->tree_count(), f.forest.tree_count());

  Rng rng(123);
  std::vector<double> proba(static_cast<std::size_t>(restored->num_classes()));
  for (int i = 0; i < 500; ++i) {
    const auto x = f.random_input(rng);
    restored->predict_proba_into(x, proba);
    ASSERT_EQ(proba, f.forest.predict_proba(x)) << "input " << i;
  }
}

TEST(Serialize, BundleRoundTripCarriesEncoderDictionaries) {
  const CompiledFixture f;
  // A hand-built fitted encoder: one categorical and one list dictionary
  // populated, everything else empty (as for attributes never observed).
  std::vector<std::vector<std::pair<std::string, int>>> dicts(
      vpscope::core::kNumAttributes);
  int categorical = -1, list = -1;
  const auto& catalog = vpscope::core::attribute_catalog();
  for (int a = 0; a < vpscope::core::kNumAttributes; ++a) {
    if (categorical < 0 &&
        catalog[static_cast<std::size_t>(a)].type ==
            vpscope::core::AttrType::Categorical)
      categorical = a;
    if (list < 0 && catalog[static_cast<std::size_t>(a)].type ==
                        vpscope::core::AttrType::List)
      list = a;
  }
  ASSERT_GE(categorical, 0);
  ASSERT_GE(list, 0);
  dicts[static_cast<std::size_t>(categorical)] = {{"771", 1}, {"772", 2}};
  dicts[static_cast<std::size_t>(list)] = {
      {"4865", 1}, {"4866", 2}, {"49195", 3}};
  const auto encoder = vpscope::core::FeatureEncoder::from_dictionaries(
      vpscope::fingerprint::Transport::Tcp, dicts);

  const Bytes wire = serialize_bundle(f.forest, encoder);
  const auto bundle = deserialize_bundle(wire);
  ASSERT_TRUE(bundle.has_value());
  ASSERT_TRUE(bundle->encoder.has_value());
  EXPECT_EQ(bundle->encoder->transport(),
            vpscope::fingerprint::Transport::Tcp);
  EXPECT_EQ(bundle->encoder->dictionary(categorical),
            dicts[static_cast<std::size_t>(categorical)]);
  EXPECT_EQ(bundle->encoder->dictionary(list),
            dicts[static_cast<std::size_t>(list)]);

  // The forest half stays prediction-identical.
  Rng rng(321);
  for (int i = 0; i < 100; ++i) {
    const auto x = f.random_input(rng);
    EXPECT_EQ(bundle->forest.predict(x), f.forest.predict(x));
  }
}

TEST(Serialize, V1ForestOnlyStillLoadsAsBundle) {
  // Old (v1) model files must keep loading after the v2 format bump; they
  // simply carry no encoder.
  const CompiledFixture f;
  const Bytes wire = serialize_forest(f.forest);
  const auto bundle = deserialize_bundle(wire);
  ASSERT_TRUE(bundle.has_value());
  EXPECT_FALSE(bundle->encoder.has_value());
  EXPECT_EQ(bundle->forest.tree_count(), f.forest.tree_count());
}

TEST(Serialize, V2LoadsThroughForestOnlyReaders) {
  // And the converse: forest-only consumers can read v2 files (the
  // dictionary block is validated and skipped).
  const CompiledFixture f;
  const std::vector<std::vector<std::pair<std::string, int>>> dicts(
      vpscope::core::kNumAttributes);
  const auto encoder = vpscope::core::FeatureEncoder::from_dictionaries(
      vpscope::fingerprint::Transport::Quic, dicts);
  const Bytes wire = serialize_bundle(f.forest, encoder);

  const auto forest = deserialize_forest(wire);
  ASSERT_TRUE(forest.has_value());
  EXPECT_EQ(forest->tree_count(), f.forest.tree_count());
  const auto compiled = deserialize_compiled_forest(wire);
  ASSERT_TRUE(compiled.has_value());
  EXPECT_EQ(compiled->tree_count(), f.forest.tree_count());
}

TEST(Serialize, TruncatedOrCorruptBundleRejected) {
  const CompiledFixture f;
  const std::vector<std::vector<std::pair<std::string, int>>> dicts(
      vpscope::core::kNumAttributes);
  const auto encoder = vpscope::core::FeatureEncoder::from_dictionaries(
      vpscope::fingerprint::Transport::Tcp, dicts);
  Bytes wire = serialize_bundle(f.forest, encoder);
  // Truncation anywhere inside the dictionary block fails cleanly.
  Bytes truncated(wire.begin(), wire.end() - 7);
  EXPECT_FALSE(deserialize_bundle(truncated).has_value());
  EXPECT_FALSE(deserialize_forest(truncated).has_value());
  // Unknown version fails cleanly.
  wire[5] = 0x37;
  EXPECT_FALSE(deserialize_bundle(wire).has_value());
}

TEST(CompiledForest, BatchMatchesForestOnDatasetAndContiguousMatrix) {
  const CompiledFixture f;
  const Dataset test = make_blobs(25, 4, 3, 5, 2.5, 12);
  const auto expected = f.forest.predict_batch(test);
  EXPECT_EQ(f.compiled.predict_batch(test), expected);

  // Same rows flattened into one contiguous row-major matrix.
  std::vector<double> matrix;
  matrix.reserve(test.size() * test.dim());
  for (const auto& row : test.x)
    matrix.insert(matrix.end(), row.begin(), row.end());
  std::vector<int> out(test.size(), -1);
  CompiledForest::BatchScratch scratch;
  f.compiled.predict_batch(matrix, test.dim(), out, scratch);
  EXPECT_EQ(out, expected);
}

/// Random labels over 16 uniform features: the trees stay inseparable and
/// grow far past 64 leaves each.
RandomForest deep_forest(int n_trees, Dataset* data_out = nullptr) {
  Rng rng(0xdeef);
  Dataset data;
  for (int i = 0; i < 600; ++i) {
    std::vector<double> x(16);
    for (double& v : x) v = rng.uniform01();
    data.x.push_back(std::move(x));
    data.y.push_back(rng.uniform_int(0, 7));
  }
  RandomForest forest;
  ForestParams params;
  params.n_trees = n_trees;
  params.max_depth = 32;
  params.min_samples_split = 2;
  forest.fit(data, params);
  if (data_out) *data_out = std::move(data);
  return forest;
}

TEST(CompiledForest, PredictProbaIntoAllocatesNothingInSteadyState) {
  const CompiledFixture f;
  const CompiledForest deep = CompiledForest::compile(deep_forest(2));
  ASSERT_GT(deep.mask_words(), 2u);  // multi-word trees
  Rng rng(7);
  const auto x = f.random_input(rng);
  std::vector<double> deep_x(16, 0.5);
  std::vector<double> proba(static_cast<std::size_t>(f.compiled.num_classes()));
  std::vector<double> deep_proba(static_cast<std::size_t>(deep.num_classes()));
  CompiledForest::Scratch scratch;
  // Warm-up sizes the scratch buffers once.
  f.compiled.predict_proba_into(x, proba);
  f.compiled.predict_with_confidence(x, scratch);
  deep.predict_proba_into(deep_x, deep_proba);
  deep.predict_with_confidence(deep_x, scratch);

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    f.compiled.predict_proba_into(x, proba);
    f.compiled.predict_with_confidence(x, scratch);
    deep.predict_proba_into(deep_x, deep_proba);
    deep.predict_with_confidence(deep_x, scratch);
  }
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed), before);
}

// Trees with more than 64 leaves have leaf positions past one 64-bit mask
// word: compiling them must give each tree several words without shifting
// by 64 or more on the way (UB the batch lane's deep forest used to hit),
// and the one-row scorer must still match the forest.
TEST(CompiledForest, MoreThan64LeavesFallBackWithoutOverlongShift) {
  Dataset data;
  const RandomForest forest = deep_forest(2, &data);
  const CompiledForest compiled = CompiledForest::compile(forest);
  EXPECT_GT(compiled.mask_words(), 2u);
  std::vector<double> proba(static_cast<std::size_t>(compiled.num_classes()));
  for (const auto& x : data.x) {
    compiled.predict_proba_into(x, proba);
    ASSERT_EQ(proba, forest.predict_proba(x));
  }
}

// Feature values of -inf make training split at (-inf + v) / 2 = -inf.
// compile refuses that split: the sorted-threshold prefix walk is only
// exact for finite thresholds.
TEST(CompiledForest, CompileRejectsNonFiniteSplitThreshold) {
  Dataset data;
  for (int i = 0; i < 40; ++i) {
    data.x.push_back({i < 20 ? -std::numeric_limits<double>::infinity()
                             : static_cast<double>(i)});
    data.y.push_back(i < 20 ? 0 : 1);
  }
  RandomForest forest;
  forest.fit(data, {.n_trees = 1, .max_depth = 4, .min_samples_split = 2,
                    .max_features = 0, .bootstrap = false, .seed = 1});
  ASSERT_EQ(forest.trees()[0].nodes()[0].threshold,
            -std::numeric_limits<double>::infinity());
  EXPECT_THROW(CompiledForest::compile(forest), std::invalid_argument);
}

TEST(CompiledForest, UntrainedIsEmpty) {
  const CompiledForest empty;
  EXPECT_FALSE(empty.trained());
  EXPECT_EQ(empty.tree_count(), 0);
  EXPECT_EQ(empty.node_count(), 0u);
}

// ---- KNN ----

TEST(Knn, SeparatesCleanBlobs) {
  const Dataset train = make_blobs(50, 4, 3, 0, 1.5, 10);
  const Dataset test = make_blobs(20, 4, 3, 0, 1.5, 11);
  KnnClassifier knn;
  knn.fit(train, {.k = 5, .distance_weighted = false});
  EXPECT_GT(accuracy(test.y, knn.predict_batch(test)), 0.97);
}

TEST(Knn, ScaleSensitivity) {
  // One informative small-scale dim + one huge irrelevant dim: unscaled KNN
  // collapses — the pathology the paper's model comparison exposes.
  Rng rng(12);
  Dataset train, test;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 100; ++i) {
      Dataset& target = i < 70 ? train : test;
      target.x.push_back({c * 2.0 + rng.normal(0, 0.2),
                          rng.uniform_real(0, 1e6)});
      target.y.push_back(c);
    }
  }
  KnnClassifier knn;
  knn.fit(train, {.k = 5, .distance_weighted = false});
  EXPECT_LT(accuracy(test.y, knn.predict_batch(test)), 0.75);
}

TEST(Knn, DistanceWeightingBreaksTies) {
  Dataset train;
  train.x = {{0.0}, {0.9}, {1.1}, {2.0}};
  train.y = {0, 0, 1, 1};
  KnnClassifier knn;
  knn.fit(train, {.k = 4, .distance_weighted = true});
  EXPECT_EQ(knn.predict({0.1}), 0);
  EXPECT_EQ(knn.predict({1.9}), 1);
}

// ---- MLP ----

TEST(Mlp, LearnsBlobsWithScaling) {
  const Dataset train = make_blobs(80, 3, 4, 2, 1.5, 13);
  const Dataset test = make_blobs(30, 3, 4, 2, 1.5, 14);
  MlpClassifier mlp;
  MlpParams params;
  params.hidden_layers = {32};
  params.epochs = 80;
  params.scale_inputs = true;
  mlp.fit(train, params);
  EXPECT_GT(accuracy(test.y, mlp.predict_batch(test)), 0.9);
}

TEST(Mlp, UnscaledLargeInputsDegrade) {
  // Features in the millions without scaling: the paper's MLP failure mode.
  Rng rng(15);
  Dataset train, test;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 80; ++i) {
      Dataset& target = i < 60 ? train : test;
      target.x.push_back({c * 1e6 + rng.normal(0, 1e5),
                          rng.uniform_real(0, 100)});
      target.y.push_back(c);
    }
  }
  MlpClassifier scaled, unscaled;
  MlpParams p;
  p.epochs = 40;
  p.scale_inputs = true;
  scaled.fit(train, p);
  p.scale_inputs = false;
  unscaled.fit(train, p);
  EXPECT_GT(accuracy(test.y, scaled.predict_batch(test)),
            accuracy(test.y, unscaled.predict_batch(test)));
}

TEST(Mlp, ProbabilitiesAreSoftmax) {
  const Dataset data = make_blobs(30, 3, 2, 0, 2.0, 16);
  MlpClassifier mlp;
  MlpParams params;
  params.epochs = 10;
  params.scale_inputs = true;
  mlp.fit(data, params);
  const auto proba = mlp.predict_proba(data.x[0]);
  double total = 0;
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ---- Metrics ----

TEST(Metrics, ConfusionMatrixBasics) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 2);
  EXPECT_NEAR(cm.accuracy(), 4.0 / 5.0, 1e-12);
  EXPECT_NEAR(cm.recall(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.precision(1), 0.5, 1e-12);
  EXPECT_NEAR(cm.normalized(0, 1), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(cm.count(0, 1), 1u);
}

TEST(Metrics, AccuracyHelper) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
  EXPECT_THROW(accuracy({1}, {1, 2}), std::invalid_argument);
}

// ---- Mutual information ----

TEST(MutualInfo, IdenticalVariablesGiveEntropy) {
  std::vector<int> y = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(mutual_information(y, y), entropy(y), 1e-9);
  EXPECT_NEAR(entropy(y), std::log2(3.0), 1e-9);
}

TEST(MutualInfo, IndependentVariablesNearZero) {
  Rng rng(17);
  std::vector<int> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.uniform_int(0, 3));
    ys.push_back(rng.uniform_int(0, 3));
  }
  EXPECT_LT(mutual_information(xs, ys), 0.01);
}

TEST(MutualInfo, DeterministicFunctionGivesFullInformation) {
  std::vector<int> xs, ys;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(i % 6);
    ys.push_back((i % 6) / 2);
  }
  EXPECT_NEAR(mutual_information(xs, ys), entropy(ys), 1e-9);
}

TEST(MutualInfo, StringOverloadMatchesIntVersion) {
  const std::vector<std::string> xs = {"a", "a", "b", "b"};
  const std::vector<int> xi = {0, 0, 1, 1};
  const std::vector<int> ys = {0, 1, 0, 1};
  EXPECT_NEAR(mutual_information(xs, ys), mutual_information(xi, ys), 1e-12);
  EXPECT_EQ(unique_count(xs), 2);
}

TEST(MutualInfo, SymmetryAndNonNegativity) {
  Rng rng(18);
  std::vector<int> xs, ys;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(0, 5);
    xs.push_back(v);
    ys.push_back(v / 2 + rng.uniform_int(0, 1));
  }
  const double mi_xy = mutual_information(xs, ys);
  const double mi_yx = mutual_information(ys, xs);
  EXPECT_NEAR(mi_xy, mi_yx, 1e-9);
  EXPECT_GE(mi_xy, 0.0);
}

// ---- model-file corruption (fuzz satellite: ml/serialize robustness) ----

/// A deliberately tiny forest so full-prefix sweeps stay cheap.
struct CorruptionFixture {
  RandomForest forest;
  Bytes v1_wire;
  Bytes v2_wire;

  CorruptionFixture() {
    const Dataset train = make_blobs(30, 3, 2, 4, 2.5, 21);
    forest.fit(train, {.n_trees = 3, .max_depth = 5, .min_samples_split = 2,
                       .max_features = 3, .bootstrap = true, .seed = 9});
    v1_wire = serialize_forest(forest);
    const std::vector<std::vector<std::pair<std::string, int>>> dicts(
        vpscope::core::kNumAttributes);
    const auto encoder = vpscope::core::FeatureEncoder::from_dictionaries(
        vpscope::fingerprint::Transport::Tcp, dicts);
    v2_wire = serialize_bundle(forest, encoder);
  }
};

TEST(SerializeCorruption, EveryPrefixFailsCleanlyForV1AndV2) {
  const CorruptionFixture f;
  for (const Bytes* wire : {&f.v1_wire, &f.v2_wire}) {
    for (std::size_t n = 0; n < wire->size(); ++n) {
      const ByteView prefix{wire->data(), n};
      std::optional<ForestBundle> bundle;
      EXPECT_NO_THROW(bundle = deserialize_bundle(prefix)) << "prefix " << n;
      // deserialize_bundle demands exact consumption, so no strict prefix
      // of a valid file may load.
      EXPECT_FALSE(bundle.has_value()) << "prefix " << n;
    }
    EXPECT_TRUE(deserialize_bundle(*wire).has_value());
  }
}

TEST(SerializeCorruption, BadMagicAndVersionRejected) {
  const CorruptionFixture f;
  Bytes wire = f.v2_wire;
  wire[0] ^= 0xff;
  EXPECT_FALSE(deserialize_bundle(wire).has_value());
  wire = f.v2_wire;
  wire[5] = 0x63;  // unknown version
  EXPECT_FALSE(deserialize_bundle(wire).has_value());
}

TEST(SerializeCorruption, FlippedTreeCountRejected) {
  const CorruptionFixture f;
  // tree_count is the u32 at offset 10 (magic 4, version 2, num_classes 4).
  Bytes wire = f.v1_wire;
  wire[10] = 0xff;
  wire[11] = 0xff;
  wire[12] = 0xff;
  wire[13] = 0xff;  // 2^32-1: over the hard cap
  EXPECT_FALSE(deserialize_bundle(wire).has_value());
  wire = f.v1_wire;
  wire[13] = static_cast<std::uint8_t>(wire[13] + 1);  // one phantom tree
  EXPECT_FALSE(deserialize_bundle(wire).has_value());
}

TEST(SerializeCorruption, NodeCountBombRejectedWithoutAllocation) {
  // Pinned regression: a declared node_count of 10 million with an empty
  // payload used to resize node storage (~0.5 GB) before discovering the
  // bytes were missing. The count must be validated against remaining
  // input first.
  Writer w;
  w.u32(1);           // num_features
  w.u32(10'000'000);  // node_count, nothing behind it
  const Bytes wire = std::move(w).take();
  Reader r(wire);
  EXPECT_FALSE(DecisionTree::deserialize(r).has_value());
}

TEST(SerializeCorruption, ProbaSizeBombRejectedWithoutAllocation) {
  // Pinned regression: per-node proba counts must also be backed by bytes.
  Writer w;
  w.u32(1);     // num_features
  w.u32(1);     // node_count
  w.u32(0);     // feature + 1 (leaf)
  w.u64(0);     // threshold
  w.u32(0);     // left + 1
  w.u32(0);     // right + 1
  w.u16(0);     // depth
  w.u16(4096);  // proba_size with no doubles behind it
  const Bytes wire = std::move(w).take();
  Reader r(wire);
  EXPECT_FALSE(DecisionTree::deserialize(r).has_value());
}

TEST(SerializeCorruption, DictionaryCountBombRejectedWithoutAllocation) {
  // Pinned regression: the v2 encoder block declared a 1-million-entry
  // dictionary; reserve used to run before any byte-availability check.
  const CorruptionFixture f;
  Bytes wire = f.v2_wire;
  // With all-empty dictionaries the encoder block tail is 62 u32 zero
  // counts; overwrite the first with 1'000'000.
  const std::size_t first_count = wire.size() - 62u * 4u;
  wire[first_count] = 0x00;
  wire[first_count + 1] = 0x0f;
  wire[first_count + 2] = 0x42;
  wire[first_count + 3] = 0x40;
  EXPECT_FALSE(deserialize_bundle(wire).has_value());
}

}  // namespace
}  // namespace vpscope::ml
