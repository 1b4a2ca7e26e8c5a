#include "ml/tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace vpscope::ml {

namespace {

double gini_from_counts(const std::vector<int>& counts, int total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (int c : counts) {
    const double p = static_cast<double>(c) / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

void DecisionTree::fit(const Dataset& data, const std::vector<int>& rows,
                       const TreeParams& params, int num_classes, Rng rng) {
  if (data.size() == 0) throw std::invalid_argument("empty dataset");
  nodes_.clear();
  num_features_ = static_cast<int>(data.dim());
  importances_.assign(static_cast<std::size_t>(num_features_), 0.0);

  std::vector<int> all_rows = rows;
  if (all_rows.empty()) {
    all_rows.resize(data.size());
    std::iota(all_rows.begin(), all_rows.end(), 0);
  }
  build(data, all_rows, 0, params, num_classes, rng);

  // Normalize importances.
  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0)
    for (double& v : importances_) v /= total;
}

int DecisionTree::build(const Dataset& data, std::vector<int>& rows,
                        int depth, const TreeParams& params, int num_classes,
                        Rng& rng) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_.back().depth = depth;

  std::vector<int> counts(static_cast<std::size_t>(num_classes), 0);
  for (int r : rows) counts[static_cast<std::size_t>(data.y[static_cast<std::size_t>(r)])]++;
  const int n = static_cast<int>(rows.size());
  const double node_gini = gini_from_counts(counts, n);

  auto make_leaf = [&] {
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    node.proba.resize(static_cast<std::size_t>(num_classes));
    for (int c = 0; c < num_classes; ++c)
      node.proba[static_cast<std::size_t>(c)] =
          n ? static_cast<double>(counts[static_cast<std::size_t>(c)]) / n
            : 0.0;
    return node_index;
  };

  if (depth >= params.max_depth || n < params.min_samples_split ||
      node_gini == 0.0)
    return make_leaf();

  // Candidate feature sample.
  std::vector<int> features(static_cast<std::size_t>(num_features_));
  std::iota(features.begin(), features.end(), 0);
  int n_candidates = num_features_;
  if (params.max_features > 0 && params.max_features < num_features_) {
    rng.shuffle(features);
    n_candidates = params.max_features;
  }

  // Best split search.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_impurity = node_gini;
  std::vector<std::pair<double, int>> sorted;  // (value, label)
  sorted.reserve(rows.size());

  for (int fi = 0; fi < n_candidates; ++fi) {
    const int feature = features[static_cast<std::size_t>(fi)];
    sorted.clear();
    for (int r : rows)
      sorted.emplace_back(
          data.x[static_cast<std::size_t>(r)][static_cast<std::size_t>(feature)],
          data.y[static_cast<std::size_t>(r)]);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;

    std::vector<int> left_counts(static_cast<std::size_t>(num_classes), 0);
    std::vector<int> right_counts = counts;
    int n_left = 0;
    for (int i = 0; i + 1 < n; ++i) {
      const int label = sorted[static_cast<std::size_t>(i)].second;
      left_counts[static_cast<std::size_t>(label)]++;
      right_counts[static_cast<std::size_t>(label)]--;
      ++n_left;
      // Only split between distinct values.
      if (sorted[static_cast<std::size_t>(i)].first ==
          sorted[static_cast<std::size_t>(i + 1)].first)
        continue;
      const int n_right = n - n_left;
      const double impurity =
          (n_left * gini_from_counts(left_counts, n_left) +
           n_right * gini_from_counts(right_counts, n_right)) /
          n;
      if (impurity + 1e-12 < best_impurity) {
        best_impurity = impurity;
        best_feature = feature;
        best_threshold = (sorted[static_cast<std::size_t>(i)].first +
                          sorted[static_cast<std::size_t>(i + 1)].first) /
                         2.0;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition rows.
  std::vector<int> left_rows, right_rows;
  for (int r : rows) {
    const double v = data.x[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(best_feature)];
    (v <= best_threshold ? left_rows : right_rows).push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();

  importances_[static_cast<std::size_t>(best_feature)] +=
      n * (node_gini - best_impurity);

  rows.clear();
  rows.shrink_to_fit();

  const int left = build(data, left_rows, depth + 1, params, num_classes, rng);
  const int right =
      build(data, right_rows, depth + 1, params, num_classes, rng);
  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

const DecisionTree::Node& DecisionTree::descend(
    const std::vector<double>& x) const {
  const Node* node = &nodes_.front();
  while (node->feature >= 0) {
    const double v = x[static_cast<std::size_t>(node->feature)];
    node = &nodes_[static_cast<std::size_t>(v <= node->threshold
                                                ? node->left
                                                : node->right)];
  }
  return *node;
}

int DecisionTree::predict(const std::vector<double>& x) const {
  const auto& proba = descend(x).proba;
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

const std::vector<double>& DecisionTree::predict_proba(
    const std::vector<double>& x) const {
  return descend(x).proba;
}

std::vector<double> DecisionTree::feature_importances() const {
  return importances_;
}

void DecisionTree::serialize(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(num_features_));
  w.u32(static_cast<std::uint32_t>(nodes_.size()));
  for (const Node& node : nodes_) {
    w.u32(static_cast<std::uint32_t>(node.feature + 1));  // -1 -> 0
    w.u64(std::bit_cast<std::uint64_t>(node.threshold));
    w.u32(static_cast<std::uint32_t>(node.left + 1));
    w.u32(static_cast<std::uint32_t>(node.right + 1));
    w.u16(static_cast<std::uint16_t>(node.depth));
    w.u16(static_cast<std::uint16_t>(node.proba.size()));
    for (double p : node.proba) w.u64(std::bit_cast<std::uint64_t>(p));
  }
  w.u16(static_cast<std::uint16_t>(importances_.size()));
  for (double v : importances_) w.u64(std::bit_cast<std::uint64_t>(v));
}

std::optional<DecisionTree> DecisionTree::deserialize(Reader& r) {
  DecisionTree tree;
  tree.num_features_ = static_cast<int>(r.u32());
  const std::uint32_t node_count = r.u32();
  if (!r.ok() || node_count == 0 || node_count > 10'000'000)
    return std::nullopt;
  // Each serialized node occupies at least 24 bytes (feature + threshold +
  // children + depth + proba count); a declared count the input cannot
  // possibly back must not allocate node storage (fuzz: allocation bomb).
  if (node_count > r.remaining() / 24) return std::nullopt;
  tree.nodes_.resize(node_count);
  for (Node& node : tree.nodes_) {
    const std::uint32_t feature = r.u32();
    node.threshold = std::bit_cast<double>(r.u64());
    const std::uint32_t left = r.u32();
    const std::uint32_t right = r.u32();
    // Stored as index + 1 (0 = none): a field above INT_MAX is no index,
    // and narrowing it before the subtraction would overflow.
    constexpr std::uint32_t kMaxField = std::numeric_limits<int>::max();
    if (feature > kMaxField || left > kMaxField || right > kMaxField)
      return std::nullopt;
    node.feature = static_cast<int>(feature) - 1;
    node.left = static_cast<int>(left) - 1;
    node.right = static_cast<int>(right) - 1;
    // Training on finite features splits at the midpoint of two finite
    // values. A NaN split makes CompiledForest's threshold sort ill-defined,
    // and an infinite one can disagree with the traversal on a NaN feature.
    if (node.feature >= 0 && !std::isfinite(node.threshold))
      return std::nullopt;
    node.depth = r.u16();
    const std::uint16_t proba_size = r.u16();
    if (!r.ok() || proba_size > 4096 || proba_size > r.remaining() / 8)
      return std::nullopt;
    node.proba.resize(proba_size);
    for (double& p : node.proba) p = std::bit_cast<double>(r.u64());
    // Structural validation: child indices in range, features sane.
    if (node.feature >= tree.num_features_) return std::nullopt;
    if (node.feature >= 0 &&
        (node.left < 0 || node.right < 0 ||
         node.left >= static_cast<int>(node_count) ||
         node.right >= static_cast<int>(node_count)))
      return std::nullopt;
  }
  // Shape validation: in-degree <= 1 for every node and 0 for the root.
  // Range checks alone admit a child index pointing back at an ancestor;
  // anything walking such a "tree" (descend, CompiledForest's preorder
  // flatten) would loop forever (fuzz: allocation bomb from a single
  // flipped child-index byte).
  std::vector<std::uint8_t> in_degree(node_count, 0);
  for (const Node& node : tree.nodes_) {
    if (node.feature < 0) continue;
    if (++in_degree[static_cast<std::size_t>(node.left)] > 1 ||
        ++in_degree[static_cast<std::size_t>(node.right)] > 1)
      return std::nullopt;
  }
  if (in_degree[0] != 0) return std::nullopt;
  const std::uint16_t importance_size = r.u16();
  if (!r.ok() || importance_size > r.remaining() / 8) return std::nullopt;
  tree.importances_.resize(importance_size);
  for (double& v : tree.importances_) v = std::bit_cast<double>(r.u64());
  if (!r.ok()) return std::nullopt;
  return tree;
}

int DecisionTree::depth() const {
  int max_depth = 0;
  for (const auto& node : nodes_) max_depth = std::max(max_depth, node.depth);
  return max_depth;
}

}  // namespace vpscope::ml
