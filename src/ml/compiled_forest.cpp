#include "ml/compiled_forest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VPSCOPE_X86 1
#else
#define VPSCOPE_X86 0
#endif

namespace vpscope::ml {

namespace {

/// Flows per descent group. Matches the AVX2 gather width (8 x int32
/// cursors); the scalar and SSE2 kernels use the same grouping so all
/// levels partition rows identically.
constexpr std::size_t kGroupLanes = 8;

CompiledForest::Simd resolve_simd(CompiledForest::Simd level) {
  if (level != CompiledForest::Simd::Auto) return level;
  static const CompiledForest::Simd best = [] {
    if (CompiledForest::simd_supported(CompiledForest::Simd::Avx2))
      return CompiledForest::Simd::Avx2;
    if (CompiledForest::simd_supported(CompiledForest::Simd::Sse2))
      return CompiledForest::Simd::Sse2;
    return CompiledForest::Simd::Scalar;
  }();
  return best;
}

}  // namespace

bool CompiledForest::simd_supported(Simd level) {
  switch (level) {
    case Simd::Auto:
    case Simd::Scalar:
      return true;
    case Simd::Sse2:
      return cpu_features().sse2;
    case Simd::Avx2:
      return cpu_features().avx2;
  }
  return false;
}

CompiledForest CompiledForest::compile(const RandomForest& forest) {
  CompiledForest out;
  out.num_classes_ = forest.num_classes();

  std::size_t total_nodes = 0;
  for (const auto& tree : forest.trees()) total_nodes += tree.nodes().size();
  if (total_nodes > static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()))
    throw std::invalid_argument("forest too large to compile");
  out.nodes_.reserve(total_nodes);
  out.roots_.reserve(forest.trees().size());

  // Each tree is emitted in PREORDER (left subtree immediately after its
  // parent), so an internal node's left child is always `cur + 1`. The
  // kernels then never load a left index — descent needs only (feature,
  // threshold, right), and the common left step walks sequentially through
  // memory. The traversal order of any input row is unchanged, so results
  // are bit-identical to the source-order layout.
  std::vector<std::int32_t> order;   // preorder sequence of source indices
  std::vector<std::int32_t> remap;   // source index -> compiled offset
  std::vector<std::int32_t> stack;
  for (const auto& tree : forest.trees()) {
    const auto& src = tree.nodes();
    const auto base = static_cast<std::int32_t>(out.nodes_.size());
    out.roots_.push_back(base);

    order.clear();
    remap.assign(src.size(), -1);
    stack.assign(1, 0);  // root is node 0 in DecisionTree's layout
    while (!stack.empty()) {
      const std::int32_t at = stack.back();
      stack.pop_back();
      // A node revisited during the flatten means the source has a cycle
      // (DecisionTree::deserialize rejects those; a hand-built forest could
      // still carry one) — fail loudly instead of growing `order` forever.
      if (remap[static_cast<std::size_t>(at)] != -1)
        throw std::invalid_argument("cycle in decision tree");
      remap[static_cast<std::size_t>(at)] =
          base + static_cast<std::int32_t>(order.size());
      order.push_back(at);
      const auto& node = src[static_cast<std::size_t>(at)];
      if (node.feature >= 0) {
        stack.push_back(static_cast<std::int32_t>(node.right));
        stack.push_back(static_cast<std::int32_t>(node.left));  // next out
      }
    }

    for (const std::int32_t at : order) {
      const auto& node = src[static_cast<std::size_t>(at)];
      Node compiled;
      if (node.feature >= 0) {
        compiled.feature = static_cast<std::int32_t>(node.feature);
        compiled.threshold = node.threshold;
        compiled.left = remap[static_cast<std::size_t>(node.left)];
        compiled.right = remap[static_cast<std::size_t>(node.right)];
      } else {
        compiled.left =
            static_cast<std::int32_t>(out.leaf_proba_.size());
        // Leaf distributions are stored padded to num_classes so every leaf
        // contributes a full-width class vector to the accumulation; the
        // sparse mirror records just the nonzero entries for the bitmask
        // scorer (skipping +0.0 addends is bit-exact — see the header).
        if (out.sparse_begin_.empty()) out.sparse_begin_.push_back(0);
        for (int c = 0; c < out.num_classes_; ++c) {
          const double p = c < static_cast<int>(node.proba.size())
                               ? node.proba[static_cast<std::size_t>(c)]
                               : 0.0;
          out.leaf_proba_.push_back(p);
          if (p != 0.0) {
            out.sparse_cls_.push_back(c);
            out.sparse_val_.push_back(p);
          }
        }
        out.sparse_begin_.push_back(
            static_cast<std::int32_t>(out.sparse_cls_.size()));
      }
      out.nodes_.push_back(compiled);
    }
  }

  // SoA planes for the cross-flow kernels. Leaves keep feature = -1 and
  // carry their leaf-block offset in the left plane; their threshold is 0.0
  // so a masked-out lane's gather still reads in-bounds memory. The meta
  // plane packs (feature << 32 | right-or-leaf-offset): one 64-bit gather
  // per lane fetches everything but the threshold.
  out.soa_meta_.reserve(out.nodes_.size());
  out.soa_feature_.reserve(out.nodes_.size());
  out.soa_left_.reserve(out.nodes_.size());
  out.soa_right_.reserve(out.nodes_.size());
  out.soa_threshold_.reserve(out.nodes_.size());
  for (const Node& node : out.nodes_) {
    const std::uint32_t low = static_cast<std::uint32_t>(
        node.feature >= 0 ? node.right : node.left);  // child or leaf block
    out.soa_meta_.push_back(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node.feature))
         << 32) |
        low);
    out.soa_feature_.push_back(node.feature);
    out.soa_left_.push_back(node.left);
    out.soa_right_.push_back(node.right);
    out.soa_threshold_.push_back(node.threshold);
  }
  out.build_bitmask_scorer();
  return out;
}

// Builds the QuickScorer planes (see the header). Walks each compiled tree
// recursively: leaves are numbered left-to-right (preorder with left-first
// emission makes encounter order = left-to-right), and every internal node
// records the 64-bit complement of its left subtree's leaf range together
// with its (feature, threshold, tree). The lists are then bucketed by
// feature and sorted by threshold so scoring walks a plain prefix.
void CompiledForest::build_bitmask_scorer() {
  qs_ok_ = !roots_.empty();
  if (!qs_ok_) return;

  struct Entry {
    std::int32_t feature;
    double threshold;
    std::int32_t tree;
    std::uint64_t mask;
  };
  std::vector<Entry> entries;
  entries.reserve(nodes_.size());
  qs_tree_full_.reserve(roots_.size());
  qs_leaf_base_.reserve(roots_.size());

  // (first leaf position, leaf count) of the subtree rooted at `at`.
  int n_leaves = 0;
  const auto walk = [&](auto&& self, std::int32_t at,
                        std::int32_t tree) -> std::pair<int, int> {
    const Node& node = nodes_[static_cast<std::size_t>(at)];
    if (node.feature < 0) {
      const int pos = n_leaves++;
      qs_leaf_off_.push_back(node.left);
      return {pos, 1};
    }
    const auto left = self(self, at + 1, tree);  // preorder: left is next
    const auto right = self(self, node.right, tree);
    // A leaf position past 63 has no mask bit; its tree has more than 64
    // leaves and bails out below, so the entry is never used — only the
    // shift must not happen.
    const std::uint64_t left_mask =
        left.first >= 64    ? 0
        : left.second >= 64 ? ~0ull
                            : ((1ull << left.second) - 1)
                                  << static_cast<unsigned>(left.first);
    entries.push_back({node.feature, node.threshold, tree, ~left_mask});
    return {left.first, left.second + right.second};
  };
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    qs_leaf_base_.push_back(static_cast<std::int32_t>(qs_leaf_off_.size()));
    n_leaves = 0;
    walk(walk, roots_[t], static_cast<std::int32_t>(t));
    if (n_leaves > 64) {
      // A tree this deep cannot be represented in one 64-bit leaf mask;
      // the batch path falls back to the traversal kernels.
      qs_ok_ = false;
      qs_tree_full_.clear();
      qs_leaf_base_.clear();
      qs_leaf_off_.clear();
      return;
    }
    qs_tree_full_.push_back(n_leaves >= 64 ? ~0ull : (1ull << n_leaves) - 1);
  }

  std::int32_t max_feature = -1;
  for (const Entry& e : entries) max_feature = std::max(max_feature, e.feature);
  qs_f_begin_.assign(static_cast<std::size_t>(max_feature + 2), 0);
  for (const Entry& e : entries)
    ++qs_f_begin_[static_cast<std::size_t>(e.feature) + 1];
  for (std::size_t f = 1; f < qs_f_begin_.size(); ++f)
    qs_f_begin_[f] += qs_f_begin_[f - 1];
  std::vector<Entry> sorted(entries.size());
  {
    auto at = qs_f_begin_;
    for (const Entry& e : entries)
      sorted[static_cast<std::size_t>(at[static_cast<std::size_t>(e.feature)]++)] =
          e;
  }
  for (std::size_t f = 0; f + 1 < qs_f_begin_.size(); ++f)
    std::sort(sorted.begin() + qs_f_begin_[f],
              sorted.begin() + qs_f_begin_[f + 1],
              [](const Entry& a, const Entry& b) {
                return a.threshold < b.threshold;
              });
  qs_thresh_.reserve(sorted.size());
  qs_tree_.reserve(sorted.size());
  qs_mask_.reserve(sorted.size());
  for (const Entry& e : sorted) {
    qs_thresh_.push_back(e.threshold);
    qs_tree_.push_back(e.tree);
    qs_mask_.push_back(e.mask);
  }
}

void CompiledForest::predict_proba_into(std::span<const double> x,
                                        std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = roots_.size();
  // Interleaved descent: advance up to kLanes trees per sweep so their
  // (mutually independent) node loads overlap in the memory pipeline
  // instead of paying one serialized dependent-load chain per tree. Lanes
  // that reached a leaf re-test a cached node until the whole block is
  // done, which is cheaper than maintaining an active set.
  constexpr std::size_t kLanes = 16;
  std::int32_t cur[kLanes];
  for (std::size_t t0 = 0; t0 < n_trees; t0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, n_trees - t0);
    for (std::size_t j = 0; j < lanes; ++j) cur[j] = roots_[t0 + j];
    for (bool active = true; active;) {
      active = false;
      for (std::size_t j = 0; j < lanes; ++j) {
        const Node& node = nodes_[static_cast<std::size_t>(cur[j])];
        if (node.feature >= 0) {
          cur[j] = x[static_cast<std::size_t>(node.feature)] <= node.threshold
                       ? node.left
                       : node.right;
          active = true;
        }
      }
    }
    // Leaf contributions are accumulated in tree order regardless of which
    // lane finished first — the addition order (and therefore the result)
    // stays bit-identical to RandomForest::predict_proba.
    for (std::size_t j = 0; j < lanes; ++j) {
      const double* proba =
          leaf_proba_.data() +
          static_cast<std::size_t>(
              nodes_[static_cast<std::size_t>(cur[j])].left);
      for (std::size_t c = 0; c < n_classes; ++c) out[c] += proba[c];
    }
  }
  // Division (not multiply-by-reciprocal) keeps the rounding identical to
  // RandomForest::predict_proba — the equivalence guarantee is bit-exact.
  if (!roots_.empty()) {
    const auto n_trees = static_cast<double>(roots_.size());
    for (std::size_t c = 0; c < n_classes; ++c) out[c] /= n_trees;
  }
}

int CompiledForest::predict(std::span<const double> x,
                            Scratch& scratch) const {
  return predict_with_confidence(x, scratch).first;
}

std::pair<int, double> CompiledForest::predict_with_confidence(
    std::span<const double> x, Scratch& scratch) const {
  scratch.proba.resize(static_cast<std::size_t>(num_classes_));
  predict_proba_into(x, scratch.proba);
  const auto it = std::max_element(scratch.proba.begin(), scratch.proba.end());
  return {static_cast<int>(it - scratch.proba.begin()), *it};
}

// ---------------------------------------------------------------------------
// Cross-flow batch kernels. All three descend ONE tree for the whole batch,
// in groups of up to kGroupLanes flows at once: lane = flow. Iterating
// tree-outer (the driver loop in predict_proba_batch) keeps that tree's
// node planes cache-hot across every row of the batch, so the forest
// streams through the cache hierarchy once per BATCH instead of once per
// flow — that reuse, not the SIMD compare, is most of the batching win.
// Every kernel accumulates leaf distributions per row strictly in tree
// order (the driver's outer loop) and the split compare is an exact double
// <=, so the probabilities are bit-identical across levels and to the
// per-flow path.
// ---------------------------------------------------------------------------

void CompiledForest::descend_tree_scalar(std::int32_t root,
                                         const double* matrix,
                                         std::size_t dim, std::size_t rows,
                                         double* acc) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const Node* nodes = nodes_.data();
  std::int32_t cur[kGroupLanes];
  for (std::size_t r0 = 0; r0 < rows; r0 += kGroupLanes) {
    const std::size_t lanes = std::min(kGroupLanes, rows - r0);
    const double* group = matrix + r0 * dim;
    for (std::size_t j = 0; j < lanes; ++j) cur[j] = root;
    for (bool active = true; active;) {
      active = false;
      for (std::size_t j = 0; j < lanes; ++j) {
        // AoS access on purpose: one cache line per visited node beats the
        // four-plane SoA walk when the lane advances serially.
        const Node& node = nodes[static_cast<std::size_t>(cur[j])];
        if (node.feature >= 0) {
          const double x =
              group[j * dim + static_cast<std::size_t>(node.feature)];
          // Preorder layout: the left child is the next node.
          cur[j] = x <= node.threshold ? cur[j] + 1 : node.right;
          active = true;
        }
      }
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      const double* proba =
          leaf_proba_.data() +
          static_cast<std::size_t>(nodes[static_cast<std::size_t>(cur[j])].left);
      double* row_acc = acc + (r0 + j) * n_classes;
      for (std::size_t c = 0; c < n_classes; ++c) row_acc[c] += proba[c];
    }
  }
}

// ---------------------------------------------------------------------------
// Bitmask scorer kernels (see the header). Per row the work is: copy the
// per-tree all-ones masks, AND away left subtrees along each feature's
// threshold-sorted prefix, then take the lowest surviving bit per tree and
// accumulate that leaf's sparse distribution — in tree order, so the result
// is bit-identical to the traversal paths. A NaN feature compares false
// against every threshold in a traversal (always goes right), which makes
// EVERY node on that feature a false node — substituting +inf reproduces
// exactly that (the whole prefix matches).
// ---------------------------------------------------------------------------

void CompiledForest::qs_score_scalar(const double* matrix, std::size_t dim,
                                     std::size_t rows, double* out) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = roots_.size();
  const std::size_t n_features = std::min(dim, qs_f_begin_.size() - 1);
  static thread_local std::vector<std::uint64_t> acc;
  acc.resize(n_trees);
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(acc.data(), qs_tree_full_.data(),
                n_trees * sizeof(std::uint64_t));
    const double* x = matrix + r * dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = qs_f_begin_[f];
      const std::int32_t e = qs_f_begin_[f + 1];
      if (b == e) continue;
      double v = x[f];
      if (std::isnan(v)) v = std::numeric_limits<double>::infinity();
      for (std::int32_t p = b;
           p < e && qs_thresh_[static_cast<std::size_t>(p)] < v; ++p)
        acc[static_cast<std::size_t>(qs_tree_[static_cast<std::size_t>(p)])] &=
            qs_mask_[static_cast<std::size_t>(p)];
    }
    double* row = out + r * n_classes;
    for (std::size_t t = 0; t < n_trees; ++t) {
      const int pos = std::countr_zero(acc[t]);
      const std::size_t leaf_id =
          static_cast<std::size_t>(
              qs_leaf_off_[static_cast<std::size_t>(qs_leaf_base_[t] + pos)]) /
          n_classes;
      const std::int32_t se = sparse_begin_[leaf_id + 1];
      for (std::int32_t q = sparse_begin_[leaf_id]; q < se; ++q)
        row[static_cast<std::size_t>(
            sparse_cls_[static_cast<std::size_t>(q)])] +=
            sparse_val_[static_cast<std::size_t>(q)];
    }
  }
}

#if VPSCOPE_X86

// Vector variants score 2 (SSE2) / 4 (AVX2) rows per 64-bit lane. Rows walk
// the same sorted prefix together: a row whose prefix already ended blends
// an all-ones (no-op) mask, and the walk stops when no row still matches —
// valid because thresholds are sorted, so `x > threshold` is monotone
// non-increasing along the list.

__attribute__((target("sse2"))) void CompiledForest::qs_score_sse2(
    const double* matrix, std::size_t dim, std::size_t rows,
    double* out) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = roots_.size();
  const std::size_t n_features = std::min(dim, qs_f_begin_.size() - 1);
  const __m128i all1 = _mm_set1_epi64x(-1);
  static thread_local std::vector<std::uint64_t> acc;  // n_trees x 2 lanes
  acc.resize(n_trees * 2);
  std::size_t r0 = 0;
  for (; r0 + 2 <= rows; r0 += 2) {
    for (std::size_t t = 0; t < n_trees; ++t)
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(acc.data() + 2 * t),
          _mm_set1_epi64x(static_cast<long long>(qs_tree_full_[t])));
    const double* x0 = matrix + r0 * dim;
    const double* x1 = x0 + dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = qs_f_begin_[f];
      const std::int32_t e = qs_f_begin_[f + 1];
      if (b == e) continue;
      double v0 = x0[f], v1 = x1[f];
      if (std::isnan(v0)) v0 = std::numeric_limits<double>::infinity();
      if (std::isnan(v1)) v1 = std::numeric_limits<double>::infinity();
      const __m128d v = _mm_set_pd(v1, v0);
      for (std::int32_t p = b; p < e; ++p) {
        const __m128d th =
            _mm_set1_pd(qs_thresh_[static_cast<std::size_t>(p)]);
        const __m128i gt = _mm_castpd_si128(_mm_cmpgt_pd(v, th));
        if (_mm_movemask_epi8(gt) == 0) break;
        const std::size_t t = static_cast<std::size_t>(
            qs_tree_[static_cast<std::size_t>(p)]);
        const __m128i m = _mm_set1_epi64x(
            static_cast<long long>(qs_mask_[static_cast<std::size_t>(p)]));
        // No SSE2 blendv: eff = (gt & mask) | (~gt & all-ones).
        const __m128i eff =
            _mm_or_si128(_mm_and_si128(gt, m), _mm_andnot_si128(gt, all1));
        __m128i* slot = reinterpret_cast<__m128i*>(acc.data() + 2 * t);
        _mm_storeu_si128(slot, _mm_and_si128(_mm_loadu_si128(slot), eff));
      }
    }
    for (std::size_t i = 0; i < 2; ++i) {
      double* row = out + (r0 + i) * n_classes;
      for (std::size_t t = 0; t < n_trees; ++t) {
        const int pos = std::countr_zero(acc[2 * t + i]);
        const std::size_t leaf_id =
            static_cast<std::size_t>(qs_leaf_off_[static_cast<std::size_t>(
                qs_leaf_base_[t] + pos)]) /
            n_classes;
        const std::int32_t se = sparse_begin_[leaf_id + 1];
        for (std::int32_t q = sparse_begin_[leaf_id]; q < se; ++q)
          row[static_cast<std::size_t>(
              sparse_cls_[static_cast<std::size_t>(q)])] +=
              sparse_val_[static_cast<std::size_t>(q)];
      }
    }
  }
  if (r0 < rows)
    qs_score_scalar(matrix + r0 * dim, dim, rows - r0, out + r0 * n_classes);
}

__attribute__((target("avx2"))) void CompiledForest::qs_score_avx2(
    const double* matrix, std::size_t dim, std::size_t rows,
    double* out) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = roots_.size();
  const std::size_t n_features = std::min(dim, qs_f_begin_.size() - 1);
  const __m256i all1 = _mm256_set1_epi64x(-1);
  static thread_local std::vector<std::uint64_t> acc;  // n_trees x 4 lanes
  acc.resize(n_trees * 4);
  std::size_t r0 = 0;
  for (; r0 + 4 <= rows; r0 += 4) {
    for (std::size_t t = 0; t < n_trees; ++t)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(acc.data() + 4 * t),
          _mm256_set1_epi64x(static_cast<long long>(qs_tree_full_[t])));
    const double* x0 = matrix + r0 * dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = qs_f_begin_[f];
      const std::int32_t e = qs_f_begin_[f + 1];
      if (b == e) continue;
      double v0 = x0[f], v1 = x0[dim + f], v2 = x0[2 * dim + f],
             v3 = x0[3 * dim + f];
      if (std::isnan(v0)) v0 = std::numeric_limits<double>::infinity();
      if (std::isnan(v1)) v1 = std::numeric_limits<double>::infinity();
      if (std::isnan(v2)) v2 = std::numeric_limits<double>::infinity();
      if (std::isnan(v3)) v3 = std::numeric_limits<double>::infinity();
      const __m256d v = _mm256_set_pd(v3, v2, v1, v0);
      for (std::int32_t p = b; p < e; ++p) {
        const __m256d th =
            _mm256_broadcast_sd(&qs_thresh_[static_cast<std::size_t>(p)]);
        const __m256i gt =
            _mm256_castpd_si256(_mm256_cmp_pd(v, th, _CMP_GT_OQ));
        if (_mm256_testz_si256(gt, gt)) break;
        const std::size_t t = static_cast<std::size_t>(
            qs_tree_[static_cast<std::size_t>(p)]);
        const __m256i m = _mm256_set1_epi64x(
            static_cast<long long>(qs_mask_[static_cast<std::size_t>(p)]));
        const __m256i eff = _mm256_blendv_epi8(all1, m, gt);
        __m256i* slot = reinterpret_cast<__m256i*>(acc.data() + 4 * t);
        _mm256_storeu_si256(slot,
                            _mm256_and_si256(_mm256_loadu_si256(slot), eff));
      }
    }
    for (std::size_t i = 0; i < 4; ++i) {
      double* row = out + (r0 + i) * n_classes;
      for (std::size_t t = 0; t < n_trees; ++t) {
        const int pos = std::countr_zero(acc[4 * t + i]);
        const std::size_t leaf_id =
            static_cast<std::size_t>(qs_leaf_off_[static_cast<std::size_t>(
                qs_leaf_base_[t] + pos)]) /
            n_classes;
        const std::int32_t se = sparse_begin_[leaf_id + 1];
        for (std::int32_t q = sparse_begin_[leaf_id]; q < se; ++q)
          row[static_cast<std::size_t>(
              sparse_cls_[static_cast<std::size_t>(q)])] +=
              sparse_val_[static_cast<std::size_t>(q)];
      }
    }
  }
  if (r0 < rows)
    qs_score_scalar(matrix + r0 * dim, dim, rows - r0, out + r0 * n_classes);
}

__attribute__((target("sse2"))) void CompiledForest::descend_tree_sse2(
    std::int32_t root, const double* matrix, std::size_t dim,
    std::size_t rows, double* acc) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  std::int32_t cur[kGroupLanes];
  for (std::size_t r0 = 0; r0 < rows; r0 += kGroupLanes) {
    const std::size_t lanes = std::min(kGroupLanes, rows - r0);
    const double* group = matrix + r0 * dim;
    for (std::size_t j = 0; j < lanes; ++j) cur[j] = root;
    for (bool active = true; active;) {
      active = false;
      // Pairs of lanes share one packed-double compare; a lone active lane
      // in a pair steps scalar. Both forms are the same exact <=.
      for (std::size_t p = 0; p < lanes; p += 2) {
        const std::size_t j0 = p;
        const std::size_t j1 = p + 1 < lanes ? p + 1 : p;
        const auto c0 = static_cast<std::size_t>(cur[j0]);
        const auto c1 = static_cast<std::size_t>(cur[j1]);
        const std::int32_t f0 = soa_feature_[c0];
        const std::int32_t f1 = soa_feature_[c1];
        if (f0 >= 0 && f1 >= 0 && j1 != j0) {
          const __m128d x = _mm_set_pd(
              group[j1 * dim + static_cast<std::size_t>(f1)],
              group[j0 * dim + static_cast<std::size_t>(f0)]);
          const __m128d t = _mm_set_pd(soa_threshold_[c1], soa_threshold_[c0]);
          const int le = _mm_movemask_pd(_mm_cmple_pd(x, t));
          cur[j0] = (le & 1) ? soa_left_[c0] : soa_right_[c0];
          cur[j1] = (le & 2) ? soa_left_[c1] : soa_right_[c1];
          active = true;
          continue;
        }
        if (f0 >= 0) {
          const double x = group[j0 * dim + static_cast<std::size_t>(f0)];
          cur[j0] = x <= soa_threshold_[c0] ? soa_left_[c0] : soa_right_[c0];
          active = true;
        }
        if (j1 != j0 && f1 >= 0) {
          const double x = group[j1 * dim + static_cast<std::size_t>(f1)];
          cur[j1] = x <= soa_threshold_[c1] ? soa_left_[c1] : soa_right_[c1];
          active = true;
        }
      }
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      const double* proba =
          leaf_proba_.data() +
          static_cast<std::size_t>(soa_left_[static_cast<std::size_t>(cur[j])]);
      double* row_acc = acc + (r0 + j) * n_classes;
      for (std::size_t c = 0; c < n_classes; ++c) row_acc[c] += proba[c];
    }
  }
}

__attribute__((target("avx2"))) void CompiledForest::descend_tree_avx2(
    std::int32_t root, const double* matrix, std::size_t dim,
    std::size_t rows, double* acc) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const __m256i vminus1 = _mm256_set1_epi32(-1);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi32(1);
  // Lane extractors for the packed meta plane: 64-bit lanes are
  // (feature << 32 | right), so the odd dwords are features and the even
  // dwords are right children. The upper four indices are don't-care
  // (permute2x128 keeps only the low half of each permute).
  const __m256i vodd = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  const __m256i veven = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const auto* meta =
      reinterpret_cast<const long long*>(soa_meta_.data());

  alignas(32) std::int32_t lane_base[kGroupLanes];
  alignas(32) std::int32_t curbuf[kGroupLanes];
  for (std::size_t r0 = 0; r0 < rows; r0 += kGroupLanes) {
    const std::size_t lanes = std::min(kGroupLanes, rows - r0);
    const double* group = matrix + r0 * dim;
    // Lane j reads row r0+j; surplus lanes of a partial group alias the
    // group's row 0 (their descent is discarded), so every gather stays
    // in-bounds.
    for (std::size_t j = 0; j < kGroupLanes; ++j)
      lane_base[j] = static_cast<std::int32_t>((j < lanes ? j : 0) * dim);
    const __m256i vlane_base =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_base));
    __m256i cur = _mm256_set1_epi32(root);
    for (;;) {
      // One 64-bit gather per lane half fetches feature AND right child.
      const __m128i cur_lo = _mm256_castsi256_si128(cur);
      const __m128i cur_hi = _mm256_extracti128_si256(cur, 1);
      const __m256i meta_lo = _mm256_i32gather_epi64(meta, cur_lo, 8);
      const __m256i meta_hi = _mm256_i32gather_epi64(meta, cur_hi, 8);
      const __m256i feat = _mm256_permute2x128_si256(
          _mm256_permutevar8x32_epi32(meta_lo, vodd),
          _mm256_permutevar8x32_epi32(meta_hi, vodd), 0x20);
      const __m256i lane_active = _mm256_cmpgt_epi32(feat, vminus1);
      if (_mm256_testz_si256(lane_active, lane_active)) break;
      const __m256i right = _mm256_permute2x128_si256(
          _mm256_permutevar8x32_epi32(meta_lo, veven),
          _mm256_permutevar8x32_epi32(meta_hi, veven), 0x20);
      // Leaf lanes gather feature -1 -> clamp to 0 so the x gather stays
      // in-bounds; the blend below discards their result anyway.
      const __m256i feat_safe = _mm256_max_epi32(feat, vzero);
      const __m256i xidx = _mm256_add_epi32(vlane_base, feat_safe);
      const __m128i xidx_lo = _mm256_castsi256_si128(xidx);
      const __m128i xidx_hi = _mm256_extracti128_si256(xidx, 1);
      const __m256d x_lo = _mm256_i32gather_pd(group, xidx_lo, 8);
      const __m256d x_hi = _mm256_i32gather_pd(group, xidx_hi, 8);
      const __m256d t_lo =
          _mm256_i32gather_pd(soa_threshold_.data(), cur_lo, 8);
      const __m256d t_hi =
          _mm256_i32gather_pd(soa_threshold_.data(), cur_hi, 8);
      // Exact ordered <=: NaN features take the right child, matching the
      // scalar `x <= threshold` (false on NaN).
      const __m256d le_lo = _mm256_cmp_pd(x_lo, t_lo, _CMP_LE_OQ);
      const __m256d le_hi = _mm256_cmp_pd(x_hi, t_hi, _CMP_LE_OQ);
      // Narrow the two 4x64-bit masks into one 8x32-bit mask.
      const __m256i le32 = _mm256_permute2x128_si256(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(le_lo), veven),
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(le_hi), veven),
          0x20);
      // Preorder layout: the left child is cur + 1 — no gather needed.
      const __m256i left = _mm256_add_epi32(cur, vone);
      const __m256i next = _mm256_blendv_epi8(right, left, le32);
      cur = _mm256_blendv_epi8(cur, next, lane_active);
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(curbuf), cur);
    for (std::size_t j = 0; j < lanes; ++j) {
      const double* proba =
          leaf_proba_.data() +
          static_cast<std::size_t>(
              soa_left_[static_cast<std::size_t>(curbuf[j])]);
      double* row_acc = acc + (r0 + j) * n_classes;
      for (std::size_t c = 0; c < n_classes; ++c) row_acc[c] += proba[c];
    }
  }
}

#else  // !VPSCOPE_X86

void CompiledForest::descend_tree_sse2(std::int32_t root, const double* matrix,
                                       std::size_t dim, std::size_t rows,
                                       double* acc) const {
  descend_tree_scalar(root, matrix, dim, rows, acc);
}

void CompiledForest::descend_tree_avx2(std::int32_t root, const double* matrix,
                                       std::size_t dim, std::size_t rows,
                                       double* acc) const {
  descend_tree_scalar(root, matrix, dim, rows, acc);
}

void CompiledForest::qs_score_sse2(const double* matrix, std::size_t dim,
                                   std::size_t rows, double* out) const {
  qs_score_scalar(matrix, dim, rows, out);
}

void CompiledForest::qs_score_avx2(const double* matrix, std::size_t dim,
                                   std::size_t rows, double* out) const {
  qs_score_scalar(matrix, dim, rows, out);
}

#endif  // VPSCOPE_X86

void CompiledForest::predict_proba_batch(std::span<const double> matrix,
                                         std::size_t dim,
                                         std::span<double> out,
                                         Simd level) const {
  if (dim == 0) throw std::invalid_argument("predict_proba_batch: dim == 0");
  const std::size_t rows = matrix.size() / dim;
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  if (out.size() < rows * n_classes)
    throw std::invalid_argument("predict_proba_batch: out too small");
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(
                                           rows * n_classes), 0.0);
  if (rows == 0 || roots_.empty()) return;
  const Simd resolved = resolve_simd(level);
  if (!simd_supported(resolved))
    throw std::invalid_argument(
        "predict_proba_batch: forced SIMD level unsupported on this CPU");
  if (qs_ok_) {
    // Bitmask scorer: no traversal at all (see the header).
    switch (resolved) {
      case Simd::Avx2:
        qs_score_avx2(matrix.data(), dim, rows, out.data());
        break;
      case Simd::Sse2:
        qs_score_sse2(matrix.data(), dim, rows, out.data());
        break;
      default:
        qs_score_scalar(matrix.data(), dim, rows, out.data());
        break;
    }
  } else {
    // Fallback for forests with a tree too deep for one 64-bit leaf mask.
    // Tree-outer: each tree's node planes are walked for the whole batch
    // while still hot. Per row the accumulation order is exactly tree
    // order, as in the per-flow path.
    for (const std::int32_t root : roots_) {
      switch (resolved) {
        case Simd::Avx2:
          descend_tree_avx2(root, matrix.data(), dim, rows, out.data());
          break;
        case Simd::Sse2:
          descend_tree_sse2(root, matrix.data(), dim, rows, out.data());
          break;
        default:
          descend_tree_scalar(root, matrix.data(), dim, rows, out.data());
          break;
      }
    }
  }
  // Same final division as predict_proba_into: bit-identical rounding.
  const auto n_trees = static_cast<double>(roots_.size());
  for (std::size_t i = 0; i < rows * n_classes; ++i) out[i] /= n_trees;
}

void CompiledForest::predict_with_confidence_batch(
    std::span<const double> matrix, std::size_t dim, std::span<int> labels,
    std::span<double> confidences, BatchScratch& scratch, Simd level) const {
  if (dim == 0)
    throw std::invalid_argument("predict_with_confidence_batch: dim == 0");
  const std::size_t rows = matrix.size() / dim;
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  scratch.proba.resize(rows * n_classes);
  predict_proba_batch(matrix, dim, scratch.proba, level);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* proba = scratch.proba.data() + r * n_classes;
    // First-maximum argmax: the exact tie-breaking of std::max_element in
    // predict_with_confidence.
    std::size_t best = 0;
    for (std::size_t c = 1; c < n_classes; ++c)
      if (proba[c] > proba[best]) best = c;
    if (r < labels.size()) labels[r] = static_cast<int>(best);
    if (r < confidences.size()) confidences[r] = proba[best];
  }
}

void CompiledForest::predict_batch(std::span<const double> matrix,
                                   std::size_t dim, std::span<int> out,
                                   BatchScratch& scratch, Simd level) const {
  if (dim == 0) throw std::invalid_argument("predict_batch: dim == 0");
  const std::size_t rows = std::min(matrix.size() / dim, out.size());
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  scratch.proba.resize(rows * n_classes);
  predict_proba_batch(matrix.first(rows * dim), dim, scratch.proba, level);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* proba = scratch.proba.data() + r * n_classes;
    std::size_t best = 0;
    for (std::size_t c = 1; c < n_classes; ++c)
      if (proba[c] > proba[best]) best = c;
    out[r] = static_cast<int>(best);
  }
}

std::vector<int> CompiledForest::predict_batch(const Dataset& data) const {
  std::vector<int> out(data.size(), 0);
  if (data.x.empty()) return out;
  const std::size_t dim = data.x.front().size();
  if (dim == 0) {
    Scratch scratch;
    for (std::size_t r = 0; r < data.x.size(); ++r)
      out[r] = predict(data.x[r], scratch);
    return out;
  }
  // Flatten into the contiguous row-major layout the batch kernel wants;
  // the copy is trivially amortized by the descent work.
  std::vector<double> matrix;
  matrix.reserve(data.size() * dim);
  for (const auto& row : data.x)
    matrix.insert(matrix.end(), row.begin(), row.end());
  BatchScratch scratch;
  predict_batch(matrix, dim, out, scratch);
  return out;
}

std::size_t CompiledForest::memory_bytes() const {
  return nodes_.size() * sizeof(Node) +
         leaf_proba_.size() * sizeof(double) +
         roots_.size() * sizeof(std::int32_t) +
         soa_meta_.size() * sizeof(std::uint64_t) +
         soa_feature_.size() * sizeof(std::int32_t) +
         soa_left_.size() * sizeof(std::int32_t) +
         soa_right_.size() * sizeof(std::int32_t) +
         soa_threshold_.size() * sizeof(double) +
         qs_f_begin_.size() * sizeof(std::int32_t) +
         qs_thresh_.size() * sizeof(double) +
         qs_tree_.size() * sizeof(std::int32_t) +
         qs_mask_.size() * sizeof(std::uint64_t) +
         qs_tree_full_.size() * sizeof(std::uint64_t) +
         qs_leaf_base_.size() * sizeof(std::int32_t) +
         qs_leaf_off_.size() * sizeof(std::int32_t) +
         sparse_begin_.size() * sizeof(std::int32_t) +
         sparse_cls_.size() * sizeof(std::int32_t) +
         sparse_val_.size() * sizeof(double);
}

}  // namespace vpscope::ml
