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

CompiledForest::Simd resolve_simd(CompiledForest::Simd level) {
  if (level != CompiledForest::Simd::Auto) return level;
  static const CompiledForest::Simd best =
      CompiledForest::simd_supported(CompiledForest::Simd::Avx2)
          ? CompiledForest::Simd::Avx2
          : CompiledForest::Simd::Scalar;
  return best;
}

/// A NaN feature compares false against every split (the traversal goes
/// right), which makes EVERY node on that feature a false node;
/// substituting +inf reproduces exactly that, because every threshold is
/// finite.
double prefix_key(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
}

}  // namespace

bool CompiledForest::simd_supported(Simd level) {
  switch (level) {
    case Simd::Auto:
    case Simd::Scalar:
      return true;
    case Simd::Avx2:
      return cpu_features().avx2;
  }
  return false;
}

// Walks each source tree in preorder, left child first, so leaves are met
// left to right and numbered in that order. An internal node's left
// subtree is complete when its right child is popped; at that point its
// leaf range [first, n_leaves) is known and becomes one entry per mask word
// the range touches. The entries are then bucketed by feature and sorted by
// threshold so scoring walks a plain prefix.
CompiledForest CompiledForest::compile(const RandomForest& forest) {
  CompiledForest out;
  out.num_classes_ = forest.num_classes();
  if (forest.trees().empty()) return out;

  std::size_t total_nodes = 0;
  for (const auto& tree : forest.trees()) total_nodes += tree.nodes().size();
  if (total_nodes > static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()))
    throw std::invalid_argument("forest too large to compile");

  struct Entry {
    std::int32_t feature;
    double threshold;
    std::int32_t word;
    std::uint64_t mask;
  };
  std::vector<Entry> entries;
  entries.reserve(total_nodes);

  struct Frame {
    std::int32_t at;
    std::int32_t right_of;  // parent when `at` is a right child, else -1
  };
  std::vector<Frame> stack;
  std::vector<std::int32_t> first_leaf;  // per source node
  std::vector<std::uint8_t> seen;        // per source node
  std::int32_t word_base = 0;
  out.sparse_begin_.push_back(0);
  for (const auto& tree : forest.trees()) {
    const auto& src = tree.nodes();
    const auto n_src = static_cast<std::int32_t>(src.size());
    out.tree_word_.push_back(word_base);
    out.tree_leaf_.push_back(
        static_cast<std::int32_t>(out.sparse_begin_.size()) - 1);
    first_leaf.assign(src.size(), 0);
    seen.assign(src.size(), 0);
    std::int32_t n_leaves = 0;
    stack.assign(1, {0, -1});  // root is node 0 in DecisionTree's layout
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      if (frame.at < 0 || frame.at >= n_src)
        throw std::invalid_argument("decision tree child index out of range");
      // A node revisited means the source has a cycle (deserialize rejects
      // those; a hand-built forest could still carry one).
      if (seen[static_cast<std::size_t>(frame.at)]++)
        throw std::invalid_argument("cycle in decision tree");
      if (frame.right_of >= 0) {
        const auto& parent = src[static_cast<std::size_t>(frame.right_of)];
        const std::int32_t lo = first_leaf[static_cast<std::size_t>(
            frame.right_of)];
        const std::int32_t hi = n_leaves;  // left subtree = leaves [lo, hi)
        for (std::int32_t w = lo / 64; w <= (hi - 1) / 64; ++w) {
          const std::int32_t a = std::max(lo, 64 * w) - 64 * w;
          const std::int32_t b = std::min(hi, 64 * w + 64) - 64 * w;
          const std::uint64_t bits =
              b - a == 64 ? ~0ull : ((1ull << (b - a)) - 1) << a;
          entries.push_back({static_cast<std::int32_t>(parent.feature),
                             parent.threshold, word_base + w, ~bits});
        }
      }
      const auto& node = src[static_cast<std::size_t>(frame.at)];
      if (node.feature >= 0) {
        if (!std::isfinite(node.threshold))
          throw std::invalid_argument("non-finite split threshold");
        first_leaf[static_cast<std::size_t>(frame.at)] = n_leaves;
        stack.push_back({static_cast<std::int32_t>(node.right), frame.at});
        stack.push_back({static_cast<std::int32_t>(node.left), -1});
        continue;
      }
      ++n_leaves;
      // Leaf distributions are padded (or cut) to num_classes; only the
      // nonzero entries are kept (exact — see the header).
      for (int c = 0; c < out.num_classes_; ++c) {
        const double p = c < static_cast<int>(node.proba.size())
                             ? node.proba[static_cast<std::size_t>(c)]
                             : 0.0;
        if (p != 0.0) {
          out.sparse_cls_.push_back(c);
          out.sparse_val_.push_back(p);
        }
      }
      out.sparse_begin_.push_back(
          static_cast<std::int32_t>(out.sparse_cls_.size()));
    }
    word_base += (n_leaves + 63) / 64;
  }
  out.tree_word_.push_back(word_base);

  std::int32_t max_feature = -1;
  for (const Entry& e : entries) max_feature = std::max(max_feature, e.feature);
  out.f_begin_.assign(static_cast<std::size_t>(max_feature + 2), 0);
  for (const Entry& e : entries)
    ++out.f_begin_[static_cast<std::size_t>(e.feature) + 1];
  for (std::size_t f = 1; f < out.f_begin_.size(); ++f)
    out.f_begin_[f] += out.f_begin_[f - 1];
  std::vector<Entry> sorted(entries.size());
  {
    auto at = out.f_begin_;
    for (const Entry& e : entries)
      sorted[static_cast<std::size_t>(
          at[static_cast<std::size_t>(e.feature)]++)] = e;
  }
  for (std::size_t f = 0; f + 1 < out.f_begin_.size(); ++f)
    std::sort(sorted.begin() + out.f_begin_[f],
              sorted.begin() + out.f_begin_[f + 1],
              [](const Entry& a, const Entry& b) {
                return a.threshold < b.threshold;
              });
  out.thresh_.reserve(sorted.size());
  out.word_.reserve(sorted.size());
  out.mask_.reserve(sorted.size());
  for (const Entry& e : sorted) {
    out.thresh_.push_back(e.threshold);
    out.word_.push_back(e.word);
    out.mask_.push_back(e.mask);
  }
  return out;
}

void CompiledForest::predict_proba_into(std::span<const double> x,
                                        std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  if (!trained()) return;
  // One row never fills a vector of rows, so it always takes the scalar
  // kernel — the same kernel every batch uses for its tail rows.
  score_scalar(x.data(), x.size(), 1, out.data());
  // Division (not multiply-by-reciprocal) keeps the rounding identical to
  // RandomForest::predict_proba — the equivalence guarantee is bit-exact.
  const auto n_trees = static_cast<double>(tree_count());
  for (std::size_t c = 0; c < static_cast<std::size_t>(num_classes_); ++c)
    out[c] /= n_trees;
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
// Kernels. Per row: set every mask word to all-ones, AND away left subtrees
// along each feature's threshold-sorted prefix, then per tree take the
// lowest surviving bit over its words and add that leaf's sparse
// distribution — in tree order, as RandomForest::predict_proba does. The
// leaf the traversal reaches is never cleared (no false node has it in its
// left subtree), so each tree has a surviving bit no later than that leaf,
// and no leaf left of it survives.
// ---------------------------------------------------------------------------

void CompiledForest::add_reached_leaves(const std::uint64_t* acc,
                                        std::size_t stride,
                                        double* row) const {
  const std::size_t n_trees = static_cast<std::size_t>(tree_count());
  for (std::size_t t = 0; t < n_trees; ++t) {
    const std::int32_t first = tree_word_[t];
    std::int32_t w = first;
    while (acc[static_cast<std::size_t>(w) * stride] == 0) ++w;
    const auto leaf = static_cast<std::size_t>(
        tree_leaf_[t] + 64 * (w - first) +
        std::countr_zero(acc[static_cast<std::size_t>(w) * stride]));
    const std::int32_t end = sparse_begin_[leaf + 1];
    for (std::int32_t q = sparse_begin_[leaf]; q < end; ++q)
      row[static_cast<std::size_t>(sparse_cls_[static_cast<std::size_t>(q)])] +=
          sparse_val_[static_cast<std::size_t>(q)];
  }
}

void CompiledForest::score_scalar(const double* matrix, std::size_t dim,
                                  std::size_t rows, double* out) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_features = std::min(dim, f_begin_.size() - 1);
  static thread_local std::vector<std::uint64_t> acc;
  acc.resize(mask_words());
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(acc.begin(), acc.end(), ~0ull);
    const double* x = matrix + r * dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = f_begin_[f];
      const std::int32_t e = f_begin_[f + 1];
      if (b == e) continue;
      const double v = prefix_key(x[f]);
      for (std::int32_t p = b;
           p < e && thresh_[static_cast<std::size_t>(p)] < v; ++p)
        acc[static_cast<std::size_t>(word_[static_cast<std::size_t>(p)])] &=
            mask_[static_cast<std::size_t>(p)];
    }
    add_reached_leaves(acc.data(), 1, out + r * n_classes);
  }
}

#if VPSCOPE_X86

// Four rows per 64-bit vector lane walk the same sorted prefix together: a
// row whose prefix already ended blends an all-ones (no-op) mask, and the
// walk stops when no row still matches — valid because thresholds are
// sorted, so `x > threshold` is monotone non-increasing along the list.
__attribute__((target("avx2"))) void CompiledForest::score_avx2(
    const double* matrix, std::size_t dim, std::size_t rows,
    double* out) const {
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_features = std::min(dim, f_begin_.size() - 1);
  const __m256i all1 = _mm256_set1_epi64x(-1);
  static thread_local std::vector<std::uint64_t> acc;  // words x 4 lanes
  acc.resize(mask_words() * 4);
  std::size_t r0 = 0;
  for (; r0 + 4 <= rows; r0 += 4) {
    std::fill(acc.begin(), acc.end(), ~0ull);
    const double* x0 = matrix + r0 * dim;
    for (std::size_t f = 0; f < n_features; ++f) {
      const std::int32_t b = f_begin_[f];
      const std::int32_t e = f_begin_[f + 1];
      if (b == e) continue;
      const __m256d v = _mm256_set_pd(
          prefix_key(x0[3 * dim + f]), prefix_key(x0[2 * dim + f]),
          prefix_key(x0[dim + f]), prefix_key(x0[f]));
      for (std::int32_t p = b; p < e; ++p) {
        const __m256d th =
            _mm256_broadcast_sd(&thresh_[static_cast<std::size_t>(p)]);
        const __m256i gt =
            _mm256_castpd_si256(_mm256_cmp_pd(v, th, _CMP_GT_OQ));
        if (_mm256_testz_si256(gt, gt)) break;
        const __m256i m = _mm256_set1_epi64x(
            static_cast<long long>(mask_[static_cast<std::size_t>(p)]));
        const __m256i eff = _mm256_blendv_epi8(all1, m, gt);
        __m256i* slot = reinterpret_cast<__m256i*>(
            acc.data() +
            4 * static_cast<std::size_t>(word_[static_cast<std::size_t>(p)]));
        _mm256_storeu_si256(slot,
                            _mm256_and_si256(_mm256_loadu_si256(slot), eff));
      }
    }
    for (std::size_t i = 0; i < 4; ++i)
      add_reached_leaves(acc.data() + i, 4, out + (r0 + i) * n_classes);
  }
  if (r0 < rows)
    score_scalar(matrix + r0 * dim, dim, rows - r0, out + r0 * n_classes);
}

#else  // !VPSCOPE_X86

void CompiledForest::score_avx2(const double* matrix, std::size_t dim,
                                std::size_t rows, double* out) const {
  score_scalar(matrix, dim, rows, out);
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
  if (rows == 0 || !trained()) return;
  const Simd resolved = resolve_simd(level);
  if (!simd_supported(resolved))
    throw std::invalid_argument(
        "predict_proba_batch: forced SIMD level unsupported on this CPU");
  if (resolved == Simd::Avx2)
    score_avx2(matrix.data(), dim, rows, out.data());
  else
    score_scalar(matrix.data(), dim, rows, out.data());
  // Same final division as predict_proba_into: bit-identical rounding.
  const auto n_trees = static_cast<double>(tree_count());
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
  // the copy is trivially amortized by the scoring work.
  std::vector<double> matrix;
  matrix.reserve(data.size() * dim);
  for (const auto& row : data.x)
    matrix.insert(matrix.end(), row.begin(), row.end());
  BatchScratch scratch;
  predict_batch(matrix, dim, out, scratch);
  return out;
}

}  // namespace vpscope::ml
