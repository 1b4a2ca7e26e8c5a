// Post-training compilation of a RandomForest into the bitmask layout of
// QuickScorer (Lucchese et al., SIGIR'15) — the one way vpscope scores a
// forest, for one flow or a batch of them. Every internal node of every
// tree becomes a (threshold, leaf mask) entry bucketed by feature and
// sorted by threshold; leaves keep only their nonzero class probabilities.
//
// Scoring a row: each tree's leaf-survival mask starts all-ones; every
// FALSE node (x[feature] > threshold) ANDs away its left subtree's leaves;
// the reached leaf is the lowest surviving bit. A feature's false nodes are
// exactly a prefix of its threshold-sorted list, so scoring is a streaming
// walk with no dependent-load chain, unlike a root-to-leaf traversal.
//
// The compiled form is inference-only and probability-equivalent to the
// source forest: it reaches the same leaf in every tree, accumulates the
// leaf distributions in tree order and divides by the same tree count, so
// every output is bit-identical to RandomForest::predict_proba. It performs
// zero heap allocations per call in steady state, which is what lets
// ClassifierBank::classify run on many shard workers without contending on
// the allocator.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/forest.hpp"

namespace vpscope::ml {

class CompiledForest {
 public:
  /// Reusable per-caller state so predict_with_confidence stays
  /// allocation-free in steady state; one Scratch per thread, never shared.
  struct Scratch {
    std::vector<double> proba;
  };

  /// Reusable state for the batch calls (rows x num_classes probability
  /// staging); one per thread, never shared.
  struct BatchScratch {
    std::vector<double> proba;
  };

  /// Instruction-set level of the batch kernel. `Auto` probes the CPU once
  /// (cached); the explicit levels exist so equivalence tests can force
  /// every code path on one machine. All levels are bit-identical — the
  /// kernels only compare doubles (exact in any width) and the
  /// accumulation order never changes.
  enum class Simd : std::uint8_t { Auto, Scalar, Avx2 };
  /// Whether `level` can run on this CPU (Scalar/Auto: always).
  static bool simd_supported(Simd level);

  CompiledForest() = default;

  /// Lowers a trained forest. The source forest is not referenced after
  /// compile returns. Throws std::invalid_argument on a split threshold
  /// that is NaN or infinite, on a child index out of range and on a cycle:
  /// the sorted-threshold prefix walk is only exact for finite thresholds.
  static CompiledForest compile(const RandomForest& forest);

  /// Mean leaf distribution across trees, written into `out`
  /// (`out.size() == num_classes()`): the batch kernel run on one row.
  /// Bit-identical to RandomForest::predict_proba and allocation-free in
  /// steady state.
  void predict_proba_into(std::span<const double> x,
                          std::span<double> out) const;

  int predict(std::span<const double> x, Scratch& scratch) const;
  /// (argmax, max probability) — the pipeline's confidence pair.
  std::pair<int, double> predict_with_confidence(std::span<const double> x,
                                                 Scratch& scratch) const;

  /// Batch inference over a contiguous row-major feature matrix of
  /// `rows = matrix.size() / dim` flows. `out` receives rows x num_classes
  /// probabilities, bit-identical per row to predict_proba_into on that
  /// row, at every Simd level.
  void predict_proba_batch(std::span<const double> matrix, std::size_t dim,
                           std::span<double> out,
                           Simd level = Simd::Auto) const;

  /// (argmax, max probability) per row — the batched confidence pair; same
  /// tie-breaking (first maximum) as predict_with_confidence.
  void predict_with_confidence_batch(std::span<const double> matrix,
                                     std::size_t dim, std::span<int> labels,
                                     std::span<double> confidences,
                                     BatchScratch& scratch,
                                     Simd level = Simd::Auto) const;

  /// Batch prediction over a contiguous row-major feature matrix of
  /// `matrix.size() / dim` rows; `out` receives one label per row.
  void predict_batch(std::span<const double> matrix, std::size_t dim,
                     std::span<int> out, BatchScratch& scratch,
                     Simd level = Simd::Auto) const;
  /// Convenience over the (non-contiguous) Dataset container.
  std::vector<int> predict_batch(const Dataset& data) const;

  bool trained() const { return !tree_word_.empty(); }
  int num_classes() const { return num_classes_; }
  int tree_count() const {
    return trained() ? static_cast<int>(tree_word_.size()) - 1 : 0;
  }
  /// Internal nodes plus leaves, over all trees.
  std::size_t node_count() const {
    return thresh_.size() + (trained() ? sparse_begin_.size() - 1 : 0);
  }
  /// Mask words one scored row uses: the sum over trees of
  /// ceil(leaves / 64).
  std::size_t mask_words() const {
    return trained() ? static_cast<std::size_t>(tree_word_.back()) : 0;
  }

 private:
  /// Both kernels write UN-divided probability sums for `rows` rows into
  /// zeroed `out`. The AVX2 one scores 4 rows per vector; both visit the
  /// same entries and leaves and accumulate in tree order.
  void score_scalar(const double* matrix, std::size_t dim, std::size_t rows,
                    double* out) const;
  void score_avx2(const double* matrix, std::size_t dim, std::size_t rows,
                  double* out) const;
  /// Per tree, the lowest surviving bit over its mask words (word w of
  /// the row at acc[w * stride]) is the reached leaf; adds its nonzero
  /// class probabilities into `row`, tree after tree.
  void add_reached_leaves(const std::uint64_t* acc, std::size_t stride,
                          double* row) const;

  // One entry per (internal node, mask word its left subtree touches),
  // bucketed by feature and sorted by threshold within each bucket, so a
  // row's false nodes per feature are the prefix with threshold < x.
  // Thresholds are finite (compile enforces it): `<` is then a strict weak
  // order and the prefix is exactly the traversal's set of false nodes.
  std::vector<std::int32_t> f_begin_;  // per feature, +1 sentinel
  std::vector<double> thresh_;
  std::vector<std::int32_t> word_;     // accumulator word the mask ANDs
  std::vector<std::uint64_t> mask_;    // ~(left-subtree leaves in the word)
  // A tree with L leaves owns ceil(L / 64) consecutive mask words; leaf
  // position p of tree t is bit p % 64 of word tree_word_[t] + p / 64 and
  // has global leaf id tree_leaf_[t] + p (leaves are numbered left to
  // right, tree after tree).
  std::vector<std::int32_t> tree_word_;  // per tree, +1 sentinel
  std::vector<std::int32_t> tree_leaf_;  // per tree
  // Leaf distributions, sparse: leaves are near-pure (about 1.1 nonzero
  // classes each), and skipping a zero addend is bit-exact because the
  // accumulators are never -0.0 (they start at +0.0, and a sum of
  // nonzero addends that rounds to zero is +0.0).
  std::vector<std::int32_t> sparse_begin_;  // per leaf id, +1 sentinel
  std::vector<std::int32_t> sparse_cls_;
  std::vector<double> sparse_val_;
  int num_classes_ = 0;
};

}  // namespace vpscope::ml
