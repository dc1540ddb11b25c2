// Copyright 2026 The QLOVE Reproduction Authors
// A compressed {value, count} sorted state that also supports removal: a
// red-black tree keyed by element value whose nodes carry a frequency, so
// duplicate-heavy telemetry collapses to one node per unique value. Subtree
// count augmentation turns rank selection (quantile lookup) into an
// O(log u) walk, u = number of unique values. It serves the Exact baseline
// and the sliding-window accuracy oracle, which deaccumulate expiring
// values; QLOVE's Level 1 never removes and counts its sub-window in a flat
// hash counter instead (core/subwindow.h).

#ifndef QLOVE_CONTAINER_FREQUENCY_TREE_H_
#define QLOVE_CONTAINER_FREQUENCY_TREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace qlove {

/// \brief Ordered multiset of doubles compressed by frequency.
///
/// Implements the incremental state of the paper's Algorithm 1:
///  - Accumulate: Add(value) — O(log u) insert-or-increment.
///  - Deaccumulate (Exact policy): Remove(value) — O(log u)
///    decrement-or-delete.
///  - ComputeResult: InOrder() single-pass traversal answering all requested
///    quantiles, or SelectByRank() for a single rank.
///
/// The tree is augmented with subtree element counts (sums of frequencies),
/// enabling order-statistic queries without a full traversal.
class FrequencyTree {
 public:
  FrequencyTree();
  ~FrequencyTree();

  FrequencyTree(const FrequencyTree&) = delete;
  FrequencyTree& operator=(const FrequencyTree&) = delete;
  FrequencyTree(FrequencyTree&& other) noexcept;
  FrequencyTree& operator=(FrequencyTree&& other) noexcept;

  /// Inserts \p n occurrences of \p value. n must be positive.
  void Add(double value, int64_t n = 1);

  /// Removes up to \p n occurrences of \p value. Returns the number of
  /// occurrences actually removed (0 if the value is absent).
  int64_t Remove(double value, int64_t n = 1);

  /// Removes every element. O(u).
  void Clear();

  /// Total number of elements (sum of frequencies).
  int64_t TotalCount() const { return root_->subtree_count; }

  /// Number of unique values (tree nodes) — the observed space driver.
  int64_t UniqueCount() const { return unique_count_; }

  /// Frequency of \p value (0 if absent).
  int64_t CountOf(double value) const;

  /// Number of elements strictly less than \p value.
  int64_t CountLessThan(double value) const;

  /// The r-th smallest element, 1-based (r in [1, TotalCount()]).
  /// Returns OutOfRange for invalid ranks.
  Result<double> SelectByRank(int64_t rank) const;

  /// Smallest / largest stored value. Returns FailedPrecondition when empty.
  Result<double> Min() const;
  Result<double> Max() const;

  /// Visits (value, count) pairs in ascending value order. The visitor
  /// returns false to stop early (used by Algorithm 1's multi-quantile pass).
  void InOrder(const std::function<bool(double value, int64_t count)>& visit)
      const;

  /// Checks every red-black and augmentation invariant; returns Internal
  /// with a description on the first violation. Test-only (O(u)).
  Status ValidateInvariants() const;

 private:
  enum Color : uint8_t { kRed = 0, kBlack = 1 };

  struct Node {
    double key = 0.0;
    int64_t count = 0;          // frequency of `key`
    int64_t subtree_count = 0;  // sum of counts in this subtree
    Color color = kBlack;
    Node* left = nullptr;
    Node* right = nullptr;
    Node* parent = nullptr;
  };

  Node* MakeNil();
  void FreeSubtree(Node* node);

  void LeftRotate(Node* x);
  void RightRotate(Node* x);
  void InsertFixup(Node* z);
  void DeleteNode(Node* z);
  void DeleteFixup(Node* x);
  void Transplant(Node* u, Node* v);
  Node* Minimum(Node* node) const;
  Node* Find(double value) const;

  /// Recomputes node->subtree_count from children + own count.
  void PullCount(Node* node);
  /// PullCount from \p node up to the root.
  void FixCountsUpward(Node* node);

  Status ValidateNode(const Node* node, int* black_height) const;

  Node* nil_;   // shared sentinel; black, zero counts
  Node* root_;  // == nil_ when empty
  int64_t unique_count_ = 0;
};

}  // namespace qlove

#endif  // QLOVE_CONTAINER_FREQUENCY_TREE_H_
