// Copyright 2026 The QLOVE Reproduction Authors
// Greenwald-Khanna epsilon-approximate quantile summary (SIGMOD 2001).
// Building block for the CMQS baseline [20]: each CMQS sub-window maintains
// a GK summary of its elements.

#ifndef QLOVE_SKETCH_GK_H_
#define QLOVE_SKETCH_GK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace qlove {
namespace sketch {

/// \brief One GK tuple: value v with rank-uncertainty bookkeeping.
///
/// g = rmin(v_i) - rmin(v_{i-1}); delta = rmax(v_i) - rmin(v_i).
struct GkTuple {
  double value = 0.0;
  int64_t g = 0;
  int64_t delta = 0;
};

/// \brief Greenwald-Khanna summary with deterministic rank error
/// bounded by epsilon * n.
class GkSummary {
 public:
  /// \p epsilon must lie in (0, 1).
  explicit GkSummary(double epsilon);

  /// Inserts one value. Amortized O(log s + s / compress_interval) where s is
  /// the summary size; compression runs every floor(1/(2 epsilon)) inserts.
  void Insert(double value);

  /// Value whose rank is within epsilon*n of \p rank (1-based).
  /// Returns FailedPrecondition when empty, OutOfRange for invalid rank.
  Result<double> QueryRank(int64_t rank) const;

  /// Value for the phi-quantile (rank ceil(phi * n)).
  Result<double> QueryQuantile(double phi) const;

  /// Number of elements inserted.
  int64_t count() const { return count_; }

  /// Number of stored tuples.
  int64_t TupleCount() const { return static_cast<int64_t>(tuples_.size()); }

  /// Stored scalars: 3 per tuple (value, g, delta).
  int64_t SpaceVariables() const { return TupleCount() * 3; }

  /// The configured error bound.
  double epsilon() const { return epsilon_; }

  /// Read-only tuple access (ascending by value) for merge-based consumers.
  const std::vector<GkTuple>& tuples() const { return tuples_; }

  /// Extracts an equi-rank compressed summary of at most \p entries values:
  /// entry i approximates the rank ceil((i+1) * n / entries). Used by CMQS
  /// to cap per-sub-window sketch capacity. Returns pairs (value, weight)
  /// where weight is the number of window elements the entry represents.
  std::vector<std::pair<double, int64_t>> CompressToCapacity(
      int64_t entries) const;

  /// Exports every tuple as a (value, weight) point estimate whose implied
  /// cumulative rank is the CENTER of the tuple's GK uncertainty interval,
  /// rmin + delta/2 (forced strictly increasing; weights sum to count()).
  /// Exporting raw (value, g) pairs instead would place each value at its
  /// rmin, biasing a cross-summary merge low by ~delta/2 per tuple — which
  /// compounds across sub-windows into a systematic rank offset.
  std::vector<std::pair<double, int64_t>> ExportPointWeights() const;

  /// Forces a compression pass now (normally automatic).
  void Compress();

  /// Removes all content, keeping epsilon.
  void Reset();

 private:
  double epsilon_;
  int64_t count_ = 0;
  int64_t inserts_since_compress_ = 0;
  std::vector<GkTuple> tuples_;  // ascending by value
};

}  // namespace sketch
}  // namespace qlove

#endif  // QLOVE_SKETCH_GK_H_
