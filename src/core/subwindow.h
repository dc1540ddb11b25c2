// Copyright 2026 The QLOVE Reproduction Authors
// Level 1 of QLOVE (§3.1): the in-flight sub-window keeps a frequency-
// compressed {value, count} state (Algorithm 1's Accumulate) in a flat
// hash counter, reads it in value order once, at the period boundary, and
// distills it into a small summary: the exact sub-window quantiles plus
// the few-k tail material (top-k lists and interval samples, §4).

#ifndef QLOVE_CORE_SUBWINDOW_H_
#define QLOVE_CORE_SUBWINDOW_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "container/tree_quantiles.h"

namespace qlove {
namespace core {

/// \brief Per-quantile tail material captured from one sub-window.
struct TailCapture {
  /// The sub-window's kt largest values as {value, count}, descending.
  std::vector<std::pair<double, int64_t>> topk;
  /// Interval sample of the sub-window's N(1-phi) largest values (ks values,
  /// descending rank order).
  std::vector<double> samples;

  bool operator==(const TailCapture&) const = default;
};

/// \brief The finalized summary of one sub-window.
struct SubWindowSummary {
  /// Exact sub-window quantiles, aligned with the operator's phi order.
  std::vector<double> quantiles;
  /// Tail material, aligned with the operator's *high* quantile list
  /// (empty when few-k is disabled).
  std::vector<TailCapture> tails;
  /// True when the burst detector flagged this sub-window (§4.3).
  bool bursty = false;
  /// Number of elements in the sub-window (m in Theorem 1).
  int64_t count = 0;
  /// Which boundary produced this summary (1-based). Time-driven callers
  /// (engine/) may fire boundaries with no new data; eviction is by epoch
  /// age, so a starved shard's old sub-windows still expire on schedule.
  int64_t epoch = 0;

  bool operator==(const SubWindowSummary&) const = default;

  /// Scalars stored by this summary (space accounting): quantiles, count,
  /// epoch, and the tail material.
  int64_t SpaceVariables() const {
    int64_t space = static_cast<int64_t>(quantiles.size()) + 2;
    for (const TailCapture& tail : tails) {
      space += static_cast<int64_t>(tail.topk.size()) * 2 +
               static_cast<int64_t>(tail.samples.size());
    }
    return space;
  }
};

/// \brief The in-flight sub-window's {value, count} state: an
/// open-addressing (linear probing) table keyed by value, plus the list of
/// slots in use.
///
/// Add is an expected O(1) probe with no allocation once the table has
/// grown to the sub-window's unique-value count; the table is kept across
/// sub-windows, so steady-state ingest allocates nothing. The boundary
/// reads the state once, in value order, through SortedRun. Equal values
/// (under ==, so -0.0 and +0.0 share a slot, as they share a tree node)
/// collapse into one slot that keeps the first value seen. Values must be
/// finite; the operator drops everything else before it gets here.
class InflightCounter {
 public:
  /// Smallest table: holds 16 unique values (the load stays <= 1/2).
  static constexpr size_t kMinCapacity = 32;

  /// Counts one occurrence of \p value.
  void Add(double value) {
    if (slots_.empty()) Allocate(kMinCapacity);
    size_t i = Home(value);
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.count == 0) {
        slot.value = value;
        slot.count = 1;
        used_.push_back(i);
        if (used_.size() * 2 > slots_.size()) Grow();
        return;
      }
      if (slot.value == value) {
        ++slot.count;
        return;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Number of distinct values counted since the last Clear.
  int64_t UniqueCount() const { return static_cast<int64_t>(used_.size()); }

  /// Writes the counted (value, count) pairs to \p run in ascending value
  /// order, replacing its contents.
  void SortedRun(ValueRun* run) const;

  /// Forgets every count, zeroing only the slots in use. The table is kept
  /// for the next sub-window unless the one just closed filled less than
  /// 1/8 of it: then it shrinks to the smallest table that would have held
  /// that sub-window (none at all for an empty one), so a one-off burst
  /// does not pin its capacity.
  void Clear();

  /// Slots in the table (0 before the first Add or after an empty
  /// sub-window).
  size_t Capacity() const { return slots_.size(); }

 private:
  struct Slot {
    double value = 0.0;
    int64_t count = 0;  // 0 marks an empty slot
  };

  /// Smallest table that holds \p unique values without growing.
  static size_t CapacityFor(size_t unique);

  size_t Home(double value) const {
    // Both zeros compare equal, so they must hash alike.
    const double canonical = value == 0.0 ? 0.0 : value;
    uint64_t bits = 0;
    std::memcpy(&bits, &canonical, sizeof bits);
    return static_cast<size_t>((bits * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Replaces the table with an empty one of \p capacity slots (a power of
  /// two, or 0).
  void Allocate(size_t capacity);
  /// Doubles the table, re-placing every used slot.
  void Grow();

  std::vector<Slot> slots_;
  std::vector<size_t> used_;  // indices of occupied slots
  int shift_ = 64;            // 64 - log2(capacity)
};

/// \brief Extracts the kt largest values of \p run (ascending) as
/// {value, count} pairs in descending order (counting multiplicity, last
/// pair clipped so the total is min(kt, elements in the run)).
std::vector<std::pair<double, int64_t>> ExtractTopK(const ValueRun& run,
                                                    int64_t kt);

/// \brief Interval-samples the top \p tail_size elements of \p run
/// (ascending) down to \p ks values (§4.2 sample-k: "picks every i-th
/// element on the ranked values"). Returned values are in descending rank
/// order; the sampling interval is tail_size / ks.
std::vector<double> IntervalSampleTop(const ValueRun& run, int64_t tail_size,
                                      int64_t ks);

}  // namespace core
}  // namespace qlove

#endif  // QLOVE_CORE_SUBWINDOW_H_
