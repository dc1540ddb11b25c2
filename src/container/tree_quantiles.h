// Copyright 2026 The QLOVE Reproduction Authors
// Algorithm 1 (ComputeResult): answers l quantiles over ascending
// {value, count} pairs in a single pass, visiting the smallest requested
// quantile first. One rank walk serves both sources of such pairs: a
// sorted run (QLOVE Level 1, core/subwindow.h) and a FrequencyTree's
// in-order traversal (the Exact baseline and the sliding-window oracle).

#ifndef QLOVE_CONTAINER_TREE_QUANTILES_H_
#define QLOVE_CONTAINER_TREE_QUANTILES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "container/frequency_tree.h"

namespace qlove {

/// \brief {value, count} pairs with distinct values in ascending value
/// order: a frequency-compressed sorted multiset, read front to back.
using ValueRun = std::vector<std::pair<double, int64_t>>;

/// \brief Computes the phi-quantiles of \p run under the paper's rank
/// definition r = ceil(phi * count), in one ascending pass.
///
/// \p phis may be unordered; results align with the input order. Returns an
/// empty vector when the run or \p phis is empty. Invalid phis (outside
/// (0, 1]) yield the clamped boundary element rather than failing, because
/// Algorithm 1 is on the hot path and initialization-time validation
/// already rejects them.
std::vector<double> MultiQuantileFromRun(const ValueRun& run,
                                         const std::vector<double>& phis);

/// \brief MultiQuantileFromRun over \p tree's in-order traversal (same
/// rank walk, same conventions).
std::vector<double> MultiQuantileFromTree(const FrequencyTree& tree,
                                          const std::vector<double>& phis);

}  // namespace qlove

#endif  // QLOVE_CONTAINER_TREE_QUANTILES_H_
