// Copyright 2026 The QLOVE Reproduction Authors
// Shard coalescing for exports: shard count is an agent-internal scaling
// detail, so shipping one BackendSummary per shard makes frame size grow
// linearly with a knob the aggregator never needed to know about (697 B
// per qlove metric at 1 shard ballooned to 4225 B at 8 in the PR-5 bench).
// Each metric keeps one coalesced export window (MetricState, engine/
// registry.h) that every export copies; these functions build it, using
// exactly the merge structure the receiving side would apply anyway. A
// qlove window is brought up to date once per sub-window boundary by
// merging only the newly closed sub-windows (AppendCoalescedSubWindows);
// an entry-kind window is rebuilt once per boundary with
// CoalesceShardSummaries, since it is not epoch-decomposable:
//
//  - kQlove: sub-windows are grouped by boundary epoch (shards tick
//    together, so equal epochs cover the same wall-clock sub-window) and
//    merged count-weighted — quantiles by the Level-2 weighted mean (the
//    aggregator's own estimator, so pre-merging commutes with it up to
//    floating-point reassociation), tail top-k lists by a descending merge
//    that combines equal values' multiplicities, tail samples by a
//    descending multiset union. No extra truncation is applied: the merged
//    lists carry the union of the per-shard captures, so every downstream
//    MergeTopK/MergeSampleK walk accumulates the same counts in the same
//    order it would have over the unmerged lists.
//  - entry kinds (kGk/kCmqs/kExact): entries are pooled, sorted, and equal
//    values' weights combined — the weighted multiset is unchanged.
//
// What is NOT preserved bit-for-bit against pooling the per-shard
// summaries directly: floating-point reassociation in the Level-2 mean,
// and the per-summary bookkeeping some error bounds derive from (merged
// sub-windows are fewer and larger, which only tightens the finite-m
// terms). Nothing pools them directly: the exporting engine answers its
// own queries from the same coalesced window (MetricState::Resolved), so
// the engine and every aggregator tier above it answer bit for bit alike
// (any number of re-encodes).

#ifndef QLOVE_ENGINE_COALESCE_H_
#define QLOVE_ENGINE_COALESCE_H_

#include <vector>

#include "engine/backend.h"

namespace qlove {
namespace engine {

/// \brief Merges \p subs — sub-windows of one metric's shards, listed in
/// shard order — per boundary epoch and appends the result to \p out,
/// epoch-ascending: the kQlove half of CoalesceShardSummaries. A group of
/// one is copied; a group whose quantile/tail shapes disagree is kept
/// unmerged.
void AppendCoalescedSubWindows(std::vector<const core::SubWindowSummary*> subs,
                               std::vector<core::SubWindowSummary>* out);

/// \brief Merges every shard's summary into one. \p shards must be
/// non-empty and share one kind (they come from one metric's shards, which
/// always do). With a single shard the copy is returned unchanged.
BackendSummary CoalesceShardSummaries(const std::vector<BackendSummary>& shards);

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_COALESCE_H_
