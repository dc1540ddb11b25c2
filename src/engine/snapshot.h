// Copyright 2026 The QLOVE Reproduction Authors
// Cross-shard window snapshots. A metric's window state lives as mergeable
// backend summaries spread across N shards; MergeShardViews evaluates them
// through the shared WindowView evaluator (engine/query.h) — it is the
// fixed-phi compatibility surface over the first-class query layer. The
// merge dispatches on the metric's backend kind:
//
//  - kQlove summaries carry sub-window summaries and reuse the paper's two
//    estimator families: count-weighted Level-2 mean (CLT, Theorem 1) — or
//    the count-weighted median via sketch/weighted_merge, robust to
//    straggler shards — for non-high quantiles, and few-k tail merging (§4)
//    over the union of every shard's TailCaptures with globally recomputed
//    ranks for high quantiles;
//  - kGk / kCmqs / kExact summaries carry (value, weight) entries; the
//    merge pools all shards' entries and answers each quantile as a rank
//    query over the weighted multiset (exact for kExact, within the
//    sketch's epsilon budget otherwise).

#ifndef QLOVE_ENGINE_SNAPSHOT_H_
#define QLOVE_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "core/qlove.h"
#include "engine/backend.h"
#include "engine/metric_key.h"
#include "engine/registry.h"

namespace qlove {
namespace engine {

/// \brief How non-high quantiles are merged across sub-window summaries
/// (kQlove backends only; weighted backends pool entries either way).
enum class MergeStrategy {
  /// Count-weighted mean of sub-window quantiles (the paper's Level-2
  /// estimator generalized to uneven sub-window populations). Default.
  kWeightedMean = 0,
  /// Count-weighted median of sub-window quantiles (sketch/weighted_merge):
  /// trades a little CLT efficiency for robustness when a shard's slice is
  /// contaminated (e.g. one host-group misroutes its records).
  kWeightedMedian = 1,
};

/// \brief Snapshot request knobs.
struct SnapshotOptions {
  MergeStrategy strategy = MergeStrategy::kWeightedMean;
};

/// \brief One merged window evaluation of one metric.
struct MetricSnapshot {
  MetricKey key;
  /// The backend that produced the estimates.
  BackendKind backend = BackendKind::kQlove;
  std::vector<double> phis;       ///< As configured at registration.
  std::vector<double> estimates;  ///< One per phi, monotone in phi.
  /// Which pipeline produced each estimate: Level2 / TopK / SampleK for
  /// kQlove backends, SketchMerge for the weighted-entry backends.
  std::vector<core::OutcomeSource> sources;
  int64_t window_count = 0;    ///< Elements covered by merged summaries.
  int64_t num_summaries = 0;   ///< Merged sub-window summaries (kQlove) or
                               ///< contributing shard summaries (others).
  int64_t inflight_count = 0;  ///< Recorded but awaiting the next Tick.
  int num_shards = 0;
  bool burst_active = false;  ///< Any shard flagged a live sub-window.
};

class WindowView;  // engine/query.h: the shared evaluator

/// \brief Merges per-shard summaries into one window-level snapshot.
///
/// \p views must come from shards configured with \p options (same phis and
/// backend options), as Shard::SnapshotInto produces them for one metric.
MetricSnapshot MergeShardViews(const MetricKey& key,
                               const std::vector<BackendSummary>& views,
                               const MetricOptions& options,
                               const SnapshotOptions& snapshot_options = {});

/// \brief Evaluates an already-built WindowView into the fixed-phi
/// snapshot shape — the cached read path (SnapshotAll evaluates each
/// metric's per-Tick ResolvedWindow through here, so repeated snapshots
/// between Ticks reuse one merge instead of rebuilding it per call).
MetricSnapshot SnapshotFromView(const MetricKey& key, const WindowView& view,
                                const MetricOptions& options, int num_shards);

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_SNAPSHOT_H_
