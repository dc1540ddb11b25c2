// Copyright 2026 The QLOVE Reproduction Authors
// QLOVE: approximate Quantiles with LOw Value Error (the paper's core
// contribution). Two-level hierarchical processing — Level 1 computes exact
// quantiles per sub-window over a frequency-compressed {value, count}
// counter, sorted once at the boundary (Algorithm 1);
// Level 2 averages sub-window quantiles across the sliding window (CLT,
// Theorem 1). High quantiles are corrected by few-k merging (§4): top-k
// merging under statistical inefficiency and sample-k merging under bursty
// traffic, selected at runtime by a Mann-Whitney burst detector (§4.3).

#ifndef QLOVE_CORE_QLOVE_H_
#define QLOVE_CORE_QLOVE_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/burst_detector.h"
#include "core/error_bound.h"
#include "core/fewk.h"
#include "core/level2.h"
#include "core/quantizer.h"
#include "core/subwindow.h"
#include "stream/quantile_operator.h"

namespace qlove {
namespace core {

/// \brief Which pipeline produced a quantile estimate (§4.3 "Selecting
/// outcomes").
enum class OutcomeSource {
  kLevel2 = 0,   ///< Sub-window mean (non-high quantiles, §3).
  kTopK = 1,     ///< Top-k merging (statistical inefficiency, §4.2).
  kSampleK = 2,  ///< Sample-k merging (bursty traffic, §4.2).
  /// Weighted sketch merge (engine backends that answer from pooled
  /// (value, weight) entries — GK / CMQS / Exact — rather than a QLOVE
  /// pipeline).
  kSketchMerge = 3,
  /// Fleet aggregation served while at least one matching agent's snapshot
  /// was stale-excluded: the estimate covers only the fresh sub-fleet, and
  /// the outcome's rank_error_bound is widened by the excluded population
  /// share (engine/aggregator.h).
  kPartialFleet = 4,
};

/// Human-readable source name.
const char* OutcomeSourceName(OutcomeSource source);

/// \brief The §4.3 outcome-selection policy for one high quantile: prefer
/// sample-k when a burst is active (and the plan samples), else top-k when
/// statistically inefficient. On success writes the estimate and its
/// source and returns true; false keeps the caller's Level-2 estimate.
/// Single source of truth for the operator and cross-shard merging, which
/// passes ranks recomputed from the merged population.
bool SelectFewKOutcome(const FewKPlan& plan,
                       const std::vector<const TailCapture*>& tails,
                       int64_t tail_size, int64_t exact_tail_rank,
                       bool burst_active, double* estimate,
                       OutcomeSource* source);

/// \brief Clamps \p estimates (aligned with \p phis) to be monotone
/// non-decreasing in phi order. The Level-2 / top-k / sample-k pipelines
/// estimate each quantile independently, so a Level-2 mean can nominally
/// exceed a neighbouring few-k answer; quantiles are monotone by
/// definition. Shared by the operator and cross-shard snapshot merging.
void RestoreQuantileMonotonicity(const std::vector<double>& phis,
                                 std::vector<double>* estimates);

/// \brief QLOVE configuration.
struct QloveOptions {
  /// Significant decimal digits kept by value quantization (§3.1);
  /// <= 0 disables quantization. The paper's default is 3 (< 1% error).
  int quantizer_digits = 3;

  /// Master switch for few-k merging (§4). Table 2 reports QLOVE with this
  /// disabled.
  bool enable_fewk = true;

  /// Quantiles phi >= this threshold get tail machinery (top-k / sample-k).
  /// The paper treats Q0.99 and Q0.999 as "high".
  double high_quantile_threshold = 0.99;

  /// Few-k sizing (kt / ks / Ts); see FewKSizing.
  FewKSizing fewk;

  /// One-sided Mann-Whitney significance for burst detection (§4.3).
  double burst_significance = 0.05;

  /// Effect-size floor for burst detection: estimated P(current > previous)
  /// must reach this level (see BurstDetector).
  double burst_min_superiority = 0.7;

  /// Enables the Theorem-1 error-bound estimator (keeps a ring of recent raw
  /// values for KDE density estimation; costs one store per element).
  bool enable_error_bounds = false;

  /// Ring capacity for the density estimator.
  int64_t density_reservoir_capacity = 4096;

  bool operator==(const QloveOptions&) const = default;
};

/// \brief The QLOVE quantile operator.
class QloveOperator final : public QuantileOperator {
 public:
  explicit QloveOperator(QloveOptions options = {});

  Status Initialize(const WindowSpec& spec,
                    const std::vector<double>& phis) override;
  void Add(double value) override;

  /// Add with an acceptance verdict: false when the value was dropped —
  /// corrupt on arrival (NaN/Inf), or quantized past the top of the double
  /// range into +-Inf (values above ~1.7977e308 round up). Callers that
  /// reconcile ingest counters (engine/ shards) use this so their counts
  /// match what actually entered the sketch; the batch path applies the
  /// identical predicate post-quantization, keeping the two bit-identical.
  bool TryAdd(double value);

  /// Batch ingest of values already quantized by this operator's quantizer
  /// (the engine hot path: one Quantizer::QuantizeBatch per flushed buffer,
  /// then shard rings deliver dense pre-quantized runs). State is
  /// bit-identical to calling Add on each value — Quantize is idempotent —
  /// but the per-event quantize and peak-space sampling are hoisted out of
  /// the loop (space is non-decreasing while a sub-window accumulates, so
  /// the batch-end sample equals the per-event maximum). Returns how many
  /// values were accepted (non-finite values are dropped, as in Add).
  int64_t AddQuantizedBatch(const double* values, size_t count);

  /// Whether Add(\p value) enters operator state (corrupt telemetry —
  /// NaN/Inf — is dropped). Single source of the acceptance predicate for
  /// callers that reconcile their own ingest counters (engine/ shards).
  static bool Accepts(double value) { return std::isfinite(value); }

  /// The operator's configured quantizer — what a caller must apply before
  /// AddQuantizedBatch.
  const Quantizer& quantizer() const { return quantizer_; }
  void OnSubWindowBoundary() override;
  std::vector<double> ComputeQuantiles() override;
  int64_t ObservedSpaceVariables() const override { return peak_space_; }
  int64_t AnalyticalSpaceVariables() const override;
  std::string Name() const override { return "QLOVE"; }
  void Reset() override;

  /// \name QLOVE-specific diagnostics
  /// @{

  /// Theorem-1 error bounds for the latest estimates, one per phi.
  /// Requires options.enable_error_bounds; returns +infinity entries
  /// otherwise (the bound is uninformative without a density estimate).
  std::vector<double> ErrorBounds(double alpha = 0.05) const;

  /// Which pipeline produced each estimate of the last ComputeQuantiles.
  const std::vector<OutcomeSource>& LastOutcomeSources() const {
    return last_sources_;
  }

  /// The last estimates returned by ComputeQuantiles.
  const std::vector<double>& LastEstimates() const { return last_estimates_; }

  /// True when any sub-window in the current window was flagged bursty.
  bool BurstActiveInWindow() const;

  /// Few-k plan for the phi at \p index; nullptr for non-high quantiles.
  const FewKPlan* PlanForQuantile(size_t index) const;

  /// The configured options (tests).
  const QloveOptions& options() const { return options_; }

  /// @}

  /// \name Cross-shard merge surface (engine/)
  /// @{

  /// Completed sub-window summaries currently inside the window, oldest
  /// first. A sharded engine merges these across shards (weighted Level-2
  /// mean plus few-k tail merging) instead of averaging per-shard estimates,
  /// which would lose the tail correction.
  ///
  /// Emptiness probe: boundaries slide the window even when no data arrived
  /// in a sub-window (all elements filtered or corrupt), so after
  /// NumSubWindows such boundaries the deque drains and ComputeQuantiles
  /// reports 0.0 for every phi. Callers that must distinguish "no data in
  /// window" from a genuine zero should check empty() here (the engine
  /// exposes it as QueryResult::num_summaries).
  const std::deque<SubWindowSummary>& SubWindowSummaries() const {
    return summaries_;
  }

  /// Elements accumulated into the in-flight (not yet finalized) sub-window.
  int64_t InflightCount() const { return inflight_count_; }

  /// Rebases the boundary-epoch counter (engine WAL recovery: a fresh
  /// operator continues a crashed incarnation's epoch sequence so restored
  /// sub-window summaries and new ones age out consistently). Call only
  /// before any Add/OnSubWindowBoundary on this incarnation.
  void SetBoundaryEpoch(int64_t epoch) { boundary_epoch_ = epoch; }

  /// The few-k plan layout this operator builds at Initialize: one plan per
  /// high phi (phi in [high_quantile_threshold, 1)), in phi input order.
  /// Returns the phi index -> plan index map (-1 for non-high phis) and
  /// appends the plans to \p plans. Exposed so cross-shard merging indexes
  /// each summary's `tails` with the exact layout the shards built —
  /// SubWindowSummary::tails is aligned with this plan order.
  static std::vector<int> BuildFewKLayout(const QloveOptions& options,
                                          const std::vector<double>& phis,
                                          const WindowSpec& spec,
                                          std::vector<FewKPlan>* plans);

  /// @}

 private:
  int64_t CurrentSpace() const;
  void EvictExpiredSummaries();

  QloveOptions options_;
  WindowSpec spec_;
  std::vector<double> phis_;
  Quantizer quantizer_;

  // Level 1: in-flight sub-window.
  InflightCounter inflight_;
  int64_t inflight_count_ = 0;
  int64_t boundary_epoch_ = 0;  // boundaries seen, including empty ones

  // Level 2: summaries of completed sub-windows within the window.
  std::deque<SubWindowSummary> summaries_;
  Level2Aggregator level2_;
  int64_t summaries_space_ = 0;

  // Few-k: per-high-quantile plans; high_index_[i] maps phi index -> plan
  // index (-1 for non-high quantiles).
  std::vector<int> high_index_;
  std::vector<FewKPlan> plans_;
  int detection_plan_ = -1;  // plan whose samples feed burst detection
  BurstDetector burst_detector_;
  std::vector<double> prev_burst_sample_;

  DensityEstimator density_;
  std::vector<double> last_estimates_;
  std::vector<OutcomeSource> last_sources_;
  int64_t peak_space_ = 0;
};

}  // namespace core
}  // namespace qlove

#endif  // QLOVE_CORE_QLOVE_H_
