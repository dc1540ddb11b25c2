// Copyright 2026 The QLOVE Reproduction Authors
// CMQS baseline: "Continuously Maintaining Quantile Summaries of the most
// recent N elements over a data stream" (Lin, Lu, Xu, Yu — ICDE 2004).
// The stream is partitioned into buckets of ~epsilon*N/2 elements (aligned
// to the query period); each completed bucket carries a compressed summary
// of O((1/epsilon) log(epsilon*B)) equi-rank entries, and all active
// sketches are combined per query. Buckets expire wholesale, which is what
// lets CMQS slide without per-element deaccumulation, at the price of up to
// a bucket of staleness (within the epsilon*N rank budget).
//
// The in-flight bucket keeps both a GK(epsilon/2) summary (serving queries
// that land mid-bucket — the streaming maintenance cost the paper's
// Figure 4 measures) and the raw bucket contents, from which the completed
// bucket's exact equi-rank sketch is built.

#ifndef QLOVE_SKETCH_CMQS_H_
#define QLOVE_SKETCH_CMQS_H_

#include <deque>
#include <string>
#include <vector>

#include "sketch/gk.h"
#include "sketch/weighted_merge.h"
#include "stream/quantile_operator.h"

namespace qlove {
namespace sketch {

/// \brief CMQS configuration.
struct CmqsOptions {
  /// Rank error bound parameter: buckets span ~epsilon*N/2 elements and
  /// sketches are sized so answers stay within ~epsilon*N ranks.
  double epsilon = 0.02;
};

/// \brief Sliding-window quantiles from per-bucket sketches.
class CmqsOperator final : public QuantileOperator {
 public:
  explicit CmqsOperator(CmqsOptions options = {});

  Status Initialize(const WindowSpec& spec,
                    const std::vector<double>& phis) override;
  void Add(double value) override;
  void OnSubWindowBoundary() override;
  std::vector<double> ComputeQuantiles() override;
  int64_t ObservedSpaceVariables() const override { return peak_space_; }
  int64_t AnalyticalSpaceVariables() const override;
  std::string Name() const override { return "CMQS"; }
  void Reset() override;

  double epsilon() const { return options_.epsilon; }

  /// Exports the live window content as mergeable (value, weight) entries
  /// (sketch/weighted_merge, interpolated semantics): every completed
  /// bucket's equi-rank cells plus the in-flight bucket's midpoint-corrected
  /// GK export. Weights sum to the population currently covered. This is the
  /// summary-export path a sharded engine merges across shards.
  std::vector<WeightedValue> ExportWindowEntries() const;

  /// Expires everything ingested before global element index
  /// \p global_index (0-based; elements are indexed in arrival order):
  /// completed buckets wholly before the cutoff expire wholesale, and the
  /// in-flight bucket drops its stale prefix, rebuilding its GK summary
  /// from the survivors. Lets a time-driven caller (engine/) retire
  /// content the count-based window would keep alive under a trickle of
  /// ingest. No-op when the cutoff predates all live content.
  void ExpireBefore(int64_t global_index);

  /// Bucket span in elements: the period times max(1, floor(eps*N/2 / P)).
  int64_t bucket_size() const { return bucket_size_; }
  /// Per-bucket sketch capacity: ~(1/(2 eps)) * log2(2 eps B) entries.
  int64_t bucket_capacity() const { return bucket_capacity_; }

 private:
  struct Bucket {
    int64_t start = 0;  // global index of the first covered element
    std::vector<WeightedValue> entries;  // midpoint-valued cells, sorted
  };

  void SealBucket();
  int64_t CurrentSpace() const;

  CmqsOptions options_;
  WindowSpec spec_;
  std::vector<double> phis_;
  int64_t bucket_size_ = 0;
  int64_t bucket_capacity_ = 0;
  GkSummary inflight_;       // GK(epsilon/2) over the in-flight bucket
  std::vector<double> raw_;  // raw in-flight bucket contents
  int64_t raw_start_ = 0;    // global index of raw_[0]
  int64_t seen_ = 0;
  std::deque<Bucket> completed_;
  int64_t completed_entries_ = 0;  // total entries across `completed_`
  int64_t peak_space_ = 0;
};

}  // namespace sketch
}  // namespace qlove

#endif  // QLOVE_SKETCH_CMQS_H_
