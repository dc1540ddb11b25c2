#include "engine/query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>

#include "core/error_bound.h"
#include "core/fewk.h"
#include "core/level2.h"

namespace qlove {
namespace engine {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Tolerance for "this query phi IS a grid phi": callers re-pass the same
/// literals they registered, so anything beyond round-off means off-grid.
constexpr double kGridPhiTolerance = 1e-12;

QueryOutcome EmptyWindowOutcome(core::OutcomeSource source) {
  QueryOutcome outcome;
  outcome.status = Status::FailedPrecondition("window is empty");
  outcome.source = source;
  return outcome;
}

/// Worst-case |true CDF - GridCdfAtValueSpan| for one grid: the width of
/// the grid bracket the value falls in — [0, phi_first] below the grid
/// floor, [phi_last, 1] above the ceiling, the enclosing grid cell inside.
/// Span form so EvaluateRank can walk precomputed flat per-summary grids.
double GridCdfBoundSpan(const double* phis, const double* values, size_t n,
                        double value) {
  if (n == 0) return kInf;
  if (value < values[0]) return phis[0];
  if (value >= values[n - 1]) return 1.0 - phis[n - 1];
  const size_t hi =
      static_cast<size_t>(std::upper_bound(values, values + n, value) -
                          values);
  return phis[hi] - phis[hi - 1];
}

/// Lowers one qlove sub-window summary to weighted entries under
/// kInterpolated semantics: each grid value carries the rank mass between
/// its phi and the previous one (cumulative weight at the value == its
/// grid rank, which Level 1 computed exactly); the mass above the top grid
/// phi comes from the deepest tail capture's exact top-k multiplicities
/// when few-k captured any, else it piles on the top grid value. Body
/// resolution is therefore the grid gap — mixed-kind rollups are
/// deliberately coarse between grid phis and honest about it (the caller
/// stamps the lowered view's rank_error with the worst gap). Returns the
/// population lowered — exactly the weight appended to \p out — so the
/// caller's window count cannot drift from the pooled weights when a
/// foreign-shaped summary is skipped.
int64_t LowerQloveSummary(const core::SubWindowSummary& summary,
                          const std::vector<double>& sorted_phis,
                          const std::vector<size_t>& phi_order,
                          std::vector<sketch::WeightedValue>* out) {
  const int64_t count = summary.count;
  if (count <= 0 || summary.quantiles.size() != phi_order.size()) return 0;

  int64_t prev_rank = 0;
  for (size_t j = 0; j < sorted_phis.size(); ++j) {
    const int64_t rank = std::clamp<int64_t>(
        core::TailCeilCount(sorted_phis[j] * static_cast<double>(count)), 1,
        count);
    if (rank > prev_rank) {
      out->emplace_back(summary.quantiles[phi_order[j]], rank - prev_rank);
      prev_rank = rank;
    }
  }
  int64_t remaining = count - prev_rank;
  if (remaining <= 0) return count;

  const double top_grid_value = summary.quantiles[phi_order.back()];
  // Deepest capture = the one holding the most top-k mass (plans for lower
  // phis cache deeper tails).
  const core::TailCapture* deepest = nullptr;
  int64_t deepest_mass = 0;
  for (const core::TailCapture& tail : summary.tails) {
    int64_t mass = 0;
    for (const auto& [value, n] : tail.topk) mass += n;
    if (mass > deepest_mass) {
      deepest_mass = mass;
      deepest = &tail;
    }
  }
  if (deepest != nullptr) {
    // The largest min(remaining, captured) elements get their exact
    // values; any gap between the grid top and the capture floor is
    // conservatively placed at the top grid value.
    int64_t take = std::min(remaining, deepest_mass);
    remaining -= take;
    if (remaining > 0) out->emplace_back(top_grid_value, remaining);
    for (const auto& [value, n] : deepest->topk) {
      if (take <= 0) break;
      const int64_t here = std::min(n, take);
      out->emplace_back(value, here);
      take -= here;
    }
  } else {
    out->emplace_back(top_grid_value, remaining);
  }
  return count;
}

}  // namespace

const char* QueryRequestKindName(QueryRequestKind kind) {
  switch (kind) {
    case QueryRequestKind::kQuantile: return "quantile";
    case QueryRequestKind::kRank: return "rank";
    case QueryRequestKind::kCount: return "count";
    case QueryRequestKind::kSum: return "sum";
    case QueryRequestKind::kMean: return "mean";
  }
  return "unknown";
}

Status QuerySpec::Validate() const {
  if (requests.empty()) {
    return Status::InvalidArgument("query has no requests");
  }
  for (const QueryRequest& request : requests) {
    switch (request.kind) {
      case QueryRequestKind::kQuantile:
        if (!(request.argument > 0.0) || request.argument > 1.0) {
          return Status::InvalidArgument("quantile phi must lie in (0, 1]");
        }
        break;
      case QueryRequestKind::kRank:
        if (!std::isfinite(request.argument)) {
          return Status::InvalidArgument("rank threshold must be finite");
        }
        break;
      case QueryRequestKind::kCount:
      case QueryRequestKind::kSum:
      case QueryRequestKind::kMean:
        break;
    }
  }
  if (target == TargetKind::kKeyList && keys.empty()) {
    return Status::InvalidArgument("key-list target has no keys");
  }
  return Status::OK();
}

std::string DescribeQuerySpec(const QuerySpec& spec) {
  std::string out;
  switch (spec.target) {
    case QuerySpec::TargetKind::kKey:
      out = "key=" + spec.key.ToString();
      break;
    case QuerySpec::TargetKind::kKeyList:
      out = "keys=[";
      for (size_t i = 0; i < spec.keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += spec.keys[i].ToString();
      }
      out += ']';
      break;
    case QuerySpec::TargetKind::kSelector:
      out = "selector=" + spec.selector.ToString();
      break;
  }
  out += " [";
  for (size_t i = 0; i < spec.requests.size(); ++i) {
    const QueryRequest& request = spec.requests[i];
    if (i > 0) out += ", ";
    out += QueryRequestKindName(request.kind);
    if (request.kind == QueryRequestKind::kQuantile ||
        request.kind == QueryRequestKind::kRank) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "(%g)", request.argument);
      out += buf;
    }
  }
  out += ']';
  return out;
}

namespace {

/// Argsort of \p phis ascending — (*order)[j] is the input index of the
/// j-th smallest phi — filling \p sorted_phis with the sorted grid, both
/// reusing their capacity.
void SortedPhiOrderInto(const std::vector<double>& phis,
                        std::vector<size_t>* order,
                        std::vector<double>* sorted_phis) {
  order->resize(phis.size());
  std::iota(order->begin(), order->end(), size_t{0});
  std::sort(order->begin(), order->end(),
            [&](size_t a, size_t b) { return phis[a] < phis[b]; });
  sorted_phis->clear();
  sorted_phis->reserve(phis.size());
  for (size_t j : *order) sorted_phis->push_back(phis[j]);
}

/// Linear interpolation of the value at \p phi on a phi-ascending grid
/// with aligned monotone \p values, clamped to the grid ends.
double GridValueAtPhi(const std::vector<double>& phis,
                      const std::vector<double>& values, double phi) {
  if (phis.empty()) return 0.0;
  if (phi <= phis.front()) return values.front();
  if (phi >= phis.back()) return values.back();
  const size_t hi = static_cast<size_t>(
      std::lower_bound(phis.begin(), phis.end(), phi) - phis.begin());
  const double dphi = phis[hi] - phis[hi - 1];
  if (dphi <= 0.0) return values[hi];
  const double t = (phi - phis[hi - 1]) / dphi;
  return values[hi - 1] + t * (values[hi] - values[hi - 1]);
}

/// The CDF fraction at \p value on one phi-ascending grid of \p n points:
/// linear inverse interpolation inside the grid; outside it, nearest-cell
/// slope extrapolation clamped to the unobserved bracket. Span form, so
/// EvaluateRank walks precomputed flat per-summary grids without building
/// vectors per call.
double GridCdfAtValueSpan(const double* phis, const double* values, size_t n,
                          double value) {
  if (n == 0) return 0.0;
  // Outside the grid the CDF is only known to lie in the unobserved
  // bracket ([0, phi_first] below the floor, [phi_last, 1] above the
  // ceiling); extrapolate with the nearest cell's slope, clamped to the
  // bracket — near-grid values (the common case: a probe just under a
  // sub-window's p50) stay accurate, far ones saturate at the bracket
  // edge. GridCdfBound reports the full bracket as the worst case.
  if (value < values[0]) {
    if (n < 2 || values[1] <= values[0]) return phis[0] / 2.0;
    const double slope = (phis[1] - phis[0]) / (values[1] - values[0]);
    return std::clamp(phis[0] - (values[0] - value) * slope, 0.0, phis[0]);
  }
  if (value >= values[n - 1]) {
    const size_t l = n - 1;
    if (n < 2 || values[l] <= values[l - 1]) {
      return (phis[l] + 1.0) / 2.0;
    }
    const double slope =
        (phis[l] - phis[l - 1]) / (values[l] - values[l - 1]);
    return std::clamp(phis[l] + (value - values[l]) * slope, phis[l], 1.0);
  }
  const size_t hi =
      static_cast<size_t>(std::upper_bound(values, values + n, value) -
                          values);
  const double dv = values[hi] - values[hi - 1];
  if (dv <= 0.0) return phis[hi];
  const double t = (value - values[hi - 1]) / dv;
  return phis[hi - 1] + t * (phis[hi] - phis[hi - 1]);
}

std::vector<const BackendSummary*> ViewPointers(
    const std::vector<BackendSummary>& views) {
  std::vector<const BackendSummary*> pointers;
  pointers.reserve(views.size());
  for (const BackendSummary& view : views) pointers.push_back(&view);
  return pointers;
}

}  // namespace

WindowView::WindowView(const std::vector<BackendSummary>& views,
                       const MetricOptions& options, bool lower_to_entries)
    : WindowView(ViewPointers(views), options, lower_to_entries) {}

WindowView::WindowView(const std::vector<const BackendSummary*>& views,
                       const MetricOptions& options, bool lower_to_entries,
                       WindowArena* arena)
    : options_(options) {
  if (arena != nullptr) {
    // Adopt the previous construction's buffers: every member below is
    // cleared before use, so only capacity carries over.
    phi_order_ = std::move(arena->phi_order);
    grid_phis_ = std::move(arena->grid_phis);
    grid_values_ = std::move(arena->grid_values);
    grid_sources_ = std::move(arena->grid_sources);
    merged_ = std::move(arena->merged);
    plans_ = std::move(arena->plans);
    tails_by_plan_ = std::move(arena->tails_by_plan);
    summary_values_ = std::move(arena->summary_values);
    pooled_ = std::move(arena->pooled);
    grid_values_.clear();
    grid_sources_.clear();
    merged_.clear();
    plans_.clear();
    summary_values_.clear();
    pooled_.clear();
    // Clear the inner pointer lists (keeping their capacity) so a view
    // that never rebuilds them — the entry-backed path skips BuildQlove —
    // cannot carry dangling pointers into the previous query's summaries.
    for (std::vector<const core::TailCapture*>& tails : tails_by_plan_) {
      tails.clear();
    }
  }
  entry_backed_ =
      lower_to_entries || options_.backend.kind != BackendKind::kQlove;

  for (const BackendSummary* view : views) {
    inflight_count_ += view->inflight;
    burst_active_ = burst_active_ || view->burst_active;
  }

  // The phi grid sorted ascending, shared by both modes (grid evaluation
  // on the qlove path, summary lowering on the entry path).
  SortedPhiOrderInto(options_.phis, &phi_order_, &grid_phis_);

  if (entry_backed_) {
    BuildEntries(views, /*lower_qlove=*/lower_to_entries);
  } else {
    BuildQlove(views);
  }
}

void WindowView::ReleaseTo(WindowArena* arena) {
  arena->phi_order = std::move(phi_order_);
  arena->grid_phis = std::move(grid_phis_);
  arena->grid_values = std::move(grid_values_);
  arena->grid_sources = std::move(grid_sources_);
  arena->merged = std::move(merged_);
  arena->plans = std::move(plans_);
  arena->tails_by_plan = std::move(tails_by_plan_);
  arena->summary_values = std::move(summary_values_);
  arena->pooled = std::move(pooled_);
}

void WindowView::BuildQlove(const std::vector<const BackendSummary*>& views) {
  const size_t num_phis = options_.phis.size();
  std::vector<double> estimates(num_phis, 0.0);
  std::vector<core::OutcomeSource> sources(num_phis,
                                           core::OutcomeSource::kLevel2);

  // The exact plan layout the shards' operators built at Initialize, so
  // summary.tails[plan_index] below indexes the matching TailCapture.
  const std::vector<int> high_index = core::QloveOperator::BuildFewKLayout(
      options_.backend.qlove, options_.phis, options_.shard_window, &plans_);

  // A summary participates only when its shape matches the configured
  // layout (defense against views from a foreign config); the same
  // predicate gates the population count and the tail entries, so ranks
  // computed from the merged total always cover exactly the merged tails.
  auto mergeable = [&](const core::SubWindowSummary& summary) {
    return summary.quantiles.size() == num_phis &&
           summary.tails.size() == plans_.size();
  };

  // Pass 1: pool every view's sub-window summaries into the Level-2
  // weighted mean and count the merged population.
  core::Level2Aggregator level2(num_phis);
  for (const BackendSummary* view : views) {
    for (const core::SubWindowSummary& summary : view->subwindows) {
      if (!mergeable(summary)) continue;
      merged_.push_back(&summary);
      window_count_ += summary.count;
      ++num_summaries_;
      level2.AccumulateWeighted(summary.quantiles,
                                static_cast<double>(summary.count));
    }
  }

  // Precompute the per-summary evaluation state once per merge, so
  // Evaluate never builds per-call vectors: every plan's tail pointer
  // list across the merged summaries (pass 2 here, plus off-grid few-k
  // re-targeting in QloveQuantile) and each summary's phi-ascending value
  // grid (EvaluateRank's per-summary CDF).
  tails_by_plan_.resize(plans_.size());
  for (size_t p = 0; p < plans_.size(); ++p) {
    tails_by_plan_[p].clear();
    tails_by_plan_[p].reserve(merged_.size());
    for (const core::SubWindowSummary* summary : merged_) {
      tails_by_plan_[p].push_back(&summary->tails[p]);
    }
  }
  summary_values_.reserve(merged_.size() * num_phis);
  for (const core::SubWindowSummary* summary : merged_) {
    for (size_t j = 0; j < num_phis; ++j) {
      summary_values_.push_back(summary->quantiles[phi_order_[j]]);
    }
  }

  if (num_summaries_ > 0) {
    estimates = level2.ComputeWeightedResult();

    // Pass 2: few-k tail correction over the union of every view's tail
    // captures, with ranks recomputed from the *merged* population T: the
    // per-shard plans target each shard's share; the merged answer must
    // target T(1-phi). Mirrors QloveOperator::ComputeQuantiles.
    for (size_t i = 0; i < num_phis; ++i) {
      const int plan_index = high_index[i];
      if (plan_index < 0) continue;
      const core::FewKPlan& plan = plans_[static_cast<size_t>(plan_index)];
      const core::TailRanks ranks =
          core::ComputeTailRanks(options_.phis[i], window_count_);
      core::SelectFewKOutcome(plan,
                              tails_by_plan_[static_cast<size_t>(plan_index)],
                              ranks.tail_size, ranks.exact_tail_rank,
                              burst_active_, &estimates[i], &sources[i]);
    }

    core::RestoreQuantileMonotonicity(options_.phis, &estimates);
  }

  grid_values_.reserve(num_phis);
  grid_sources_.reserve(num_phis);
  for (size_t j : phi_order_) {
    grid_values_.push_back(estimates[j]);
    grid_sources_.push_back(sources[j]);
  }
}

void WindowView::BuildEntries(const std::vector<const BackendSummary*>& views,
                              bool lower_qlove) {
  // Worst grid gap over the cut points {0, phis...}: the body resolution
  // of a lowered qlove summary (its tail above the top grid phi carries
  // exact top-k multiplicities, or is covered conservatively by the same
  // stamp when no tail was captured).
  double grid_gap = 0.0;
  double prev_phi = 0.0;
  for (double phi : grid_phis_) {
    grid_gap = std::max(grid_gap, phi - prev_phi);
    prev_phi = phi;
  }

  double weighted_error = 0.0;
  size_t total_entries = 0;
  for (const BackendSummary* view : views) {
    total_entries += view->entries.size();
  }
  pooled_.reserve(total_entries);

  for (const BackendSummary* view : views) {
    if (view->kind == BackendKind::kQlove) {
      if (!lower_qlove) continue;  // foreign view in a non-lowering pool
      const size_t before = pooled_.size();
      int64_t lowered_count = 0;
      for (const core::SubWindowSummary& summary : view->subwindows) {
        lowered_count +=
            LowerQloveSummary(summary, grid_phis_, phi_order_, &pooled_);
      }
      if (pooled_.size() == before) continue;
      ++num_summaries_;
      window_count_ += lowered_count;
      weighted_error += grid_gap * static_cast<double>(lowered_count);
      semantics_ = sketch::RankSemantics::kInterpolated;
      pool_has_lowered_qlove_ = true;
      continue;
    }
    if (view->entries.empty()) continue;
    ++num_summaries_;
    window_count_ += view->count;
    weighted_error += view->rank_error * static_cast<double>(view->count);
    if (view->semantics == sketch::RankSemantics::kInterpolated) {
      semantics_ = sketch::RankSemantics::kInterpolated;
    }
    pooled_.insert(pooled_.end(), view->entries.begin(), view->entries.end());
  }

  // One sort amortized over every request; the rank walks are the shared
  // weighted_merge cores, so pooled answers cannot drift from the
  // single-operator weighted-merge semantics.
  std::sort(pooled_.begin(), pooled_.end());
  if (window_count_ > 0) {
    pooled_rank_error_ = weighted_error / static_cast<double>(window_count_);
  }
}

QueryOutcome WindowView::Evaluate(const QueryRequest& request) const {
  switch (request.kind) {
    case QueryRequestKind::kQuantile: return EvaluateQuantile(request.argument);
    case QueryRequestKind::kRank: return EvaluateRank(request.argument);
    case QueryRequestKind::kCount: return EvaluateCount();
    case QueryRequestKind::kSum: return EvaluateSum();
    case QueryRequestKind::kMean: return EvaluateMean();
  }
  QueryOutcome outcome;
  outcome.status = Status::InvalidArgument("unknown request kind");
  return outcome;
}

QueryOutcome WindowView::EvaluateQuantile(double phi) const {
  return entry_backed_ ? EntryQuantile(phi) : QloveQuantile(phi);
}

double WindowView::QloveValueErrorBound(double phi) const {
  // Theorem 1 needs the density at the estimate; off-line (no reservoir in
  // the merge path) the merged grid itself supplies a finite-difference
  // estimate: f ~= dphi / dvalue across the bracketing grid cell.
  if (grid_phis_.size() < 2 || num_summaries_ <= 0 || window_count_ <= 0) {
    return kInf;
  }
  size_t hi = static_cast<size_t>(
      std::lower_bound(grid_phis_.begin(), grid_phis_.end(), phi) -
      grid_phis_.begin());
  hi = std::clamp<size_t>(hi, 1, grid_phis_.size() - 1);
  const double dphi = grid_phis_[hi] - grid_phis_[hi - 1];
  const double dv = grid_values_[hi] - grid_values_[hi - 1];
  if (dphi <= 0.0) return kInf;
  if (dv <= 0.0) return 0.0;  // point mass: the cell holds one value
  const double density = dphi / dv;
  const int64_t mean_subwindow =
      std::max<int64_t>(1, window_count_ / num_summaries_);
  return core::TheoremOneBound(phi, num_summaries_, mean_subwindow, density);
}

QueryOutcome WindowView::QloveQuantile(double phi) const {
  if (num_summaries_ == 0) {
    return EmptyWindowOutcome(core::OutcomeSource::kLevel2);
  }
  QueryOutcome outcome;

  // On-grid: exactly the merged grid estimate.
  const auto grid_it =
      std::lower_bound(grid_phis_.begin(), grid_phis_.end(),
                       phi - kGridPhiTolerance);
  if (grid_it != grid_phis_.end() && std::abs(*grid_it - phi) <=
                                         kGridPhiTolerance) {
    const size_t j = static_cast<size_t>(grid_it - grid_phis_.begin());
    outcome.value = grid_values_[j];
    outcome.source = grid_sources_[j];
    outcome.rank_error_bound = 0.0;  // grid term; see QueryOutcome docs
    outcome.value_error_bound = QloveValueErrorBound(phi);
    return outcome;
  }

  // Off-grid: interpolate between the bracketing grid estimates, widening
  // the rank annotation to the distance the interpolation can wander —
  // the answer is pinned inside [value(g_lo), value(g_hi)], whose ranks
  // are g_lo and g_hi up to the grid points' own statistical error.
  double slack;
  if (phi < grid_phis_.front()) {
    slack = grid_phis_.front() - phi;
  } else if (phi > grid_phis_.back()) {
    slack = phi - grid_phis_.back();
  } else {
    const size_t hi = static_cast<size_t>(
        std::lower_bound(grid_phis_.begin(), grid_phis_.end(), phi) -
        grid_phis_.begin());
    slack = std::max(phi - grid_phis_[hi - 1], grid_phis_[hi] - phi);
  }
  outcome.value = GridValueAtPhi(grid_phis_, grid_values_, phi);
  outcome.source = core::OutcomeSource::kLevel2;

  // High off-grid phis: re-target the grid's few-k machinery at the query
  // phi. Any plan with plan.phi <= phi captured a tail at least as deep
  // as the query's (tail size shrinks with phi), so its pooled top-k /
  // sample material covers the recomputed rank; pick the tightest such
  // plan. The answer stays clamped to the grid bracket — few-k estimates
  // each phi independently and quantiles are monotone by definition.
  if (phi >= options_.backend.qlove.high_quantile_threshold &&
      window_count_ > 0) {
    int best = -1;
    for (size_t p = 0; p < plans_.size(); ++p) {
      if (plans_[p].phi > phi) continue;
      if (best < 0 || plans_[p].phi > plans_[static_cast<size_t>(best)].phi) {
        best = static_cast<int>(p);
      }
    }
    if (best >= 0) {
      const core::FewKPlan& plan = plans_[static_cast<size_t>(best)];
      const core::TailRanks ranks =
          core::ComputeTailRanks(phi, window_count_);
      double estimate = outcome.value;
      core::OutcomeSource source = outcome.source;
      if (core::SelectFewKOutcome(plan, tails_by_plan_[static_cast<size_t>(best)],
                                  ranks.tail_size,
                                  ranks.exact_tail_rank, burst_active_,
                                  &estimate, &source)) {
        double lo = -kInf, hi = kInf;
        if (phi <= grid_phis_.front()) {
          hi = grid_values_.front();
        } else if (phi >= grid_phis_.back()) {
          lo = grid_values_.back();
        } else {
          const size_t b = static_cast<size_t>(
              std::lower_bound(grid_phis_.begin(), grid_phis_.end(), phi) -
              grid_phis_.begin());
          lo = grid_values_[b - 1];
          hi = grid_values_[b];
        }
        outcome.value = std::clamp(estimate, lo, hi);
        outcome.source = source;
      }
    }
  }

  outcome.rank_error_bound = slack;
  outcome.value_error_bound = QloveValueErrorBound(phi);
  return outcome;
}

QueryOutcome WindowView::EntryQuantile(double phi) const {
  if (pooled_.empty() || window_count_ <= 0) {
    return EmptyWindowOutcome(core::OutcomeSource::kSketchMerge);
  }
  QueryOutcome outcome;
  outcome.source = core::OutcomeSource::kSketchMerge;
  const auto rank = static_cast<int64_t>(
      std::ceil(phi * static_cast<double>(window_count_)));
  auto answer =
      sketch::WeightedRankQuerySorted(pooled_, rank, semantics_,
                                      window_count_);
  if (!answer.ok()) {
    outcome.status = answer.status();
    return outcome;
  }
  outcome.value = answer.ValueOrDie();
  outcome.rank_error_bound =
      pooled_rank_error_ + 1.0 / static_cast<double>(window_count_);
  return outcome;
}

QueryOutcome WindowView::EvaluateRank(double value) const {
  if (entry_backed_) {
    if (pooled_.empty() || window_count_ <= 0) {
      return EmptyWindowOutcome(core::OutcomeSource::kSketchMerge);
    }
    QueryOutcome outcome;
    outcome.source = core::OutcomeSource::kSketchMerge;
    const int64_t rank = sketch::WeightedRankAtValue(pooled_, value);
    outcome.value = static_cast<double>(rank) /
                    static_cast<double>(window_count_);
    outcome.rank_error_bound =
        pooled_rank_error_ + 1.0 / static_cast<double>(window_count_);
    return outcome;
  }

  if (num_summaries_ == 0 || window_count_ <= 0) {
    return EmptyWindowOutcome(core::OutcomeSource::kLevel2);
  }
  // Ranks are additive across disjoint sub-windows: each summary's exact
  // per-sub-window quantile grid acts as its CDF, and the window CDF is
  // the count-weighted mean. The annotation pools each summary's bracket
  // width the same way.
  QueryOutcome outcome;
  outcome.source = core::OutcomeSource::kLevel2;
  double mass = 0.0;
  double bound = 0.0;
  const size_t num_phis = phi_order_.size();
  for (size_t i = 0; i < merged_.size(); ++i) {
    // The precomputed flat grid (summary_values_) is this summary's
    // phi-ascending quantiles: no per-call gather, no allocation.
    const double* values = summary_values_.data() + i * num_phis;
    const double count = static_cast<double>(merged_[i]->count);
    mass += GridCdfAtValueSpan(grid_phis_.data(), values, num_phis, value) *
            count;
    bound += GridCdfBoundSpan(grid_phis_.data(), values, num_phis, value) *
             count;
  }
  const double total = static_cast<double>(window_count_);
  outcome.value = std::clamp(mass / total, 0.0, 1.0);
  outcome.rank_error_bound = bound / total + 1.0 / total;
  return outcome;
}

QueryOutcome WindowView::EvaluateCount() const {
  QueryOutcome outcome;
  outcome.value = static_cast<double>(window_count_);
  outcome.source = entry_backed_ ? core::OutcomeSource::kSketchMerge
                                 : core::OutcomeSource::kLevel2;
  outcome.rank_error_bound = 0.0;
  outcome.value_error_bound = 0.0;
  return outcome;
}

QueryOutcome WindowView::EvaluateSum() const {
  // Qlove sub-window summaries carry quantiles and counts, not sums —
  // whether they serve natively or lowered into a mixed pool, a sum over
  // them would silently inherit the grid's value placement. Quantile and
  // rank requests stay available (and annotated) either way.
  if (!entry_backed_ || pool_has_lowered_qlove_) {
    QueryOutcome outcome;
    outcome.status = Status::FailedPrecondition(
        entry_backed_
            ? "sum is unsupported over a mixed pool containing lowered "
              "qlove summaries (quantiles and counts only); query the "
              "entry-backed metrics separately for Sum/Mean"
            : "sum is unsupported on the qlove serving path: sub-window "
              "summaries carry quantiles and counts, not sums; use an "
              "entry-backed backend (gk / cmqs / exact) for Sum/Mean");
    return outcome;
  }
  if (pooled_.empty() || window_count_ <= 0) {
    return EmptyWindowOutcome(core::OutcomeSource::kSketchMerge);
  }
  QueryOutcome outcome;
  outcome.source = core::OutcomeSource::kSketchMerge;
  double sum = 0.0;
  for (const auto& [value, weight] : pooled_) {
    sum += value * static_cast<double>(weight);
  }
  outcome.value = sum;
  // Exact multiplicities sum exactly; interpolated entries are
  // representative points, so the sum is an estimate without a
  // deterministic bound.
  if (semantics_ == sketch::RankSemantics::kExact) {
    outcome.value_error_bound = 0.0;
  }
  return outcome;
}

QueryOutcome WindowView::EvaluateMean() const {
  QueryOutcome outcome = EvaluateSum();
  if (!outcome.status.ok()) return outcome;
  outcome.value /= static_cast<double>(window_count_);
  return outcome;
}

ResolvedWindow::ResolvedWindow(const BackendSummary& window,
                               const MetricOptions& options)
    : window_(window), view_({&window_}, options) {}

bool SameServingConfiguration(const MetricOptions& a, const MetricOptions& b) {
  return SameBackendConfiguration(a.backend, b.backend) && a.phis == b.phis &&
         a.shard_window == b.shard_window;
}

Result<QueryResult> EvaluatePool(std::span<const PoolMember> members,
                                 const QuerySpec& spec,
                                 const WindowView* cached) {
  // Lowering re-reads a qlove summary's quantiles through the pool's phi
  // grid, so a mixed pool lowers through its qlove members' own grid — and
  // two qlove members on different grids cannot share a pool at all: one
  // of them would be silently mis-lowered, so refuse loudly instead.
  const PoolMember& front = members.front();
  bool native = true;
  const PoolMember* first_qlove = nullptr;
  for (const PoolMember& member : members) {
    native = native &&
             SameServingConfiguration(*member.options, *front.options);
    if (member.options->backend.kind != BackendKind::kQlove) continue;
    if (first_qlove == nullptr) {
      first_qlove = &member;
    } else if (member.options->phis != first_qlove->options->phis) {
      return Status::FailedPrecondition(
          "cannot pool qlove metrics " + first_qlove->key->ToString() +
          " and " + member.key->ToString() +
          " across disagreeing phi grids; align EngineOptions::phis");
    }
  }
  // Which entry-kind metric leads a mixed pool must never decide whether
  // the query serves (entry kinds are grid-independent).
  const MetricOptions& options = !native && first_qlove != nullptr
                                     ? *first_qlove->options
                                     : *front.options;

  QueryResult result;
  result.backend = front.options->backend.kind;
  result.mixed_backends = !native;
  result.matched.reserve(members.size());
  for (const PoolMember& member : members) {
    result.matched.push_back(*member.key);
    result.num_shards += member.num_shards;
  }
  // Canonical order, each key once: an aggregator pools one key from
  // several sources.
  if (!std::is_sorted(result.matched.begin(), result.matched.end())) {
    std::sort(result.matched.begin(), result.matched.end());
  }
  result.matched.erase(
      std::unique(result.matched.begin(), result.matched.end()),
      result.matched.end());

  // Pools point into the members' summaries and copy nothing; the view's
  // buffers come from a thread-local arena, so repeated queries inherit
  // the previous one's capacities instead of allocating (released back
  // after evaluation, below).
  thread_local WindowArena arena;
  std::optional<WindowView> pooled;
  const WindowView* view = cached;
  if (view == nullptr) {
    std::vector<const BackendSummary*> pointers = std::move(arena.pointers);
    pointers.clear();
    for (const PoolMember& member : members) {
      for (const BackendSummary& summary : member.summaries) {
        pointers.push_back(&summary);
      }
    }
    pooled.emplace(pointers, options, /*lower_to_entries=*/!native, &arena);
    arena.pointers = std::move(pointers);
    view = &*pooled;
  }

  result.outcomes.reserve(spec.requests.size());
  for (const QueryRequest& request : spec.requests) {
    result.outcomes.push_back(view->Evaluate(request));
  }
  result.window_count = view->window_count();
  result.num_summaries = view->num_summaries();
  result.inflight_count = view->inflight_count();
  result.burst_active = view->burst_active();
  if (pooled.has_value()) pooled->ReleaseTo(&arena);
  return result;
}

}  // namespace engine
}  // namespace qlove
