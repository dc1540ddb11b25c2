// Copyright 2026 The QLOVE Reproduction Authors
// The first-class read path. The paper's serving model (§2) fixes the
// quantile set at registration; real monitoring is query-driven — operators
// ask ad-hoc phis ("p97 right now"), inverse-CDF ("what fraction of
// requests exceeded 500ms?"), and fleet rollups across tag dimensions.
// This layer inverts the phi-at-registration assumption:
//
//   QuerySpec  = target (one key | key list | tag selector)
//              x requests (Quantile(phi) | Rank(value) | Count | Sum | Mean)
//   TelemetryEngine::Query(spec) -> Result<QueryResult>
//
// Evaluation pools each metric's coalesced window (one BackendSummary per
// metric — the summary its exports ship, whatever its shard count) into
// one WindowView:
//
//  - Homogeneous kQlove targets keep the paper's estimator chain. The
//    registered phis act as a *grid*: few-k layouts are planned for the
//    grid at registration, on-grid phis are answered by the merged grid
//    estimates themselves, and off-grid phis interpolate between
//    bracketing grid estimates — with the few-k tail machinery re-targeted
//    at the query phi's recomputed rank whenever a grid plan's captured
//    tail covers it (any plan with plan.phi <= query phi holds at least
//    the query's tail depth). Off-grid answers carry explicitly widened
//    error bounds (see QueryOutcome).
//  - Everything else — single weighted-entry metrics, same-kind rollups,
//    and mixed-kind selector targets — pools (value, weight) entries, with
//    kQlove summaries lowered to weighted entries (grid masses plus exact
//    top-k tail multiplicities) so heterogeneous fleets still roll up.
//
// Query is the only read path, on both tiers: TelemetryEngine::Query and
// AggregatorEngine::Query resolve their targets and hand the members to
// EvaluatePool, the one definition of how summaries pool (native, lowered
// to entries, or refused), so agent and aggregator answers cannot drift.

#ifndef QLOVE_ENGINE_QUERY_H_
#define QLOVE_ENGINE_QUERY_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/qlove.h"
#include "engine/backend.h"
#include "engine/metric_key.h"
#include "engine/registry.h"
#include "sketch/weighted_merge.h"

namespace qlove {
namespace engine {

/// \brief What one QueryRequest asks of the window.
enum class QueryRequestKind {
  kQuantile = 0,  ///< Value at quantile phi — any phi, decided at query time.
  kRank = 1,      ///< CDF: fraction of the window at or below a value.
  kCount = 2,     ///< Window population.
  kSum = 3,       ///< Sum of window values (entry-backed backends only).
  kMean = 4,      ///< Mean of window values (entry-backed backends only).
};

/// Human-readable request kind name.
const char* QueryRequestKindName(QueryRequestKind kind);

/// \brief One read request. Construct via the factories.
struct QueryRequest {
  QueryRequestKind kind = QueryRequestKind::kQuantile;
  /// phi for kQuantile (any value in (0, 1], on or off the registered
  /// grid); the threshold value for kRank; unused otherwise.
  double argument = 0.0;

  static QueryRequest Quantile(double phi) {
    return {QueryRequestKind::kQuantile, phi};
  }
  static QueryRequest Rank(double value) {
    return {QueryRequestKind::kRank, value};
  }
  static QueryRequest Count() { return {QueryRequestKind::kCount, 0.0}; }
  static QueryRequest Sum() { return {QueryRequestKind::kSum, 0.0}; }
  static QueryRequest Mean() { return {QueryRequestKind::kMean, 0.0}; }
};

/// \brief A composable read query: one target, any number of requests.
struct QuerySpec {
  enum class TargetKind {
    kKey = 0,       ///< Exactly `key`.
    kKeyList = 1,   ///< Every key in `keys` (all must be registered).
    kSelector = 2,  ///< Every registered metric `selector` matches.
  };

  TargetKind target = TargetKind::kKey;
  MetricKey key;                 ///< kKey target.
  std::vector<MetricKey> keys;   ///< kKeyList target.
  TagSelector selector;          ///< kSelector target.

  std::vector<QueryRequest> requests;  ///< At least one.

  static QuerySpec ForKey(MetricKey key) {
    QuerySpec spec;
    spec.target = TargetKind::kKey;
    spec.key = std::move(key);
    return spec;
  }
  static QuerySpec ForKeys(std::vector<MetricKey> keys) {
    QuerySpec spec;
    spec.target = TargetKind::kKeyList;
    spec.keys = std::move(keys);
    return spec;
  }
  static QuerySpec ForSelector(TagSelector selector) {
    QuerySpec spec;
    spec.target = TargetKind::kSelector;
    spec.selector = std::move(selector);
    return spec;
  }

  /// Appends one request (chainable):
  ///   QuerySpec::ForKey(k).With(QueryRequest::Quantile(0.97))
  ///                       .With(QueryRequest::Rank(500.0))
  QuerySpec& With(QueryRequest request) & {
    requests.push_back(request);
    return *this;
  }
  QuerySpec&& With(QueryRequest request) && {
    requests.push_back(request);
    return std::move(*this);
  }

  /// Rejects malformed specs before any metric is touched: no requests, a
  /// quantile phi outside (0, 1], a non-finite rank threshold, an empty
  /// key list.
  Status Validate() const;
};

/// One-line human-readable rendering of a spec — target plus request list,
/// e.g. `key=rtt_us{dc=ams} [quantile(0.99), rank(500)]`. The slow-query
/// log records this instead of the spec itself so retained entries do not
/// pin MetricKey allocations.
std::string DescribeQuerySpec(const QuerySpec& spec);

/// \brief One evaluated request.
struct QueryOutcome {
  /// OK, or why this request could not be served from this window:
  /// FailedPrecondition for an empty window and for aggregates the
  /// serving data cannot answer — Sum/Mean on kQlove, whose sub-window
  /// summaries carry quantiles and counts but no sums, including mixed
  /// pools that lowered such summaries into entries. `value` is 0 and
  /// the bounds are infinite whenever !status.ok().
  Status status;

  /// The estimate: a window value (kQuantile), a fraction in [0, 1]
  /// (kRank: the CDF at the threshold; the fraction exceeding it is
  /// 1 - value), or the count/sum/mean.
  double value = 0.0;

  /// Which pipeline produced the estimate: Level-2 / top-k / sample-k on
  /// the homogeneous-qlove path, the weighted sketch merge otherwise.
  core::OutcomeSource source = core::OutcomeSource::kLevel2;

  /// Documented rank-error half-width as a fraction of the window
  /// population (kQuantile / kRank only). Deterministic for entry-backed
  /// serving: the pooled count-weighted mean of each summary's own budget
  /// (epsilon for gk/cmqs, ~0 for exact, grid resolution for lowered
  /// qlove) plus the 1/N discretization floor. For homogeneous-qlove
  /// serving it is the *grid* term only — the off-grid widening
  /// max(phi - g_lo, g_hi - phi) to the bracketing grid phis (0 on-grid);
  /// the statistical estimation error of the grid points themselves is a
  /// value-space guarantee (Theorem 1), annotated below, not a
  /// deterministic rank bound.
  double rank_error_bound = std::numeric_limits<double>::infinity();

  /// Theorem-1 value-error half-width (core/error_bound) at alpha = 0.05,
  /// with the density at the estimate taken from finite differences of
  /// the merged quantile grid (kQuantile on the homogeneous-qlove path
  /// only; infinity when uninformative — degenerate grid, too few
  /// summaries, or entry-backed serving, whose rank bound above is already
  /// deterministic).
  double value_error_bound = std::numeric_limits<double>::infinity();
};

/// \brief The evaluated answer to one QuerySpec.
struct QueryResult {
  /// Metrics that served the query, canonical-key-sorted (deterministic
  /// across runs, so monitoring diffs are stable).
  std::vector<MetricKey> matched;

  /// The serving backend kind. With `mixed_backends`, the kind of the
  /// first matched metric; evaluation then runs on pooled weighted
  /// entries regardless.
  BackendKind backend = BackendKind::kQlove;
  /// True when a multi-metric target pooled more than one backend kind
  /// (or differently-configured kQlove metrics): qlove summaries were
  /// lowered to weighted entries and answers are grid-coarse (see
  /// QueryOutcome::rank_error_bound).
  bool mixed_backends = false;

  /// One outcome per QuerySpec request, same order.
  std::vector<QueryOutcome> outcomes;

  int64_t window_count = 0;    ///< Pooled elements covered by the window.
  int64_t num_summaries = 0;   ///< Merged sub-window summaries (qlove path)
                               ///< or contributing metric summaries; a
                               ///< metric's shards are coalesced, so S
                               ///< shards do not multiply it.
  int64_t inflight_count = 0;  ///< Recorded but awaiting the next Tick.
  int num_shards = 0;          ///< Configured shards summed over the matched
                               ///< metrics (an aggregator counts 1 per
                               ///< held summary).
  bool burst_active = false;   ///< Any pooled qlove summary flagged a burst.

  /// \name Fleet accounting (AggregatorEngine queries only)
  ///
  /// A distributed query is served from the remote snapshots the
  /// aggregator holds. `sources_fresh` counts the agents whose state
  /// answered it; `sources_stale` counts agents that matched the target
  /// but were excluded because their last snapshot trails the fleet epoch
  /// beyond the staleness budget. When any matching source is stale the
  /// answer covers only part of the fleet: quantile/rank outcomes are
  /// stamped OutcomeSource::kPartialFleet and their rank_error_bound is
  /// widened by the excluded sources' last-known population share (a
  /// sub-population missing fraction s shifts any rank by at most s).
  /// Both stay 0 on local TelemetryEngine queries.
  /// @{
  int64_t sources_fresh = 0;
  int64_t sources_stale = 0;
  /// @}
};

/// \brief Reusable scratch buffers for WindowView construction.
///
/// Multi-metric rollups build a fresh WindowView per query (the pool
/// composition depends on the target); adopting an arena lets each build
/// inherit the previous query's vector capacities instead of allocating —
/// construct with the arena, evaluate, then ReleaseTo(&arena) to hand the
/// buffers back for the next query. One arena serves one WindowView at a
/// time (EvaluatePool keeps a thread-local one).
struct WindowArena {
  std::vector<const BackendSummary*> pointers;  // the caller's pooled views
  std::vector<size_t> phi_order;
  std::vector<double> grid_phis;
  std::vector<double> grid_values;
  std::vector<core::OutcomeSource> grid_sources;
  std::vector<const core::SubWindowSummary*> merged;
  std::vector<core::FewKPlan> plans;
  std::vector<std::vector<const core::TailCapture*>> tails_by_plan;
  std::vector<double> summary_values;
  std::vector<sketch::WeightedValue> pooled;
};

/// \brief One pooled, queryable window: the shared evaluator under
/// EvaluatePool (and so under both tiers' Query).
///
/// Holds pointers into \p views AND a reference to \p options — build,
/// evaluate, discard while both outlive it (in particular, do not pass a
/// temporary MetricOptions). Construction runs every merge and precomputes
/// the per-summary evaluation state (tail pointer lists per plan, each
/// summary's phi-ascending value grid), so Evaluate performs no
/// allocations — the cached-window query path stays allocation-free.
/// Not thread-safe to build; Evaluate is const and safe concurrently.
/// Callers hold consistent views (MetricState::Resolved copies one
/// metric's export window under its epoch lock; a multi-metric pool is
/// consistent per metric, not across metrics).
class WindowView {
 public:
  /// Pools \p views (non-owning pointers: the summaries must outlive the
  /// WindowView; the pointer vector itself is only read during
  /// construction). With \p lower_to_entries false (single-metric and
  /// homogeneous-qlove rollups) kQlove views keep the paper's estimator
  /// chain; true forces every view down to weighted entries (mixed-kind
  /// or mixed-configuration targets). \p options supplies the grid phis,
  /// the qlove plan layout, and — for single-kind entry backends — the
  /// epsilon stamped on summaries' rank_error. Pointer views are what let
  /// multi-metric rollups (and the fleet aggregator) pool cached per-metric
  /// summaries without copying a single backend state per query.
  WindowView(const std::vector<const BackendSummary*>& views,
             const MetricOptions& options, bool lower_to_entries = false,
             WindowArena* arena = nullptr);

  /// Convenience over an owned summary vector (single-metric callers).
  WindowView(const std::vector<BackendSummary>& views,
             const MetricOptions& options, bool lower_to_entries = false);

  /// Moves this view's buffers into \p arena for the next construction to
  /// adopt. The view is dead afterwards — release only when done
  /// evaluating.
  void ReleaseTo(WindowArena* arena);

  /// Evaluates one request against the pooled window.
  QueryOutcome Evaluate(const QueryRequest& request) const;

  QueryOutcome EvaluateQuantile(double phi) const;
  QueryOutcome EvaluateRank(double value) const;
  QueryOutcome EvaluateCount() const;
  QueryOutcome EvaluateSum() const;
  QueryOutcome EvaluateMean() const;

  int64_t window_count() const { return window_count_; }
  int64_t num_summaries() const { return num_summaries_; }
  int64_t inflight_count() const { return inflight_count_; }
  bool burst_active() const { return burst_active_; }
  /// True when evaluation runs on pooled weighted entries (any non-qlove
  /// or lowered pool), false on the homogeneous-qlove estimator chain.
  bool entry_backed() const { return entry_backed_; }

 private:
  void BuildQlove(const std::vector<const BackendSummary*>& views);
  void BuildEntries(const std::vector<const BackendSummary*>& views,
                    bool lower_qlove);
  QueryOutcome QloveQuantile(double phi) const;
  QueryOutcome EntryQuantile(double phi) const;
  double QloveValueErrorBound(double phi) const;

  const MetricOptions& options_;
  bool entry_backed_ = false;

  int64_t window_count_ = 0;
  int64_t num_summaries_ = 0;
  int64_t inflight_count_ = 0;
  bool burst_active_ = false;

  // Homogeneous-qlove state: the merged grid (phi-ascending) with few-k
  // machinery for re-targeting arbitrary high phis.
  std::vector<size_t> phi_order_;       // sorted position -> input phi index
  std::vector<double> grid_phis_;       // ascending
  std::vector<double> grid_values_;     // aligned, monotone
  std::vector<core::OutcomeSource> grid_sources_;  // aligned
  std::vector<const core::SubWindowSummary*> merged_;  // into caller views
  std::vector<core::FewKPlan> plans_;
  /// tails_by_plan_[p] = every merged summary's TailCapture for plan p,
  /// in merged_ order — precomputed so quantile evaluations (including
  /// off-grid few-k re-targeting) never build pointer lists per call.
  std::vector<std::vector<const core::TailCapture*>> tails_by_plan_;
  /// merged_[i]'s quantiles in phi-ascending order, flattened at stride
  /// grid_phis_.size() — the per-summary CDF grids behind EvaluateRank,
  /// precomputed so rank requests never allocate per call.
  std::vector<double> summary_values_;

  // Entry-backed state: one pooled, sorted weighted multiset.
  std::vector<sketch::WeightedValue> pooled_;
  sketch::RankSemantics semantics_ = sketch::RankSemantics::kExact;
  double pooled_rank_error_ = 0.0;  // count-weighted mean of view budgets
  /// True when the pool carries lowered qlove mass: rank queries stay
  /// sound (grid-coarse, annotated), but Sum/Mean would silently absorb
  /// the lowering's value placement, so they refuse instead.
  bool pool_has_lowered_qlove_ = false;
};

/// \brief One metric's query window: an immutable copy of its export
/// window (MetricState::VisitExportWindow) plus the WindowView over it,
/// built once at construction.
///
/// This is the read-path cache behind TelemetryEngine::Query.
/// MetricState::Resolved builds one per export-window update and shares it
/// with every query until the next update, so between updates a query
/// evaluates without merging anything. Callers hold the shared_ptr for the
/// duration of an evaluation; a concurrent Tick or Export never touches
/// state under a running query.
///
/// The referenced MetricOptions must outlive this object (it lives in the
/// owning MetricState, which callers keep alive alongside the window).
class ResolvedWindow {
 public:
  ResolvedWindow(const BackendSummary& window, const MetricOptions& options);
  ResolvedWindow(const ResolvedWindow&) = delete;
  ResolvedWindow& operator=(const ResolvedWindow&) = delete;

  /// The window as a one-summary pool member span.
  std::span<const BackendSummary> views() const { return {&window_, 1}; }

  /// The evaluator over the window; safe for concurrent Evaluate.
  const WindowView& view() const { return view_; }

 private:
  const BackendSummary window_;
  const WindowView view_;  // points into window_
};

/// \name The pool rule
///
/// Both tiers' Query resolve a target to members and hand them here:
/// TelemetryEngine passes its registered metrics, AggregatorEngine the
/// metrics its fresh sources shipped. How the members' summaries pool is
/// decided once, in EvaluatePool.
/// @{

/// True when metrics configured \p a and \p b serve identically: the same
/// kind-relevant backend knobs, phi grid and window geometry. Summaries of
/// such metrics pool natively (for kQlove, pooling N metrics is the same
/// computation as N times more shards of one); AggregatorEngine::Export
/// pools a key held by several sources only under it.
bool SameServingConfiguration(const MetricOptions& a, const MetricOptions& b);

/// One metric a query target resolved to. Non-owning: the key, options and
/// summaries must outlive the EvaluatePool call.
struct PoolMember {
  const MetricKey* key = nullptr;
  const MetricOptions* options = nullptr;
  std::span<const BackendSummary> summaries;
  /// What the member adds to QueryResult::num_shards.
  int num_shards = 0;
};

/// Evaluates spec.requests over the pooled summaries of \p members
/// (non-empty; merged in the order given, so a caller fixes its answers'
/// merge order). The pool serves natively when every member shares the
/// first one's serving configuration; otherwise every summary is lowered
/// to weighted entries, read through the qlove members' phi grid (the
/// first member's grid when none is qlove). FailedPrecondition when two
/// qlove members disagree on the phi grid: one of them would be
/// mis-lowered. The view is built from a thread-local WindowArena; a
/// single-member caller holding a prebuilt native view of that member
/// (TelemetryEngine's ResolvedWindow) passes it as \p cached instead, and
/// it is evaluated as is.
///
/// Fills matched (canonical order, each key once), backend (the first
/// member's kind), mixed_backends, num_shards, outcomes, window_count,
/// num_summaries, inflight_count (as the summaries carry it) and
/// burst_active; the caller adds what only its tier knows.
Result<QueryResult> EvaluatePool(std::span<const PoolMember> members,
                                 const QuerySpec& spec,
                                 const WindowView* cached = nullptr);

/// @}

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_QUERY_H_
