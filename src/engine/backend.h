// Copyright 2026 The QLOVE Reproduction Authors
// The pluggable per-metric sketch seam: a shard drives a ShardBackend
// instead of a concrete QloveOperator, so one engine can serve different
// sketch families side by side — QLOVE for low value error, GK/CMQS for
// deterministic rank error in bounded space, Exact for oracle-mode metrics.
//
// Every backend exports a mergeable BackendSummary; cross-shard merging
// (engine/coalesce.cc, and WindowView in engine/query.cc for cross-metric
// pools) dispatches on its kind:
//
//  - kQlove carries the operator's sub-window summaries: the merge reuses
//    the paper's estimators (count-weighted Level-2 mean + few-k tail
//    merging with globally recomputed ranks).
//  - kGk / kCmqs / kExact carry (value, weight) entries in the
//    sketch/weighted_merge vocabulary: the merge pools all shards' entries
//    and answers rank queries over the weighted multiset. Mergeability is
//    the property that makes a summary shardable at all (the classic
//    mergeable-summaries requirement; see PAPERS.md).
//
// Backends are single-threaded; Shard provides the locking.

#ifndef QLOVE_ENGINE_BACKEND_H_
#define QLOVE_ENGINE_BACKEND_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/qlove.h"
#include "sketch/weighted_merge.h"
#include "stream/window.h"

namespace qlove {
namespace engine {

/// \brief The sketch family a metric's shards run.
enum class BackendKind {
  kQlove = 0,  ///< Paper operator: Level-1/Level-2 + few-k tails. Default.
  kGk = 1,     ///< Per-sub-window Greenwald-Khanna summaries.
  kCmqs = 2,   ///< CMQS bucketed GK (count-based sliding window).
  kExact = 3,  ///< Frequency tree over the raw window (oracle mode).
};

/// Lower-case kind name as used by CLI flags (bench_engine_throughput
/// --backend=...) and bench output.
const char* BackendKindName(BackendKind kind);

/// Parses a BackendKindName back; InvalidArgument on unknown names.
Result<BackendKind> ParseBackendKind(const std::string& name);

/// \brief Per-metric backend selection plus its kind-specific knobs.
///
/// Selected per metric at registration (TelemetryEngine::RegisterMetric);
/// EngineOptions carries the default applied to auto-registered metrics.
struct BackendOptions {
  BackendKind kind = BackendKind::kQlove;

  /// kQlove: the full paper-operator configuration.
  core::QloveOptions qlove;

  /// kGk / kCmqs: rank-error budget as a fraction of the window population
  /// (answers stay within ~epsilon * N ranks).
  double epsilon = 0.02;

  /// Rejects combinations that cannot serve \p phis over \p shard_window —
  /// at engine construction / registration, not at first Query.
  Status Validate(const WindowSpec& shard_window,
                  const std::vector<double>& phis) const;
};

/// True when \p a and \p b configure the same serving backend: same kind
/// and same kind-relevant knobs (the qlove options for kQlove, epsilon for
/// the GK family; kExact has none). Knobs the kind ignores are not
/// compared, so a qlove registration never conflicts over a stale epsilon.
bool SameBackendConfiguration(const BackendOptions& a, const BackendOptions& b);

/// \brief The mergeable state one shard exports for cross-shard merging.
///
/// Exactly one payload is populated, selected by `kind`. `inflight` counts
/// accepted values not yet visible to queries (they surface at the next
/// Tick); CMQS reports 0 because its in-flight GK summary already serves
/// mid-bucket queries and is exported in `entries`.
struct BackendSummary {
  BackendKind kind = BackendKind::kQlove;

  /// kQlove: copies of the live sub-window summaries, oldest first.
  std::vector<core::SubWindowSummary> subwindows;

  /// kGk / kCmqs / kExact: weighted entries covering the live window.
  std::vector<sketch::WeightedValue> entries;
  /// How `entries` weights answer rank queries (exact multiplicities for
  /// kExact, interpolated rank cells for the compressed sketches).
  sketch::RankSemantics semantics = sketch::RankSemantics::kExact;

  /// Window population covered by `entries` (weighted payloads only; for
  /// kQlove the merge derives the population from `subwindows` while
  /// applying its mergeability filter, so the backend does not precompute
  /// it).
  int64_t count = 0;
  int64_t inflight = 0;      ///< Accepted, awaiting the next Tick.
  bool burst_active = false; ///< kQlove: burst detector fired in-window.

  /// Documented rank-error half-width of `entries` as a fraction of this
  /// summary's own count: 0 for exact multiplicities, epsilon for the GK
  /// family, the grid resolution for QLOVE summaries lowered to entries.
  /// Summaries are self-describing so heterogeneous (cross-metric) pooling
  /// can annotate its answers without reaching back into per-metric
  /// options: the pooled bound is the count-weighted mean of these
  /// (rank errors add across disjoint sub-populations).
  double rank_error = 0.0;

  /// Structural equality (every payload field). The wire layer's
  /// round-trip tests assert this alongside byte-identity so a mismatch
  /// names the diverging field instead of a byte offset.
  bool operator==(const BackendSummary&) const = default;

  /// Scalars the payload stores (space accounting, 8 bytes each): every
  /// sub-window's SpaceVariables for kQlove, two per entry otherwise.
  int64_t SpaceVariables() const {
    int64_t space = static_cast<int64_t>(entries.size()) * 2;
    for (const core::SubWindowSummary& sub : subwindows) {
      space += sub.SpaceVariables();
    }
    return space;
  }

  /// Resets the scalar fields for reuse as a \p new_kind summary and clears
  /// the payload the kind does not use. The kind's own payload vector is
  /// deliberately NOT cleared here: SummaryInto implementations overwrite
  /// it with capacity-reusing assignments (resize + element-wise copy), so
  /// a summary recycled across Ticks stops allocating once its shape
  /// stabilizes (the allocation-free snapshot path).
  void ResetForKind(BackendKind new_kind) {
    kind = new_kind;
    semantics = sketch::RankSemantics::kExact;
    count = 0;
    inflight = 0;
    burst_active = false;
    rank_error = 0.0;
    if (new_kind == BackendKind::kQlove) {
      entries.clear();
    } else {
      subwindows.clear();
    }
  }
};

/// \brief One shard's sketch: ingest, tick sub-windows, export a summary.
///
/// Not thread-safe; the owning Shard serializes all calls.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Binds the backend to its per-shard window spec and quantile set.
  virtual Status Initialize(const WindowSpec& spec,
                            const std::vector<double>& phis) = 0;

  /// Accumulates values[offset], values[offset + stride], ... from the
  /// caller's buffer (the engine deals one batch across its shards as S
  /// interleaved stripes; a single value is the stride-1 case). Returns
  /// how many values entered backend state — corrupt telemetry (NaN/Inf)
  /// is dropped. One virtual dispatch per stripe keeps each backend's
  /// per-value accumulate inlined on the ingest hot path.
  virtual int64_t AddStrided(const double* values, size_t count,
                             size_t offset, size_t stride) = 0;

  /// Accumulates a dense run of values that the caller has already passed
  /// through PreQuantizer() (a no-op for backends that return nullptr).
  /// This is the ring-drain entry point: the shard ring stores stripes
  /// densely, and the backend consumes whole runs with one virtual call.
  /// Same acceptance/return contract as AddStrided.
  virtual int64_t AddDense(const double* values, size_t count) {
    return AddStrided(values, count, 0, 1);
  }

  /// The quantizer ingest must apply to values BEFORE they reach AddDense,
  /// or nullptr when the backend takes raw values. Hoisting quantization
  /// to the caller lets the engine quantize each flushed buffer once —
  /// batched and outside any lock — instead of once per event inside the
  /// backend (Quantize is idempotent, so a defensive re-quantize cannot
  /// change state).
  virtual const Quantizer* PreQuantizer() const { return nullptr; }

  /// Sub-window boundary (the engine's Tick): finalizes in-flight state and
  /// expires content older than the window.
  virtual void Tick() = 0;

  /// Rebases the backend's sub-window epoch counter to \p epoch, as if
  /// that many boundaries had already passed. WAL recovery calls this on a
  /// FRESH backend (before any Add/Tick) so new sub-windows continue the
  /// crashed incarnation's epoch sequence instead of restarting at 1 —
  /// restored summaries (epochs <= base) and live ones (epochs > base)
  /// then age out of the shared window consistently and never collide in
  /// epoch-grouped merges. Backends without epoch-stamped state ignore it.
  virtual void SetEpochBase(int64_t epoch) { (void)epoch; }

  /// Exports the backend's mergeable window state into \p out, reusing
  /// out's buffers (ResetForKind + capacity-reusing payload assignment) so
  /// repeated per-Tick exports into a recycled summary stop allocating
  /// once the shape stabilizes.
  virtual void SummaryInto(BackendSummary* out) const = 0;

  /// Convenience wrapper over SummaryInto for callers without a reusable
  /// summary.
  BackendSummary Summary() const {
    BackendSummary summary;
    SummaryInto(&summary);
    return summary;
  }

  /// kQlove: the closed sub-window summaries SummaryInto would copy,
  /// oldest first, read in place. A closed sub-window never changes, so
  /// the metric's export window merges each one once instead of copying
  /// the whole window per export (engine/registry.h). nullptr for the
  /// entry kinds, whose windows are not epoch-decomposable.
  virtual const std::deque<core::SubWindowSummary>* ClosedSubWindows() const {
    return nullptr;
  }

  /// Values accepted but not yet visible to queries (they surface at the
  /// next Tick); matches Summary().inflight without paying for a summary
  /// export. Unlike window state — which queries read from a copy of the
  /// metric's export window (engine/query.h ResolvedWindow) — this is a
  /// *live* counter the engine re-reads per query so staleness dashboards
  /// see buffered backlog immediately.
  virtual int64_t InflightCount() const = 0;

  /// Peak stored scalars (the paper's §5.1 space metric).
  virtual int64_t ObservedSpaceVariables() const = 0;

  /// Backend name as printed by diagnostics.
  virtual const char* Name() const = 0;
};

/// \brief Builds and initializes the backend \p options selects.
/// \p options must already have passed Validate(spec, phis); the engine
/// validates once per registration instead of once per shard.
Result<std::unique_ptr<ShardBackend>> CreateShardBackend(
    const BackendOptions& options, const WindowSpec& spec,
    const std::vector<double>& phis);

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_BACKEND_H_
