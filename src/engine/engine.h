// Copyright 2026 The QLOVE Reproduction Authors
// The sharded multi-metric telemetry engine: the serving seam between raw
// per-host record streams and windowed quantile queries. Each registered
// metric (name + tags) owns N shards, each running a private ShardBackend
// (QLOVE by default; GK / CMQS / Exact selectable per metric) over the
// core/ + sketch/ + stream/ layers. Records reach shards through
// per-thread buffers; a full buffer is quantized once as a batch
// (Quantizer::QuantizeBatch) and dealt as round-robin stripes into each
// shard's bounded MPSC ring — one CAS per stripe, no locks — so the
// ingest hot path is a thread-local append and steady-state writers never
// contend with each other or with queries. Shard backends drain
// their rings under one lock acquisition per Tick/flush, plus
// opportunistic try-lock drains when a ring passes its high-water mark.
//
// Lifecycle:
//   TelemetryEngine engine(options);
//   engine.RegisterMetric(key, backend);  // optional per-metric backend
//   engine.Record(key, value);       // any thread, buffered
//   engine.Flush();                  // per thread, before a barrier
//   engine.Tick();                   // sub-window boundary (e.g. every 1s)
//   auto ans = engine.Query(          // any phi / CDF / fleet rollup
//       QuerySpec::ForSelector({"rtt_us", {{"service", "search"}}})
//           .With(QueryRequest::Quantile(0.97))
//           .With(QueryRequest::Rank(500.0)));
//   engine.Export("host-1", &cursor, &frame);  // ship to an aggregator
//
// Tick() defines sub-window boundaries in time rather than element count
// (real telemetry windows are temporal); QLOVE's Level-2 machinery already
// tolerates sub-windows of varying population.

#ifndef QLOVE_ENGINE_ENGINE_H_
#define QLOVE_ENGINE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"
#include "engine/introspection.h"
#include "engine/metric_key.h"
#include "engine/query.h"
#include "engine/registry.h"
#include "engine/wal.h"
#include "engine/wire.h"
#include "stream/window.h"

namespace qlove {
namespace engine {

struct ThreadBuffer;  // internal per-(thread, metric) ingest buffer

/// \brief Engine-wide configuration, applied to every metric it registers.
struct EngineOptions {
  /// Lock stripes per metric. More shards admit more concurrent writers and
  /// shrink per-shard sub-windows (each shard sees ~1/num_shards of the
  /// metric's records).
  int num_shards = 4;

  /// Per-shard window spec in elements. The metric-level window covers
  /// num_shards * shard_window.size elements across the registry; few-k
  /// plans are sized from this spec, so set shard_window.period to the
  /// expected per-shard records per Tick.
  WindowSpec shard_window{8192, 1024};

  /// The quantile *grid*: the phis every metric estimates per sub-window
  /// and the anchors the query layer plans few-k layouts for. Query
  /// answers any phi — on-grid phis from the merged grid estimates,
  /// off-grid phis by grid interpolation (with the tail machinery
  /// re-targeted at the query rank for high phis) under explicitly widened
  /// error bounds — so the grid sets where answers are sharpest, not what
  /// may be asked (§2 fixes phis at registration; the query layer
  /// deliberately inverts that).
  std::vector<double> phis = {0.5, 0.9, 0.99, 0.999};

  /// Default sketch backend for metrics registered without an explicit
  /// backend (RegisterMetric(key) and first-Record auto-registration).
  BackendOptions default_backend;

  /// Records buffered per (thread, metric) before an automatic flush.
  /// Larger buffers amortize the per-flush work (one batch quantization +
  /// one ring publish per shard); smaller ones bound staleness.
  size_t thread_buffer_capacity = 256;

  /// Slots in each shard's ingest ring (rounded up to a power of two).
  /// Writers publish into the ring lock-free and only block when it fills
  /// faster than it drains, so size it to absorb the expected burst
  /// between drains: at least num-writers x (thread_buffer_capacity /
  /// num_shards) stripe elements, with headroom. Memory cost is
  /// 8 bytes x capacity x num_shards per metric (plus a sequence word per
  /// slot). See README "Performance" for tuning guidance.
  size_t shard_ring_capacity = 4096;

  /// Runtime switch for the self-metrics layer (engine/introspection.h):
  /// false skips all counter/timer work and registers no `__qlove/`
  /// metrics.
  bool introspection = true;

  /// Queries whose wall time meets this threshold (microseconds) are
  /// captured in the slow-query log (spec + timing) and handed to the
  /// SetSlowQueryHook callback. 0 disables capture (the default: the
  /// threshold is workload-specific).
  double slow_query_threshold_us = 0.0;

  /// Slow-query records retained (bounded ring, oldest evicted).
  size_t slow_query_log_capacity = 32;

  /// Soft cap on the summed per-metric memory estimate (backend space
  /// variables + ring slots across shards; see MetricFootprint). Checked at
  /// every Tick: over budget, the engine first evicts idle metrics
  /// (longest-idle, largest first), then degrades the largest still-active
  /// metrics down the exact -> qlove -> gk chain. New registrations while
  /// over budget start one step down the chain. 0 disables (the default).
  size_t memory_budget_bytes = 0;

  /// Metrics that see no Record for this many consecutive Tick windows are
  /// evicted at the next boundary: final event totals roll into
  /// Stats().evicted_events, shards are dropped, and the registry
  /// tombstones the key (a later Record transparently re-registers it
  /// fresh). 0 disables idle eviction (the default).
  int64_t idle_eviction_windows = 0;

  /// When a metric family (same name, any tags) reaches this many live
  /// keys, further registrations in the family degrade one step down the
  /// exact -> qlove -> gk chain — tag explosion on an exact-backend family
  /// stops buying exactness it can no longer afford. 0 disables (the
  /// default).
  size_t degrade_cardinality_threshold = 0;

  /// Rejects configurations that cannot serve: bad windows/phis, and
  /// backend/option combinations that could only fail later (at first
  /// Query) — e.g. few-k plans that capture no tail material, or a
  /// GK-family epsilon too coarse to resolve a requested quantile.
  Status Validate() const;
};

/// \brief Knobs for TelemetryEngine::Export and AggregatorEngine::Export.
struct ExportOptions {
  /// Include the `__qlove/` self-metrics in the export so they roll up
  /// across the fleet like any other metric: the engine's own, or the
  /// ones an aggregator holds from its children. Default OFF: wire
  /// consumers that pin exact export bytes (golden fixtures) must not
  /// absorb nondeterministic timing sketches unasked.
  bool include_self_metrics = false;
};

/// \brief Per-receiver delta-sync state for one export stream —
/// TelemetryEngine::Export from an agent, or AggregatorEngine::Export from
/// an aggregator to its parent: which epoch and which qlove sub-windows
/// the receiver is believed to hold, so the next export ships only what
/// it has not seen.
///
/// One cursor per (exporter, receiver) stream, owned by the caller and
/// used from one exporting thread at a time. The protocol is optimistic:
/// the cursor advances as frames are produced, and when the receiver
/// disagrees (it NAKed, it restarted, frames were dropped in transit) the
/// caller invokes RequestResync() and the next export is a full frame. A
/// fresh cursor's first export is always a full frame.
///
/// A frame the receiver did not apply must be followed by RequestResync().
/// The receiver's base-epoch check also NAKs the delta after a lost frame
/// whenever the exporter's epoch advanced in between — always for an
/// agent, whose epoch advances with every sub-window it closes, but not
/// for an aggregator, whose fleet epoch stands still while lagging
/// sources report.
///
/// A cursor holds only one small tracking entry per exported metric (the
/// newest sub-window epoch shipped and where the summary came from), never
/// a copy of the exported state: frames are written straight from the
/// exporter's own windows.
///
/// After an agent export the tracking state depends only on the windows
/// exported: every exported metric's entry is rewritten, the rest are
/// pruned, and last_epoch() becomes the frame's epoch. So an agent stamps
/// a cursor with the Tick whose state it exported, and a cursor stamped
/// with the Tick before the newest one holds exactly the state the newest
/// Tick's WAL record was diffed against — the condition under which
/// TelemetryEngine::Export ships that record's bytes instead of encoding.
class ExportCursor {
 public:
  /// Force the next export to be a full frame (initial state). Call on
  /// aggregator NAK (IngestAck::resync_required), transport reconnect, or
  /// any suspicion of frame loss.
  void RequestResync() { force_full_ = true; }

  /// Epoch of the last frame produced through this cursor (what the next
  /// delta declares as its base), or -1 before the first export.
  int64_t last_epoch() const { return last_epoch_; }

  /// Metrics the cursor currently tracks. Bounded by the exporter's live
  /// metric count: entries for evicted/unregistered metrics (or, at an
  /// aggregator, keys whose sources went stale) are pruned on every
  /// export (a vanished tracked metric also forces that export to a full
  /// frame, so the receiver retires it too).
  size_t tracked_metrics() const {
    return shared_sent_ != nullptr ? shared_sent_->size() : sent_.size();
  }

 private:
  friend class TelemetryEngine;
  friend class AggregatorEngine;

  struct Sent;
  using SentMap = std::map<MetricKey, Sent>;

  /// The one state->frame diff behind both engines' Export, streamed: the
  /// exporter calls Begin with its metric keys, then Metric once per key
  /// in that order, reading each metric's summaries where it holds them,
  /// then End. Nothing is copied out of the exporter's state; each record
  /// goes straight into \p out through a FrameWriter (engine/wire.h).
  ///
  /// Begin chooses the frame: full on the cursor's first export, after
  /// RequestResync(), or when a tracked metric is missing from \p keys (a
  /// delta can only describe the metrics it carries, so the receiver would
  /// serve the vanished key forever; a full frame replaces the source's
  /// held state wholesale); a delta against last_epoch() otherwise. It
  /// writes the header and advances the cursor optimistically — when the
  /// receiver disagrees it NAKs and the caller calls RequestResync().
  /// \p keys must be in canonical order. Returns true for a delta.
  bool Begin(std::string_view source, uint64_t sync_token, int64_t epoch,
             std::span<const MetricKey* const> keys,
             std::vector<uint8_t>* out);

  /// Writes the next metric. In a delta, a metric last shipped as a
  /// single qlove summary from the same \p lineage, and still one, rides
  /// kQloveDelta: the sub-windows newer than the newest one shipped, plus
  /// refreshed scalars. Everything else rides whole (kFull in a delta).
  /// \p inflight, when set, stands in for the summaries' own field.
  ///
  /// \p lineage stamps where the metric's summary comes from; a metric
  /// whose stamp changed since it was last shipped rides kFull.
  /// Sub-window epochs cannot prove that a summary continues the one the
  /// receiver holds — an aggregator's contributing source may have
  /// restarted (epochs begin again) or been replaced by another source
  /// reporting the same key — so the exporter must say so. An agent
  /// passes 0 throughout: its metrics only ever continue themselves within
  /// one engine incarnation.
  void Metric(const MetricKey& key, const MetricOptions& options,
              std::span<const BackendSummary* const> shards,
              std::optional<int64_t> inflight, uint64_t lineage);

  /// Finishes the frame: tracked metrics past the last one written are no
  /// longer exported and are pruned.
  void End();

  /// What the receiver holds of one metric, as of the last frame.
  struct Sent {
    /// Shipped as a single qlove summary: the next export may patch it
    /// with kQloveDelta. False for metrics shipped whole (non-qlove, or
    /// pooled from several sources: no sub-window state to diff).
    bool patchable = false;
    /// Newest sub-window epoch shipped; INT64_MIN when the shipped window
    /// was empty, so every later sub-window is new to the receiver.
    int64_t newest_epoch = 0;
    uint64_t lineage = 0;
  };

  /// Takes on the tracking state a Tick's WAL encode left behind, after
  /// the agent shipped that record's body through this cursor: \p sent is
  /// shared, not copied, until the next Begin needs its own.
  void Adopt(std::shared_ptr<const SentMap> sent, int64_t epoch,
             uint64_t view_token, uint64_t view);

  bool force_full_ = true;
  int64_t last_epoch_ = -1;
  /// Keys are kept in lockstep with the exports — see tracked_metrics().
  /// While shared_sent_ is set it holds the tracking state instead (sent_
  /// is then empty), and Begin copies it back into sent_.
  SentMap sent_;
  std::shared_ptr<const SentMap> shared_sent_;
  /// Which agent state the tracking state equals: the count of Ticks
  /// begun on the engine whose sync token is view_token_ when the export
  /// ran with no Tick in progress. 0 when unknown — after every Begin
  /// until the agent stamps it, and always for an aggregator's cursor.
  uint64_t view_token_ = 0;
  uint64_t view_ = 0;
  /// The frame in progress (between Begin and End): its writer, whether
  /// it is a delta, and the next tracked entry Metric merges against
  /// (keys arrive in canonical order, so sent_ is updated in one pass).
  FrameWriter writer_;
  bool delta_ = false;
  SentMap::iterator tracked_{};
};

/// \brief Sharded, thread-safe, multi-metric quantile engine.
///
/// Thread-safety: every public method is safe to call concurrently.
/// Record() buffers in thread-local storage; values become visible to
/// Tick()/Query() after the owning thread flushes (explicitly via
/// Flush(), or automatically when its buffer fills). A thread that stops
/// recording without Flush() leaves its tail of buffered values invisible —
/// writer threads should Flush() before joining.
class TelemetryEngine {
 public:
  explicit TelemetryEngine(EngineOptions options = {});
  ~TelemetryEngine();

  TelemetryEngine(const TelemetryEngine&) = delete;
  TelemetryEngine& operator=(const TelemetryEngine&) = delete;

  /// Registers \p key eagerly on the engine's default backend (Record also
  /// registers on first use). Equivalent to RegisterMetric(key,
  /// default_backend), including its conflict check: FailedPrecondition
  /// when the key already serves a different backend configuration.
  Status RegisterMetric(const MetricKey& key);

  /// Registers \p key on an explicit \p backend, letting one engine serve
  /// different sketch families side by side (e.g. QLOVE for latency
  /// metrics, Exact for low-rate oracle metrics). Re-registering with the
  /// same kind and configuration is a no-op returning OK;
  /// FailedPrecondition when the key is already registered with a
  /// different kind or different kind-relevant knobs (the metric keeps
  /// serving its original sketch either way).
  Status RegisterMetric(const MetricKey& key, const BackendOptions& backend);

  /// Buffers one record for \p key in the calling thread's buffer,
  /// auto-flushing at capacity. Registers the metric on first use.
  /// Cost: one MetricKey hash + thread-local append per call (no locks);
  /// call sites that already batch should prefer RecordBatch, which hashes
  /// the key once per batch.
  Status Record(const MetricKey& key, double value);

  /// Routes a whole batch to \p key's shards immediately (no thread
  /// buffer): value i goes to shard (cursor + i) % num_shards, so every
  /// shard receives an interleaved, near-equal share.
  Status RecordBatch(const MetricKey& key, const double* values, size_t count);
  Status RecordBatch(const MetricKey& key, const std::vector<double>& values);

  /// Flushes the calling thread's buffers for every metric of this engine.
  void Flush();

  /// Sub-window boundary: flushes the calling thread's buffers, then
  /// finalizes the in-flight sub-window on every shard of every metric.
  void Tick();

  /// Evaluates \p spec against the live window: any quantile (not just the
  /// registered grid), rank/CDF, count, and sum/mean where the serving
  /// backend supports them — over one key, an explicit key list, or every
  /// metric a tag selector matches (fleet rollup). Each metric serves its
  /// export window — its shards coalesced, exactly the summary Export
  /// ships — so a host fed this engine's frames answers bit for bit as it
  /// does. Multi-metric targets pool those windows under EvaluatePool
  /// (engine/query.h), the rule AggregatorEngine::Query shares: metrics of
  /// one serving configuration merge through the paper's estimator chain
  /// (identical to adding shards), anything heterogeneous through the
  /// weighted-entry path with qlove summaries lowered to entries. NotFound
  /// when the target resolves to no registered metric; FailedPrecondition
  /// when it pools qlove metrics on different phi grids (a WAL-recovered
  /// metric keeps its logged grid); per-request problems (empty window,
  /// unsupported aggregate) surface as per-outcome statuses, not query
  /// failure. The registered grid phis are the sharpest requests: a
  /// Quantile per EngineOptions::phis reads the merged grid estimates.
  ///
  /// Reserved `__qlove/` keys (and selectors naming them) serve the
  /// engine's own self-metrics — e.g. ForKey(StageMetricKey(Stage::kTick))
  /// answers the engine's Tick-latency p99. Such queries are not
  /// themselves instrumented (no observation feedback); wildcard
  /// selectors match user metrics only.
  Result<QueryResult> Query(const QuerySpec& spec) const;

  /// The agent half of the distributed deployment: encodes this engine's
  /// mergeable window state into \p out (buffer reused) for an
  /// AggregatorEngine. The frame is a full frame (first export through
  /// \p cursor, or after cursor->RequestResync()) or a DELTA frame
  /// carrying, per qlove metric, only the sub-windows newer than what
  /// \p cursor says the receiver holds (plus refreshed scalars); non-qlove
  /// metrics and metrics with unshippable diffs ride as full replacements
  /// inside the delta.
  ///
  /// Covers every registered metric that has seen at least one Tick
  /// (pre-first-Tick metrics have no window state),
  /// in canonical key order; each metric carries its full MetricOptions so
  /// the receiver can rebuild the exact merge, and its per-shard summaries
  /// folded into one (engine/coalesce.h) — shard count is an agent-internal
  /// scaling detail and does not multiply frame size. That summary is the
  /// metric's retained export window, brought up to date once per Tick
  /// and encoded in place, under the metric's epoch lock
  /// (MetricState::VisitExportWindow): an export copies no window, so it
  /// costs about what the sub-windows it ships cost. \p source names this
  /// agent in the aggregator's per-source state. With
  /// export_options.include_self_metrics, the engine's `__qlove/`
  /// self-metrics ride along (fleet health rolls up through the same
  /// pipeline as the telemetry itself).
  ///
  /// One encode per Tick: with a WAL enabled, each Tick encodes its delta
  /// once, for the WAL record, and keeps the bytes. An export that would
  /// diff against the same state ships them — a fresh header naming
  /// \p source, then the kept body — and advances the cursor without
  /// visiting any window: the steady state of a cursor exporting once
  /// after every Tick. Such a frame's in-flight counts are those of the
  /// Tick, not of the export (values flushed in between show up in the
  /// next frame). Everything else encodes as described above: a fresh or
  /// resynced cursor, a cursor that skipped a Tick or already shipped this
  /// one, a checkpoint Tick (the WAL record is a full frame),
  /// include_self_metrics, a metric registered or evicted since the Tick,
  /// a kCmqs metric that received values since the Tick (its window moved),
  /// a Tick that overlapped another Tick, an export begun after the next
  /// Tick began, and WAL off.
  ///
  /// The cursor advances optimistically; pair with
  /// AggregatorEngine::IngestFrame and call cursor->RequestResync()
  /// whenever the returned IngestAck demands it or the transport hiccups.
  /// Timing lands in the wire_encode stage; the frame feeds the exports /
  /// wire_bytes_encoded (and, for deltas, delta_exports /
  /// wire_bytes_delta) counters, and a shipped Tick frame frames_reused.
  Status Export(std::string source, ExportCursor* cursor,
                std::vector<uint8_t>* out,
                const ExportOptions& export_options = {}) const;

  /// \name Crash durability (engine/wal.h)
  ///
  /// With a WAL enabled, every Tick appends one record — a delta-sync
  /// frame diffed through the WAL's own cursor, encoded once and unmetered
  /// (WAL records never count as exports) — and periodically a
  /// full-snapshot checkpoint (segment rotation, cadence, or degraded-mode
  /// healing). A non-checkpoint record's body is exactly what Export ships
  /// through a cursor that exported the previous Tick, and Export ships
  /// those very bytes (see Export). A restarted process calls
  /// RecoverFromWal on a FRESH engine to resume with the last durable
  /// window; because recovery rebuilds real registry state, the next
  /// export to an aggregator re-ships it (the receiver treats the new
  /// incarnation's sync token as a restart and accepts the full frame).
  ///
  /// Disk faults (ENOSPC/EIO) never crash the engine: a failed append
  /// flips a sticky non-durable DEGRADED mode — serving continues, the
  /// failure is counted and surfaced in Stats() — and the next
  /// successful checkpoint heals it (full frame, so nothing the failed
  /// appends lost is needed).
  /// @{

  /// What RecoverFromWal reconstructed.
  struct WalRecoveryInfo {
    int64_t epoch = 0;    ///< Tick epoch of the last durable record.
    int64_t metrics = 0;  ///< Metrics restored into the registry.
    WalReplayStats replay;
  };

  /// Starts write-ahead logging into \p dir (created when missing).
  /// Segments continue the directory's existing numbering; the first
  /// Tick's record is a checkpoint. FailedPrecondition when already
  /// enabled. Call AFTER RecoverFromWal when resuming.
  Status EnableWal(const std::string& dir, const WalOptions& wal_options = {});

  /// Replays \p dir's retained segments and restores the last durable
  /// window into this engine: each recovered metric re-registers with its
  /// logged configuration and serves its restored summary until live
  /// sub-windows age it out. Requires a fresh engine (no Ticks, no
  /// metrics, WAL not yet enabled). Corrupt/truncated/foreign records are
  /// skipped per the replay taxonomy (see WalReplayStats); a missing or
  /// empty directory recovers nothing and returns OK with epoch 0.
  Result<WalRecoveryInfo> RecoverFromWal(const std::string& dir);

  /// fdatasyncs the open WAL segment (the SIGTERM drain path).
  /// FailedPrecondition when no WAL is enabled.
  Status FlushWal();

  bool wal_enabled() const;

  /// True while the engine is in non-durable degraded mode (an append
  /// failed and no checkpoint has healed it yet).
  bool wal_degraded() const {
    return wal_degraded_.load(std::memory_order_relaxed);
  }

  /// Fault seam: the next \p n WAL appends fail as if the disk did
  /// (WalWriter::set_testing_fail_appends). No-op when WAL is off.
  void set_wal_testing_fail_appends(int n);

  /// @}

  /// Sub-window boundaries this engine has driven (Tick() calls). Stamped
  /// on exported snapshots; the aggregator's staleness accounting compares
  /// these across agents ticking at a common cadence.
  int64_t TickEpochs() const {
    return tick_epochs_.load(std::memory_order_relaxed);
  }

  /// Elements accepted (flushed to shards) for \p key; 0 when unregistered.
  int64_t TotalRecorded(const MetricKey& key) const;

  /// The structured self-portrait: counters, per-stage latency aggregates
  /// (p50/p99 read back from the dogfooded `__qlove/` sketches), the
  /// slow-query log, and per-metric memory footprints. Cold-path (takes
  /// shard locks for footprints); render with FormatEngineStats /
  /// EngineStatsToJson. With introspection off, counters/stages are empty
  /// but footprints still report.
  EngineStats Stats() const;

  /// Installs the slow-query callback (see
  /// EngineOptions::slow_query_threshold_us); called synchronously from
  /// the querying thread. No-op when introspection is off.
  void SetSlowQueryHook(std::function<void(const SlowQueryRecord&)> hook);

  /// User metrics only; the `__qlove/` self-metrics live in a registry of
  /// their own and never inflate this (or wildcard selectors).
  size_t metric_count() const { return registry_.size(); }
  const EngineOptions& options() const { return options_; }

 private:
  friend class AggregatorEngine;  // records its stages into its self engine

  Result<std::shared_ptr<MetricState>> GetOrRegister(const MetricKey& key);
  /// The backend a new registration actually gets: \p requested, stepped
  /// down the exact -> qlove -> gk chain when the key's family crossed
  /// degrade_cardinality_threshold or the engine is over memory budget.
  BackendOptions EffectiveBackend(const MetricKey& key,
                                  const BackendOptions& requested) const;
  /// Tick-time policy pass over the user registry: idle eviction, budget
  /// eviction, pressure degrades; refreshes memory_estimate_.
  void MaintainAfterTick(
      const std::vector<std::shared_ptr<MetricState>>& states);
  /// Retires one metric: final event accounting, registry tombstone.
  bool EvictState(const std::shared_ptr<MetricState>& state);
  Status FlushBuffer(const MetricKey& key, ThreadBuffer* buffer);
  void FlushToShards(MetricState* state, const double* values, size_t count);
  /// Key lookup across both registries (reserved names resolve in the
  /// internal one).
  std::shared_ptr<MetricState> FindState(const MetricKey& key) const;
  /// The uninstrumented query path; Query() wraps it with timing and the
  /// slow-query capture.
  Result<QueryResult> QueryImpl(const QuerySpec& spec) const;
  /// What EncodeExport wrote: the header's kind and metric count, and
  /// where the body after the header starts.
  struct FrameShape {
    bool delta = false;
    size_t metrics = 0;
    size_t body_offset = 0;
  };
  /// The unmetered encode behind Export (and the WAL): streams every
  /// ticked metric, in canonical key order, through \p cursor
  /// (ExportCursor::Begin/Metric/End), each written straight from its
  /// export window under the metric's epoch lock
  /// (MetricState::VisitExportWindow; \p as_of_tick for the Tick's own
  /// encode).
  FrameShape EncodeExport(std::string_view source, ExportCursor* cursor,
                          std::vector<uint8_t>* out,
                          const ExportOptions& export_options,
                          bool as_of_tick = false) const;
  /// Ships the kept Tick frame through \p cursor into \p out when the
  /// cursor holds the state it was diffed against; false (nothing
  /// written) otherwise. O(1) plus the copy of the body.
  bool ShipTickFrame(std::string_view source, ExportCursor* cursor,
                     std::vector<uint8_t>* out) const;
  /// Drains the buffered stage-latency samples into the `__qlove/`
  /// sketches (called at Tick, before CloseSubWindows so the samples land
  /// in the closing sub-window).
  void PublishStageSamples();
  /// The per-Tick WAL append (no-op when WAL is off): decides checkpoint
  /// vs delta, rotates segments at checkpoints, and drives degraded-mode
  /// transitions; keeps a delta record as the Tick frame Export ships.
  /// Called at the end of Tick number \p tick (0 when another Tick was in
  /// progress as it began), after the epoch advanced; \p cmqs_flushes is
  /// cmqs_flushes_ as the Tick's boundary began.
  void AppendWalRecord(uint64_t tick, uint64_t cmqs_flushes);

  EngineOptions options_;
  Status options_status_;         // Validate() result, computed once
  MetricOptions metric_options_;  // derived from options_
  MetricRegistry registry_;
  const uint64_t engine_id_;  // keys this engine's thread-local buffers
  /// Engine-incarnation token stamped into every export (wire.h
  /// WireSnapshot::sync_token): lets the delta-sync receiver tell a
  /// restarted agent apart from a continued stream when Tick epochs
  /// collide numerically.
  const uint64_t sync_token_;
  std::atomic<int64_t> tick_epochs_{0};  // Tick() calls driven so far

  /// High-cardinality lifecycle gauges (always on — they are cheap relaxed
  /// counters and the budget policy needs them even with introspection
  /// switched off). Surfaced through Stats().
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> degrades_{0};
  std::atomic<int64_t> evicted_events_{0};
  /// Summed ApproxMemoryBytes over live user metrics as of the last Tick's
  /// maintenance pass; what EffectiveBackend compares against the budget.
  std::atomic<size_t> memory_estimate_{0};

  /// Durability state: the writer, the delta-sync cursor tracking what is
  /// on disk, and the encode scratch, all serialized by wal_mu_ (Tick
  /// appends, Stats reads counters, daemons flush from signal-exit paths).
  mutable std::mutex wal_mu_;
  std::unique_ptr<WalWriter> wal_;         // null = WAL off
  ExportCursor wal_cursor_;                // guarded by wal_mu_
  std::vector<uint8_t> wal_scratch_;       // guarded by wal_mu_
  int64_t wal_ticks_since_checkpoint_ = 0; // guarded by wal_mu_
  /// Sticky non-durable mode after an append failure; atomics so the
  /// health surfaces read them without the WAL lock.
  std::atomic<bool> wal_degraded_{false};
  std::atomic<int64_t> wal_recovered_epoch_{0};
  std::atomic<int64_t> wal_recovered_metrics_{0};

  /// One encode per Tick. Ticks begun and ended so far: an export that
  /// reads ended == begun before its encode and the same begun after it
  /// saw no boundary half done, so its cursor is stamped with that Tick.
  std::atomic<uint64_t> ticks_begun_{0};
  std::atomic<uint64_t> ticks_ended_{0};
  /// Flushes into kCmqs metrics: their open bucket is window content, so
  /// any flush after a Tick's boundary means the kept frame is stale.
  std::atomic<uint64_t> cmqs_flushes_{0};
  /// The last Tick's delta WAL record and what proves a cursor may ship
  /// it; guarded by tick_frame_mu_. Served only while `view` is still the
  /// newest Tick begun.
  struct TickFrame {
    std::vector<uint8_t> bytes;  ///< The WAL record: "wal" header + body.
    size_t body_offset = 0;
    size_t metrics = 0;
    int64_t epoch = 0;
    int64_t base_epoch = 0;
    uint64_t view = 0;       ///< The Tick that encoded it (0: none).
    uint64_t base_view = 0;  ///< The Tick whose state it was diffed against.
    uint64_t registry_generation = 0;
    uint64_t cmqs_flushes = 0;
    /// The tracking state the encode left behind.
    std::shared_ptr<const ExportCursor::SentMap> sent;
  };
  mutable std::mutex tick_frame_mu_;
  TickFrame tick_frame_;  // guarded by tick_frame_mu_

  /// Self-metrics state. The `__qlove/` metrics live in their own
  /// registry, created with a null introspection sink (no recursion) and
  /// a single shard each (samples arrive from one publishing thread at a
  /// time, under publish_mu_). Null introspection_ means the layer is off
  /// (EngineOptions::introspection) and every hook site skips.
  std::unique_ptr<Introspection> introspection_;
  MetricRegistry internal_registry_;
  MetricOptions internal_metric_options_;
  std::mutex publish_mu_;             // serializes PublishStageSamples
  std::vector<double> stage_scratch_;  // guarded by publish_mu_
  /// Cached per-stage internal MetricStates (lazily registered on first
  /// publish); guarded by publish_mu_ for writes, read via FindState.
  std::array<std::shared_ptr<MetricState>, kStageCount> stage_states_;
};

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_ENGINE_H_
