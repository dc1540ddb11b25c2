// Copyright 2026 The QLOVE Reproduction Authors
// The central tier of the distributed deployment: per-host agents run a
// TelemetryEngine each, export a wire frame every Tick (engine/wire.h),
// and an AggregatorEngine pools the decoded summaries to serve fleet-wide
// queries — the merge-centrally topology the paper's mergeable summaries
// were built for. The aggregator holds exactly one snapshot per source
// (each frame replaces or patches the source's previous state, so its
// memory is bounded by fleet size x per-agent summary size, not by time)
// and serves the full PR-3 query surface (arbitrary-phi quantiles,
// rank/CDF, counts, tag-selector rollups) through the same WindowView
// evaluator the local engine uses, so fleet answers cannot drift from
// single-process answers.
//
// Epoch alignment and staleness: agents tick on a common cadence and stamp
// exports with their Tick epoch. The fleet epoch is the maximum epoch seen
// across sources and advances as they report; each ingest also records the
// fleet epoch it observed, and a source is stale when the fleet has moved
// more than AggregatorOptions::staleness_epochs past its *last ingest* —
// freshness is about whether a host keeps reporting, not about its
// absolute Tick count, so a host that restarts (epoch counter back to 1)
// or joins the fleet late serves normally as long as its frames keep
// arriving. Stale sources are excluded from serving (their window no
// longer overlaps the fleet's) but still *accounted*: queries that lost
// matching sources report sources_stale, stamp quantile/rank outcomes with
// OutcomeSource::kPartialFleet, and widen rank_error_bound by the excluded
// sources' last-known population share — serving a sub-fleet missing
// fraction s of the population can shift any rank by at most s.

#ifndef QLOVE_ENGINE_AGGREGATOR_H_
#define QLOVE_ENGINE_AGGREGATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/introspection.h"
#include "engine/query.h"
#include "engine/wal.h"
#include "engine/wire.h"

namespace qlove {
namespace engine {

/// \brief Aggregator-tier configuration.
struct AggregatorOptions {
  /// How many fleet epochs may pass after a source's last ingest before
  /// its snapshot stops serving queries. With agents ticking every second
  /// and exporting every Tick, 2 tolerates one delayed/reordered export
  /// before a host is treated as partitioned. The same budget bounds the
  /// reorder window on ingest: an epoch regression within it is a
  /// reordered frame (rejected), beyond it an agent restart (accepted).
  ///
  /// Trust model: the fleet epoch is the max over sources, so agents are
  /// trusted about their own clocks — decode rejects negative epochs (the
  /// arithmetic here stays overflow-free), and staleness is measured
  /// against each source's ingest time rather than its absolute epoch, so
  /// a restarted or late-joining host that keeps reporting serves
  /// normally. An agent reporting an absurdly large epoch still ratchets
  /// the fleet epoch, which marks sources stale until they next report
  /// (one ingest each heals them). Agents and aggregators deploy in
  /// lockstep (see engine/wire.h versioning); a byzantine agent is out of
  /// scope at this layer.
  int64_t staleness_epochs = 2;

  /// Runtime switch for the aggregator's own stage timing (wire decode,
  /// ingest): recorded into a private single-shard TelemetryEngine's
  /// `__qlove/` sketches — the aggregator dogfoods the same machinery it
  /// aggregates. Plain counters (ingests, rejects, bytes) are kept either
  /// way.
  bool introspection = true;
};

/// \brief Pools remote agents' summaries and serves fleet-wide queries.
///
/// Thread-safe: IngestFrame, Export and Query may be called concurrently
/// (one mutex — the aggregator is read-mostly between Ticks, and ingest
/// patches or swaps one source's held list in place, so a finer scheme
/// has nothing to win yet).
class AggregatorEngine {
 public:
  explicit AggregatorEngine(AggregatorOptions options = {});

  /// \brief The receiver's verdict on one frame, for the sender's
  /// delta-sync loop (engine.h ExportCursor).
  struct IngestAck {
    /// The frame's state was applied (full frame accepted, or delta
    /// applied cleanly).
    bool applied = false;
    /// The frame was a delta this aggregator cannot apply (unknown
    /// source, base-epoch mismatch, incompatible held state): nothing
    /// changed, and the sender must RequestResync() and send a full
    /// frame. This is the NAK of the protocol, not an error — deltas
    /// against lost state are an expected, recoverable condition.
    bool resync_required = false;
    /// The source's held epoch after this call (what the next delta
    /// should declare as its base), or -1 when the source is unknown.
    int64_t acked_epoch = -1;
  };

  /// Decodes and applies one frame and reports the sync verdict — the
  /// aggregator's only ingest call. Live ingest, WAL replay and the
  /// agent's TelemetryEngine::RecoverFromWal all come through here.
  ///
  /// Every frame is rejected InvalidArgument when the bytes do not
  /// decode, when a kFull metric's self-described options cannot serve
  /// (defense against corrupt or hostile wire data: the summaries would
  /// poison every fleet query they pool into), or when metrics violate the
  /// wire contract's strictly-ascending canonical key order (a repeated
  /// key would double-count). Its metric list is authoritative: a held key
  /// it omits is dropped (FleetHealthSnapshot::metrics_retired).
  ///
  /// A full frame is a delta whose every metric rides kFull against no
  /// base: it creates an unknown source, replaces the source's state
  /// wholesale and acks applied. It is rejected FailedPrecondition when
  /// its epoch regresses by no more than staleness_epochs (a reordered
  /// export must not roll a source's state backwards; re-ingesting the
  /// same epoch is idempotent and allowed). A larger regression is an
  /// agent restart — the engine's Tick counter began again at 1 — and
  /// replaces the source's state normally.
  ///
  /// A delta frame applies atomically against the source's held state —
  /// on any disagreement (unknown source, base epoch or sync token
  /// mismatch, a patch the held summary cannot take) the held state is
  /// untouched and the ack says resync_required (an OK Result: NAKs are
  /// protocol flow, not failures).
  Result<IngestAck> IngestFrame(const uint8_t* data, size_t size);
  Result<IngestAck> IngestFrame(const std::vector<uint8_t>& buffer);

  /// The held (pooled) state for \p source — the delta protocol's ground
  /// truth, exposed so tests can assert that a delta stream converged to
  /// exactly the full-frame-replay state. NotFound for unknown sources.
  Result<WireSnapshot> SourceSnapshot(const std::string& source) const;

  /// \name Re-export: the hierarchical aggregation tree
  ///
  /// An aggregator's pooled fleet state serialized back through the same
  /// wire format and the same cursor protocol its agents use, so an
  /// aggregator is itself an agent to its parent — host-tier aggregators
  /// feed rack-tier ones feed a cluster tier, and every tier serves the
  /// same query surface over the same summaries. Semantics: metrics from
  /// every FRESH source, merged by key — the same key reported by several
  /// sources re-exports as one WireMetricSummary whose summary list is the
  /// concatenation of the sources' summaries (options taken from the first
  /// source in name order). That is exactly the multiset Query() pools, so
  /// a parent ingesting the re-export answers bit-identically to this
  /// aggregator. A same-key source whose self-described options disagree
  /// with the first reporter's (SameServingConfiguration, engine/query.h:
  /// the predicate Query's native-pool decision uses) is dropped from the
  /// re-export and counted (FleetHealthSnapshot::reexport_dropped) —
  /// per-metric options are singular on the wire, so one key cannot carry
  /// two configurations.
  ///
  /// Frames are stamped with the fleet epoch and this aggregator's own
  /// sync token. ExportOptions::include_self_metrics gates whether
  /// `__qlove/` metrics held from the children ride along (fleet-health
  /// rollup across tiers). Re-exports ship the per-source summaries
  /// as received: cross-source sub-window epochs are only nominally
  /// aligned (an agent restart resets them), so folding them into one
  /// summary would risk merging different wall-clock windows.
  /// @{

  /// Encodes the pooled fleet state named \p source into \p out (buffer
  /// reused) through \p cursor, exactly as TelemetryEngine::Export does
  /// for an agent: a full frame on the cursor's first export or after
  /// RequestResync(), otherwise a DELTA frame that patches, per key held
  /// from a single source as one qlove summary, only the sub-windows the
  /// parent has not acked. Keys pooled from several sources and non-qlove
  /// metrics ride kFull inside the delta. So does a key whose held
  /// summary was REPLACED rather than patched since the cursor last
  /// shipped it — a full frame from its source (the source restarted, its
  /// sync token changed, or it resynced), a kFull inside a child's delta,
  /// or a different source now reporting the key — because sub-window
  /// epochs alone cannot prove the parent's copy continues it. A source
  /// going stale drops its keys from the export, which forces a full frame
  /// (the parent must retire them). Re-export calls and bytes, split into
  /// full and delta, are counted into FleetHealth.
  ///
  /// Cost: under mu_, one merge walk over the fresh sources' key-ordered
  /// held lists pools pointers to the held summaries, and the frame is
  /// written straight from them through \p cursor — no summary is copied.
  /// The mutex is held for that walk plus the encode of what the frame
  /// carries (mostly the new sub-windows of a delta).
  Status Export(std::string source, ExportCursor* cursor,
                std::vector<uint8_t>* out,
                const ExportOptions& export_options = {}) const;

  /// @}

  /// \name Crash durability (engine/wal.h)
  ///
  /// With a WAL enabled, every frame IngestFrame APPLIES is appended
  /// verbatim (records are the raw wire bytes), and segment rotation
  /// writes one full-snapshot checkpoint per held source BEFORE the
  /// triggering frame is applied — so a replayed segment opens with
  /// exactly the held state that frame's delta was built against and
  /// applies without a NAK. A restarted aggregator calls RecoverFromWal
  /// on a fresh engine to rebuild its per-source held state; agents whose
  /// sync tokens survive then resume delta streams directly, and any that
  /// do not self-heal through the normal resync NAK.
  ///
  /// Disk faults degrade, never crash: a failed append flips the sticky
  /// non-durable mode (surfaced in FleetHealth()) and the next successful
  /// checkpoint rotation heals it.
  /// @{

  /// What RecoverFromWal reconstructed.
  struct WalRecoveryInfo {
    int64_t fleet_epoch = 0;  ///< Fleet epoch after replay.
    int64_t sources = 0;      ///< Sources with restored held state.
    WalReplayStats replay;
  };

  /// Starts write-ahead logging into \p dir (created when missing).
  /// FailedPrecondition when already enabled. Call AFTER RecoverFromWal
  /// when resuming.
  Status EnableWal(const std::string& dir, const WalOptions& wal_options = {});

  /// Replays \p dir through the normal IngestFrame machinery and rebuilds
  /// the per-source held state. Requires a fresh aggregator (no held
  /// sources, WAL not yet enabled). Missing/empty directories recover
  /// nothing and return OK.
  Result<WalRecoveryInfo> RecoverFromWal(const std::string& dir);

  /// fdatasyncs the open WAL segment (the SIGTERM drain path).
  /// FailedPrecondition when no WAL is enabled.
  Status FlushWal();

  bool wal_enabled() const;

  /// True while in non-durable degraded mode (append failed, not yet
  /// healed by a checkpoint rotation).
  bool wal_degraded() const {
    return wal_degraded_.load(std::memory_order_relaxed);
  }

  /// @}

  /// \name Transport liveness (fed by net/server.h)
  ///
  /// Ingest recency tells a stale source from a fresh one, but cannot
  /// tell a DEAD agent (transport gone) from a QUIET one (connected,
  /// nothing to report yet): both stop ingesting. The serving transport
  /// reports connection lifecycle here so FleetHealth() can make that
  /// distinction — SourceStatus::connected plus the last-seen wall epoch.
  /// @{

  /// Marks \p source connected (an authenticated transport session is
  /// open). Safe for sources that have not ingested yet.
  void NoteSourceConnected(const std::string& source);

  /// Marks \p source disconnected, stamping the wall epoch so a dead
  /// agent's last sighting survives in FleetHealth().
  void NoteSourceDisconnected(const std::string& source);

  /// \brief Transport-layer counters as reported by the serving socket
  /// layer (net/server.h): connection lifecycle, frame/byte flow, and
  /// backpressure stalls.
  struct TransportCounters {
    int64_t accepts = 0;          ///< Connections accepted.
    int64_t auth_failures = 0;    ///< Hellos rejected (bad/missing token).
    int64_t disconnects = 0;      ///< Connections closed (any reason).
    int64_t active_connections = 0;
    int64_t frames_in = 0;        ///< Data frames received.
    int64_t frames_out = 0;       ///< Ack/control frames sent.
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
    int64_t backpressure_stalls = 0;  ///< Reads paused on a full outbound
                                      ///< queue.
  };

  /// Installs (or clears, with nullptr) the provider FleetHealth() polls
  /// for transport counters. The serving transport installs itself on
  /// Start() and MUST clear on Stop() — the provider is called with no
  /// aggregator locks held.
  void SetTransportStatsProvider(std::function<TransportCounters()> provider);

  /// @}

  /// Evaluates \p spec against the pooled fleet state: the same target
  /// resolution, request surface and pool rule (EvaluatePool,
  /// engine/query.h) as TelemetryEngine::Query, with keys matched across
  /// every fresh source (two agents reporting the same MetricKey pool into
  /// one answer; per-host keys roll up via selectors). NotFound when no
  /// fresh source carries a matching metric, or a listed key; see
  /// QueryResult::sources_fresh / sources_stale for partial-fleet
  /// accounting.
  Result<QueryResult> Query(const QuerySpec& spec) const;

  /// \brief One source's liveness as of its last applied frame.
  struct SourceStatus {
    std::string source;
    int64_t epoch = 0;        ///< Epoch of the last applied frame.
    bool stale = false;       ///< Trails the fleet epoch beyond the budget.
    /// Fleet epochs elapsed since this source last reported (0 = reported
    /// at the current fleet epoch; stale once beyond staleness_epochs).
    int64_t epochs_behind = 0;
    size_t metric_count = 0;  ///< Metrics in the held snapshot.
    int64_t full_frames = 0;  ///< Full snapshots applied for this source.
    int64_t delta_frames = 0; ///< Delta frames applied for this source.
    /// Transport liveness (NoteSourceConnected/Disconnected). With no
    /// transport attached (in-process ingest), connects stays 0 and
    /// connected false — read connects before trusting connected.
    bool connected = false;
    int64_t connects = 0;     ///< Transport sessions opened for this source.
    /// Wall epoch (unix seconds) of the last sign of life: successful
    /// ingest or transport connect, whichever came later. 0 = never seen.
    /// `connected == false` with an old last_seen_unix_s is a DEAD agent;
    /// `connected == true` with no recent ingest is a QUIET one.
    int64_t last_seen_unix_s = 0;
  };

  /// \brief AggregatorEngine::FleetHealth(): the aggregator-tier
  /// self-portrait — ingest/reject counters, per-source staleness, and
  /// (when introspection is on) decode/ingest latency aggregates from the
  /// dogfooded sketches.
  struct FleetHealthSnapshot {
    int64_t fleet_epoch = 0;
    int64_t sources_fresh = 0;
    int64_t sources_stale = 0;
    int64_t ingests = 0;             ///< Frames applied (full + delta).
    int64_t rejected_reordered = 0;  ///< FailedPrecondition (stale frame).
    int64_t rejected_invalid = 0;    ///< InvalidArgument (bad wire data).
    int64_t decode_failures = 0;     ///< IngestFrame decode errors.
    int64_t wire_bytes_ingested = 0; ///< Encoded bytes seen by IngestFrame.
    int64_t queries = 0;             ///< Query() calls.
    int64_t delta_ingests = 0;       ///< Delta frames applied.
    int64_t resyncs_requested = 0;   ///< Delta NAKs (resync_required acks).
    int64_t wire_bytes_delta_ingested = 0;  ///< Bytes of applied deltas.
    int64_t reexports = 0;           ///< Export calls (full + delta).
    int64_t wire_bytes_reexported = 0;  ///< Encoded re-export bytes.
    int64_t delta_reexports = 0;     ///< Re-exports encoded as deltas.
    int64_t wire_bytes_delta_reexported = 0;  ///< Bytes of delta re-exports.
    int64_t reexport_dropped = 0;    ///< Same-key summaries dropped from
                                     ///< re-exports over disagreeing
                                     ///< self-described options.
    int64_t metrics_retired = 0;     ///< Held keys a later frame no
                                     ///< longer carried (source evicted or
                                     ///< degraded the metric away).
    size_t interned_strings = 0;     ///< Process-wide interner population
                                     ///< (tag names/values + metric names).
    /// Durability surface (aggregator-side WAL; engine/wal.h).
    bool wal_enabled = false;
    bool wal_degraded = false;        ///< Sticky non-durable mode.
    int64_t wal_records = 0;          ///< Records appended.
    int64_t wal_checkpoints = 0;      ///< Per-source checkpoints appended.
    int64_t wal_append_failures = 0;  ///< Appends lost to I/O errors.
    int64_t wal_bytes = 0;            ///< Bytes appended (framing incl.).
    int64_t wal_segments = 0;         ///< Segment files currently retained.
    int64_t wal_fsyncs = 0;           ///< fdatasync calls issued.
    int64_t wal_recovered_epoch = 0;  ///< Fleet epoch RecoverFromWal rebuilt.
    int64_t wal_recovered_sources = 0;  ///< Sources RecoverFromWal rebuilt.
    /// Transport counters (net/server.h), polled from the installed
    /// provider; all-zero with has_transport false when none is attached.
    bool has_transport = false;
    TransportCounters transport;
    std::vector<SourceStatus> sources;  ///< Name-ordered, like Sources().
    /// wire_decode / aggregator_ingest latency aggregates (empty with
    /// introspection off or before any sample).
    std::vector<StageStats> stages;
  };

  /// Snapshot of the aggregator's own health. Cold-path: with
  /// introspection on it Ticks the private self-metrics engine so every
  /// buffered latency sample is covered by the reported p50/p99.
  FleetHealthSnapshot FleetHealth() const;

  /// Every known source, ordered by name (stable diagnostics output).
  std::vector<SourceStatus> Sources() const;

  /// The maximum Tick epoch ingested across all sources (0 before any
  /// ingest); the reference point for staleness.
  int64_t FleetEpoch() const;

  size_t source_count() const;
  const AggregatorOptions& options() const { return options_; }

 private:
  /// One source's held state: its latest snapshot plus the fleet epoch
  /// observed when it arrived (the reference point for staleness, which
  /// is therefore about reporting recency, not absolute Tick counts).
  struct SourceState {
    WireSnapshot snapshot;
    /// Parallel to snapshot.metrics: the stamp of the kFull metric (of a
    /// full frame or a delta) that established each held summary
    /// (kQloveDelta patches keep it). Export hands these to
    /// ExportCursor::Metric, so a summary that was replaced since it was
    /// last re-exported rides kFull.
    std::vector<uint64_t> lineage;
    int64_t fleet_epoch_at_ingest = 0;
    int64_t full_frames = 0;   ///< Full snapshots applied.
    int64_t delta_frames = 0;  ///< Delta frames applied.
    int64_t last_ingest_unix_s = 0;  ///< Wall epoch of the last ingest.
  };

  /// One source's transport session state (NoteSourceConnected /
  /// NoteSourceDisconnected). Kept separate from SourceState: a source
  /// can connect before its first frame and can hold state after its
  /// transport died — exactly the two situations the split must surface.
  struct ConnectionState {
    bool connected = false;
    int64_t connects = 0;
    int64_t last_event_unix_s = 0;  ///< Wall epoch of the last (dis)connect.
  };

  bool IsStale(const SourceState& state, int64_t fleet_epoch) const {
    return fleet_epoch - state.fleet_epoch_at_ingest >
           options_.staleness_epochs;
  }

  /// Counts one accepted frame and, every few, Ticks the self-metrics
  /// engine so FleetHealth's latency sketches stay current.
  void CountAccepted();
  /// The decode-and-apply behind IngestFrame; the public wrapper adds
  /// the WAL hooks (checkpoint-before-apply, append-after-apply). Replay
  /// calls this directly — the WAL is not yet enabled during recovery, so
  /// replayed frames are never re-logged.
  Result<IngestAck> IngestFrameImpl(const uint8_t* data, size_t size);
  /// Rotates and writes the per-source checkpoint set when due (segment
  /// size, record cadence, or healing degraded mode). Called BEFORE an
  /// incoming frame is applied; see the durability section above.
  void MaybeCheckpointWal();
  /// Appends one applied frame's raw bytes as a non-checkpoint record.
  void AppendWalFrame(const uint8_t* data, size_t size);
  /// Applies one decoded frame, full or delta (see IngestFrame for the
  /// rules) — validate-then-swap, so a NAK or error leaves the held state
  /// untouched. OK acks carry the protocol verdict; error Statuses are
  /// reserved for malformed frame CONTENT (disordered keys, options that
  /// cannot serve) that no resync would fix differently, and for a
  /// reordered full frame.
  ///
  /// Queries wait on mu_, so only the held-state work runs under it:
  /// frame content is validated and the replacement lists are allocated
  /// before the lock; under it, one merge walk over the frame's and the
  /// held key lists (both canonical order) checks every NAK condition and
  /// counts the held keys the frame omits, then each kFull metric moves
  /// in under a fresh lineage stamp, each kQloveDelta summary moves over
  /// from the held list, drops its trimmed sub-windows and appends the new
  /// ones, and the lists are swapped. The retired list and the trimmed
  /// sub-windows are destroyed after the unlock.
  Result<IngestAck> ApplyFrame(WireFrame frame);
  /// The self-metrics engine's stage sink; null when introspection is off.
  Introspection* SelfIntrospection() const;

  AggregatorOptions options_;
  /// Incarnation token stamped on re-exports (wire.h GenerateSyncToken):
  /// a parent aggregator's delta/restart logic treats this aggregator
  /// exactly as it would an agent.
  const uint64_t sync_token_;
  mutable std::mutex mu_;
  /// Latest state per source. std::map: Sources() iterates name-sorted.
  std::map<std::string, SourceState> sources_;
  /// Transport sessions per source, merged into Sources() by name.
  std::map<std::string, ConnectionState> connections_;
  int64_t fleet_epoch_ = 0;
  /// Last lineage stamp handed out (SourceState::lineage); guarded by mu_.
  uint64_t last_lineage_ = 0;

  /// Transport stats provider (net/server.h); own lock so FleetHealth can
  /// poll it without holding mu_.
  mutable std::mutex transport_mu_;
  std::function<TransportCounters()> transport_provider_;

  /// Health counters: ingest-granularity relaxed atomics, live even with
  /// introspection off (they are the aggregator's liveness dashboard).
  std::atomic<int64_t> ingests_{0};
  std::atomic<int64_t> rejected_reordered_{0};
  std::atomic<int64_t> rejected_invalid_{0};
  std::atomic<int64_t> decode_failures_{0};
  std::atomic<int64_t> wire_bytes_ingested_{0};
  mutable std::atomic<int64_t> queries_{0};  ///< Bumped inside const Query.
  std::atomic<int64_t> delta_ingests_{0};
  std::atomic<int64_t> resyncs_requested_{0};
  std::atomic<int64_t> wire_bytes_delta_ingested_{0};
  mutable std::atomic<int64_t> reexports_{0};
  mutable std::atomic<int64_t> wire_bytes_reexported_{0};
  mutable std::atomic<int64_t> delta_reexports_{0};
  mutable std::atomic<int64_t> wire_bytes_delta_reexported_{0};
  mutable std::atomic<int64_t> reexport_dropped_{0};
  std::atomic<int64_t> metrics_retired_{0};

  /// Durability state (see the WAL section above); wal_mu_ serializes the
  /// writer and is always taken BEFORE mu_ (MaybeCheckpointWal encodes
  /// held state under both), never the other way around.
  mutable std::mutex wal_mu_;
  std::unique_ptr<WalWriter> wal_;          // null = WAL off
  int64_t wal_records_since_checkpoint_ = 0;  // guarded by wal_mu_
  std::atomic<bool> wal_degraded_{false};
  std::atomic<int64_t> wal_recovered_epoch_{0};
  std::atomic<int64_t> wal_recovered_sources_{0};

  /// The dogfooded self-metrics engine (single shard, introspection on):
  /// holds the `__qlove/stage_us{stage=wire_decode|aggregator_ingest}`
  /// sketches. Ticked every few accepted ingests and by FleetHealth().
  /// Null with introspection off.
  std::unique_ptr<TelemetryEngine> self_;
};

/// Human-readable multi-line dump of \p health (exit blocks, dashboards).
std::string FormatFleetHealth(
    const AggregatorEngine::FleetHealthSnapshot& health);

/// JSON object rendering of \p health (hand-rolled, strings escaped).
std::string FleetHealthToJson(
    const AggregatorEngine::FleetHealthSnapshot& health);

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_AGGREGATOR_H_
