// Copyright 2026 The QLOVE Reproduction Authors
// The engine's self-metrics layer (dogfooded introspection). A monitoring
// system that cannot observe itself is a black box exactly where it hurts
// — ring occupancy, writer stalls, drain/Tick/Query latencies, wire bytes.
// Production monitoring systems instrument themselves with the same cheap
// histograms they serve (circllhist does this; see PAPERS.md), and this
// layer follows suit:
//
//  - Counters/gauges are relaxed atomics bumped at FLUSH/DRAIN granularity,
//    never per event — the ingest hot path is a thread-local append and
//    must stay one, so instrumentation rides the batch boundaries that
//    already exist (the bench measures the total cost at 0.2-1% of
//    single-writer record_mops and gates it in CI).
//  - Stage latencies (ingest drain, batch quantization, Tick, Query, wire
//    encode/decode, aggregator ingest) are recorded as samples into
//    bounded per-stage buffers and published at each Tick into the
//    engine's OWN qlove sketches under the reserved `__qlove/` metric
//    namespace — so internal health is queryable through the existing
//    QuerySpec/QueryResult surface, ships over the existing wire format,
//    and rolls up across a fleet like any other metric.
//  - The internal metrics live in a registry of their own with the
//    introspection pointer nulled, so recording a stage sample can never
//    recurse into recording another (and user-facing surfaces —
//    metric_count, wildcard selectors, default exports — are
//    untouched by the self-metrics' existence).
//
// Off switch: EngineOptions::introspection / AggregatorOptions::
// introspection = false leaves the Introspection pointer null, so every
// hook site is one predictable null check (the bench gates the on-cost
// against a 2% budget of single-writer record_mops); Stats() and
// FleetHealth() then report enabled == false with empty stages.

#ifndef QLOVE_ENGINE_INTROSPECTION_H_
#define QLOVE_ENGINE_INTROSPECTION_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/metric_key.h"

namespace qlove {
namespace engine {

/// Metric names starting with this prefix are reserved for the engine's
/// self-metrics: Record/RecordBatch/RegisterMetric reject them
/// (InvalidArgument), Query serves them, and wildcard selectors never
/// match them.
inline constexpr std::string_view kReservedMetricPrefix = "__qlove/";

/// True when \p name lies in the reserved self-metrics namespace.
inline bool IsReservedMetricName(std::string_view name) {
  return name.size() >= kReservedMetricPrefix.size() &&
         name.compare(0, kReservedMetricPrefix.size(),
                      kReservedMetricPrefix) == 0;
}

/// \brief The instrumented pipeline stages. Each stage's latency samples
/// feed one `__qlove/stage_us{stage=<name>}` metric (microseconds).
enum class Stage {
  kIngestDrain = 0,      ///< Shard ring drain into the backend.
  kQuantizeBatch = 1,    ///< Batch quantization of one flushed buffer.
  kTick = 2,             ///< CloseSubWindows across every metric.
  kQuery = 3,            ///< One whole TelemetryEngine::Query call.
  kWireEncode = 4,       ///< One TelemetryEngine::Export call.
  kWireDecode = 5,       ///< DecodeFrame (full or delta) in IngestFrame.
  kAggregatorIngest = 6, ///< IngestFrame's ApplyFrame, full or delta.
};
inline constexpr int kStageCount = 7;

/// Lower-case stage name as used in the `stage` tag and in dumps.
const char* StageName(Stage stage);

/// The shared name of every stage-latency metric.
inline constexpr std::string_view kStageMetricName = "__qlove/stage_us";

/// The MetricKey of \p stage's latency metric:
/// `__qlove/stage_us{stage=<StageName>}`. Stable reference, built once.
const MetricKey& StageMetricKey(Stage stage);

/// \brief Point-in-time copy of every engine counter. All counts are
/// cumulative since engine construction and monotone non-decreasing
/// (except ring_highwater, a max-gauge, which is also non-decreasing).
struct CountersSnapshot {
  int64_t events_recorded = 0;   ///< Values flushed toward shard rings.
  int64_t flush_batches = 0;     ///< Buffer flushes / direct batches.
  int64_t drain_batches = 0;     ///< Ring drains that moved values.
  int64_t events_drained = 0;    ///< Values handed to backends by drains.
  int64_t values_rejected = 0;   ///< Drained values backends dropped
                                 ///< (corrupt telemetry: NaN/Inf).
  int64_t ring_full_stalls = 0;  ///< Publishes that found a ring full.
  int64_t high_water_drains = 0; ///< Volunteer try-lock drains taken.
  int64_t ring_highwater = 0;    ///< Max ring occupancy seen at a drain.
  int64_t ticks = 0;             ///< Tick() calls.
  int64_t queries = 0;           ///< Query() calls (user metrics only).
  int64_t slow_queries = 0;      ///< Queries over the slow threshold.
  int64_t exports = 0;           ///< Export calls (WAL records excluded).
  int64_t wire_bytes_encoded = 0;      ///< Bytes produced by Export (all
                                       ///< frames, WAL records excluded).
  int64_t delta_exports = 0;           ///< Delta frames produced by Export
                                       ///< (full-frame resyncs excluded).
  int64_t wire_bytes_delta = 0;        ///< Bytes of those delta frames (a
                                       ///< subset of wire_bytes_encoded).
  int64_t frames_reused = 0;           ///< Exports that shipped the last
                                       ///< Tick's WAL record body instead
                                       ///< of encoding (subset of
                                       ///< delta_exports).
  int64_t stage_samples_dropped = 0;   ///< Samples lost to a full stage
                                       ///< buffer (no Tick draining it).
};

/// \brief One stage's latency aggregate. samples/total/max come from the
/// lock-free aggregates (every sample, including ones not yet published);
/// p50/p99 are read back from the stage's own qlove sketch, so they cover
/// published samples only and are 0 until the first covering Tick.
struct StageStats {
  Stage stage = Stage::kIngestDrain;
  int64_t samples = 0;
  double total_us = 0.0;
  double max_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// \brief One slow query as captured by the slow-query log.
struct SlowQueryRecord {
  std::string spec;    ///< DescribeQuerySpec(spec) at capture time.
  double micros = 0.0; ///< Wall time of the whole Query call.
  int64_t matched = 0; ///< Metrics that served it (0 on error).
  bool ok = true;      ///< Whether the query itself succeeded.
};

/// \brief One metric's resource footprint (memory is an estimate: backend
/// space variables at 8 bytes each, ring slots at 16 bytes — value +
/// sequence word — per slot, and the retained export window).
struct MetricFootprint {
  MetricKey key;
  bool internal = false;  ///< Lives in the reserved `__qlove/` namespace.
  int num_shards = 0;
  int64_t space_variables = 0;  ///< Summed ObservedSpaceVariables (§5.1).
  int64_t ring_slots = 0;       ///< Summed ring capacities.
  int64_t export_window_bytes = 0;  ///< MetricState::ExportWindowBytes.
  /// space_variables * 8 + ring_slots * 16 + export_window_bytes.
  int64_t memory_bytes = 0;
  int64_t inflight = 0;         ///< Live backlog awaiting the next Tick.
  int64_t total_added = 0;      ///< Accepted since registration.
};

/// \brief TelemetryEngine::Stats(): the whole structured self-portrait.
struct EngineStats {
  bool enabled = false;  ///< False when switched off in EngineOptions.
  int64_t tick_epochs = 0;
  size_t metric_count = 0;           ///< User metrics.
  size_t internal_metric_count = 0;  ///< `__qlove/` metrics.
  CountersSnapshot counters;
  std::vector<StageStats> stages;    ///< One entry per active stage.
  std::vector<SlowQueryRecord> slow_queries;  ///< Oldest first (bounded).
  std::vector<MetricFootprint> metrics;  ///< Canonical key order.
  int64_t total_memory_bytes = 0;        ///< Sum over metrics.
  // High-cardinality lifecycle gauges. Always populated (they read
  // engine-level atomics and the interner, not the counter hub), so they
  // stay meaningful with introspection disabled.
  int64_t evictions = 0;       ///< Metrics evicted (idle or budget).
  int64_t degrades = 0;        ///< Backend degradations (exact→qlove→gk).
  int64_t evicted_events = 0;  ///< Events owned by evicted/replaced metrics.
  size_t interned_strings = 0; ///< Distinct strings in the global interner.
  size_t interner_bytes = 0;   ///< Interner arena + table footprint.
  size_t registry_bytes = 0;   ///< Registry node/table footprint (both tiers).
  // Durability surface (engine/wal.h). Populated with or without
  // introspection — crash safety must stay observable when the counter
  // hub is switched off.
  bool wal_enabled = false;
  bool wal_degraded = false;        ///< Sticky non-durable mode (disk fault).
  int64_t wal_records = 0;          ///< Records appended (checkpoints incl.).
  int64_t wal_checkpoints = 0;      ///< Full-snapshot checkpoints appended.
  int64_t wal_append_failures = 0;  ///< Appends lost to I/O errors.
  int64_t wal_bytes = 0;            ///< Framing + payload bytes appended.
  int64_t wal_segments = 0;         ///< Segment files currently retained.
  int64_t wal_fsyncs = 0;           ///< fdatasync calls issued.
  int64_t wal_recovered_epoch = 0;  ///< Epoch RecoverFromWal restored
                                    ///< (0 = no or empty recovery).
  int64_t wal_recovered_metrics = 0;  ///< Metrics RecoverFromWal restored.
};

/// Human-readable multi-line dump of \p stats (dashboard / exit blocks).
std::string FormatEngineStats(const EngineStats& stats);

/// JSON object rendering of \p stats (one line per call site's choice;
/// strings are escaped). Hand-rolled — no JSON library dependency.
std::string EngineStatsToJson(const EngineStats& stats);

/// \brief The counter/timer hub one TelemetryEngine owns (and shares with
/// its user-metric shards). All On* hooks and RecordStage are thread-safe
/// and allocation-free after construction: counters are relaxed atomics,
/// stage sample buffers are preallocated to kStageSampleCapacity and drop
/// (counted) beyond it. Stage samples sit in their buffer until the engine
/// publishes them into the `__qlove/` sketches at the next Tick — that
/// indirection is what makes RecordStage safe to call from anywhere,
/// including under a shard mutex mid-flush: it never re-enters the engine.
class Introspection {
 public:
  /// Samples buffered per stage between Ticks. Preallocated so RecordStage
  /// never allocates; overflow drops the sample and counts it.
  static constexpr size_t kStageSampleCapacity = 4096;

  explicit Introspection(size_t slow_query_capacity = 32);

  Introspection(const Introspection&) = delete;
  Introspection& operator=(const Introspection&) = delete;

  /// \name Counter hooks (relaxed atomics; see CountersSnapshot).
  /// @{
  void OnFlush(int64_t values) {
    events_recorded_.fetch_add(values, std::memory_order_relaxed);
    flush_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnDrain(int64_t drained, int64_t accepted, int64_t pending_before);
  void OnRingFullStall() {
    ring_full_stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnHighWaterDrain() {
    high_water_drains_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnTick() { ticks_.fetch_add(1, std::memory_order_relaxed); }
  void OnQuery() { queries_.fetch_add(1, std::memory_order_relaxed); }
  void OnExport() { exports_.fetch_add(1, std::memory_order_relaxed); }
  void OnWireBytes(int64_t bytes) {
    wire_bytes_encoded_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void OnDeltaExport(int64_t bytes) {
    delta_exports_.fetch_add(1, std::memory_order_relaxed);
    wire_bytes_delta_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void OnFrameReused() {
    frames_reused_.fetch_add(1, std::memory_order_relaxed);
  }
  /// @}

  /// Records one \p stage latency sample (microseconds): updates the
  /// lock-free aggregates and appends to the stage's bounded buffer for
  /// the next Tick's publication into `__qlove/stage_us{stage=...}`.
  void RecordStage(Stage stage, double micros);

  /// Moves the buffered samples of \p stage into \p scratch (cleared
  /// first; capacity reused both ways, so steady-state publication is
  /// allocation-free). Called by the engine at Tick.
  void DrainStageSamples(Stage stage, std::vector<double>* scratch);

  /// Point-in-time copy of every counter.
  CountersSnapshot Counters() const;

  /// Appends one StageStats per stage that has recorded at least one
  /// sample (aggregate fields only; the engine fills p50/p99 from the
  /// dogfooded sketches).
  void StageAggregates(std::vector<StageStats>* out) const;

  /// Appends \p record to the bounded slow-query log (oldest evicted) and
  /// invokes the hook, if set, outside the log lock.
  void RecordSlowQuery(SlowQueryRecord record);

  /// Installs \p hook, called synchronously from the recording thread for
  /// every slow query (after the log append). Pass nullptr to clear.
  void SetSlowQueryHook(std::function<void(const SlowQueryRecord&)> hook);

  /// The retained slow queries, oldest first.
  std::vector<SlowQueryRecord> SlowQueries() const;

 private:
  struct StageSlot {
    std::atomic<int64_t> samples{0};
    std::atomic<double> total_us{0.0};
    std::atomic<double> max_us{0.0};
    std::mutex mu;                // guards pending only
    std::vector<double> pending;  // bounded by kStageSampleCapacity
  };

  std::array<StageSlot, kStageCount> stages_;

  std::atomic<int64_t> events_recorded_{0};
  std::atomic<int64_t> flush_batches_{0};
  std::atomic<int64_t> drain_batches_{0};
  std::atomic<int64_t> events_drained_{0};
  std::atomic<int64_t> values_rejected_{0};
  std::atomic<int64_t> ring_full_stalls_{0};
  std::atomic<int64_t> high_water_drains_{0};
  std::atomic<int64_t> ring_highwater_{0};
  std::atomic<int64_t> ticks_{0};
  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> slow_queries_{0};
  std::atomic<int64_t> exports_{0};
  std::atomic<int64_t> wire_bytes_encoded_{0};
  std::atomic<int64_t> delta_exports_{0};
  std::atomic<int64_t> wire_bytes_delta_{0};
  std::atomic<int64_t> frames_reused_{0};
  std::atomic<int64_t> stage_samples_dropped_{0};

  mutable std::mutex slow_mu_;
  size_t slow_capacity_;
  size_t slow_next_ = 0;                  // ring cursor into slow_log_
  std::vector<SlowQueryRecord> slow_log_; // bounded ring
  std::function<void(const SlowQueryRecord&)> slow_hook_;
};

/// Times a region into \p introspection when non-null; free when null.
/// Usage: { ScopedStageTimer t(in, Stage::kTick); ...work; }
class ScopedStageTimer {
 public:
  ScopedStageTimer(Introspection* introspection, Stage stage)
      : introspection_(introspection), stage_(stage) {
    if (introspection_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedStageTimer() {
    if (introspection_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      introspection_->RecordStage(
          stage_,
          std::chrono::duration<double, std::micro>(elapsed).count());
    }
  }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  Introspection* introspection_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_INTROSPECTION_H_
