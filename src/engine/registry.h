// Copyright 2026 The QLOVE Reproduction Authors
// The metric registry: maps MetricKeys to their sharded per-metric state.
// Built for high cardinality: the Record-path lookup (Find) is lock-free
// and allocation-free — an open-addressing table of atomically published
// immutable nodes, probed by the key's cached hash with integer-only
// comparisons. Writers (registration, eviction, degrade replacement)
// serialize on one mutex and publish with release stores; retired tables
// and tombstoned nodes are kept for the registry's lifetime (append-only
// metadata, surfaced via ApproxBytes) so readers never chase freed memory.

#ifndef QLOVE_ENGINE_REGISTRY_H_
#define QLOVE_ENGINE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"
#include "engine/metric_key.h"
#include "engine/shard.h"
#include "stream/window.h"

namespace qlove {
namespace engine {

class ResolvedWindow;  // engine/query.h: a query copy of the export window

/// \brief Per-metric configuration shared by every shard of the metric.
struct MetricOptions {
  /// Per-shard window spec: size/period in elements *per shard*. The
  /// metric-level window covers num_shards times as many elements.
  WindowSpec shard_window;
  /// The quantile grid every sub-window estimates, fixed for the metric's
  /// lifetime: Query answers these phis from the merged grid and any
  /// other phi by interpolating it.
  std::vector<double> phis;
  /// The sketch backend every shard of the metric runs. Different metrics
  /// in one engine may use different backends.
  BackendOptions backend;
};

/// \brief One metric's sharded state: S ring-fed ShardBackends.
class MetricState {
 public:
  /// Builds and initializes \p num_shards shards, each with a
  /// \p ring_capacity-slot ingest ring (engine/shard.h). \p introspection
  /// (optional, engine-owned, must outlive the state) is handed to every
  /// shard as its self-metrics sink.
  Status Initialize(MetricKey key, int num_shards,
                    const MetricOptions& options,
                    size_t ring_capacity = Shard::kDefaultRingCapacity,
                    Introspection* introspection = nullptr);

  const MetricKey& key() const { return key_; }
  const MetricOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }
  Shard& shard(size_t index) { return *shards_[index]; }
  const Shard& shard(size_t index) const { return *shards_[index]; }

  /// The quantizer the engine applies to each flushed buffer before
  /// dealing stripes to the shards (identical across shards); nullptr when
  /// the metric's backend ingests raw values.
  const Quantizer* pre_quantizer() const { return pre_quantizer_; }

  /// Advances the round-robin cursor; flushes start their shard rotation
  /// here so concurrent writers interleave across different shards.
  uint64_t NextShardCursor() {
    return next_shard_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Elements accepted across all shards since initialization.
  int64_t TotalAdded() const;

  /// Cheap (relaxed, lock-free) activity reading: accepted elements plus
  /// ring backlog across all shards. May tear across shards — good enough
  /// for the Tick-time idleness comparison, never for accounting.
  int64_t TotalAddedApprox() const;

  /// Finalizes the in-flight sub-window on every shard. Serialized against
  /// Resolved and VisitExportWindow (epoch lock), so queries and exports
  /// never see half a Tick. Also refreshes ApproxMemoryBytes from each
  /// shard's observed space and advances/resets the IdleWindows counter
  /// from TotalAddedApprox.
  void CloseSubWindows();

  /// Calls \p fn(window, live_inflight) with the metric's coalesced export
  /// window — one summary over every shard (plus the restore overlay), as
  /// CoalesceShardSummaries would fold the shards' summaries
  /// (engine/coalesce.h) — under the epoch lock, so an encode writes the
  /// window where it is kept instead of copying it (the Tick's WAL record,
  /// and each wire frame that cannot ship that record's bytes). \p fn must
  /// not call back into this state. The window is kept, not rebuilt per
  /// call: the first visit after a sub-window boundary brings it up to
  /// date once. A qlove window merges only the sub-windows closed since
  /// the last update and trims the ones that left every shard; an
  /// entry-kind window is not epoch-decomposable and is re-coalesced
  /// (kCmqs also whenever its shards accepted values since, because its
  /// open bucket exports inside `entries`). The window's own `inflight`
  /// field is unused. `live_inflight` is read live on every call (each
  /// shard drained, as Shard::SnapshotInto does) — unless \p as_of_tick,
  /// which reads the counts the last CloseSubWindows left behind and
  /// drains nothing: the Tick's own encode runs right after the boundary
  /// drained every ring. A qlove window's `burst_active` is the OR of its
  /// sub-windows' flags.
  template <typename Fn>
  void VisitExportWindow(Fn&& fn, bool as_of_tick = false) const {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    const int64_t live_inflight = RefreshExportWindowLocked(as_of_tick);
    fn(static_cast<const BackendSummary&>(export_window_), live_inflight);
  }

  /// Bytes the retained export window holds (SpaceVariables * 8; 0 until
  /// the first export). Part of ApproxMemoryBytes.
  size_t ExportWindowBytes() const {
    return window_bytes_.load(std::memory_order_relaxed);
  }

  /// The metric's query window: an immutable copy of the export window
  /// (VisitExportWindow), taken once per window update and shared by
  /// every query until the export window next changes — at a sub-window
  /// boundary, or, for kCmqs, once its shards accepted values since
  /// (its open bucket is window content). The agent thus pools exactly
  /// the summary its exports ship, so a host fed its frames answers bit
  /// for bit as it does. Callers keep the returned shared_ptr alive for
  /// the duration of an evaluation; a concurrent Tick or Export updates
  /// the export window without touching theirs.
  std::shared_ptr<const ResolvedWindow> Resolved() const;

  /// Live sum of every shard's in-flight (accepted, awaiting the next
  /// Tick) count. Deliberately NOT part of the ResolvedWindow:
  /// in-flight backlog grows between Ticks, and freezing it at cache
  /// build time would blind staleness dashboards; the engine re-reads
  /// this per query (S mutex acquisitions, no state copies).
  int64_t LiveInflightCount() const;

  /// Sub-window boundaries this metric has seen. 0 means the metric was
  /// registered after the engine's last Tick and no window state exists
  /// yet — Export skips such metrics instead of shipping phantom empty
  /// windows.
  int64_t TickEpochs() const {
    return tick_epochs_.load(std::memory_order_relaxed);
  }

  /// Estimated resident bytes of this metric: observed backend space
  /// variables (8B each) plus ring slots (16B each) across shards, plus the
  /// retained export window (ExportWindowBytes). Seeded at Initialize,
  /// refreshed at every CloseSubWindows and wherever the export window is
  /// updated — the currency the engine's memory budget spends.
  size_t ApproxMemoryBytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  /// Consecutive CloseSubWindows boundaries with no new accepted/pending
  /// elements. The engine's idle-eviction policy compares this against
  /// EngineOptions::idle_eviction_windows.
  int64_t IdleWindows() const {
    return idle_windows_.load(std::memory_order_relaxed);
  }

  /// The self-metrics sink the shards report into; null when introspection
  /// is off for the owning engine.
  Introspection* introspection() const { return introspection_; }

  /// \name WAL recovery (engine/wal.h)
  ///
  /// A restarted engine cannot rehydrate backend internals from a wire
  /// summary (Level-2 state is incrementally maintained), so recovery
  /// installs the replayed window as a restore OVERLAY: one extra
  /// coalesced summary folded into the export window, which queries and
  /// exports both serve (a qlove overlay's sub-windows seed the window and
  /// age out through its own epoch trim; an entry-kind overlay is
  /// coalesced in while it serves).
  /// The overlay decays on the same schedule the crashed window would
  /// have: each CloseSubWindows ages it one epoch (qlove sub-windows
  /// expire individually; entry-kind payloads drop wholesale after
  /// NumSubWindows boundaries), and once empty the metric is
  /// indistinguishable from one that never crashed. Shard backends are rebased to \p base_epoch so
  /// live sub-window epochs continue the recovered sequence.
  /// @{

  /// Installs \p summary (the coalesced recovered window) with the crashed
  /// incarnation's Tick epoch \p base_epoch. Call on a freshly initialized
  /// state only (before any Record/Tick). The summary's inflight count is
  /// zeroed: pre-crash in-flight values were never durable.
  void RestoreSummary(BackendSummary summary, int64_t base_epoch);

  /// True while a restore overlay is still serving (tests/diagnostics).
  bool HasRestoreOverlay() const {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    return overlay_active_;
  }

  /// @}

 private:
  MetricKey key_;
  MetricOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;  // Shard holds a mutex
  const Quantizer* pre_quantizer_ = nullptr;    // owned by shard 0's backend
  Introspection* introspection_ = nullptr;      // engine-owned sink
  std::atomic<uint64_t> next_shard_{0};
  std::atomic<int64_t> tick_epochs_{0};
  mutable std::atomic<size_t> memory_bytes_{0};  // export updates it too
  std::atomic<int64_t> last_activity_{0};  // TotalAddedApprox at last Tick
  std::atomic<int64_t> idle_windows_{0};
  mutable std::mutex epoch_mu_;  // Tick vs query/export consistency
  /// WAL restore overlay (see RestoreSummary); all guarded by epoch_mu_.
  bool overlay_active_ = false;
  BackendSummary overlay_;
  int64_t overlay_base_epoch_ = 0;  ///< Crashed incarnation's Tick epoch.
  int64_t overlay_closes_ = 0;      ///< Boundaries since the restore.
  /// Query copy of export_window_; guarded by epoch_mu_, dropped
  /// whenever export_window_ changes, rebuilt by Resolved().
  mutable std::shared_ptr<const ResolvedWindow> resolved_;

  /// Drains the shards' live counts (or, \p as_of_tick, takes
  /// closed_counts_), brings export_window_ up to date when it is stale,
  /// and returns the in-flight count (epoch_mu_ held).
  int64_t RefreshExportWindowLocked(bool as_of_tick = false) const;
  /// Brings export_window_ up to date at Tick epoch \p epoch (epoch_mu_
  /// held) and refreshes the memory accounting.
  void UpdateExportWindowLocked(int64_t epoch) const;
  /// Recomputes the derived qlove burst flag and the window's bytes after
  /// export_window_ changed (epoch_mu_ held).
  void NoteExportWindowLocked() const;

  /// The export window (see VisitExportWindow); guarded by epoch_mu_. Its
  /// `inflight` field is unused: every export reads it live.
  mutable BackendSummary export_window_;
  /// Tick epoch export_window_ was last brought up to date at; qlove
  /// sub-windows newer than it are not in the window yet.
  static constexpr int64_t kWindowNeverBuilt =
      std::numeric_limits<int64_t>::min();
  mutable int64_t window_epoch_ = kWindowNeverBuilt;
  /// kCmqs: the shards' summed accepted count the window covers.
  mutable int64_t window_accepted_ = 0;
  /// The shards' summed LiveCounts right after the last CloseSubWindows;
  /// guarded by epoch_mu_.
  Shard::LiveCounts closed_counts_;
  /// Shard-side bytes of the last boundary; memory_bytes_ adds the window.
  size_t shard_bytes_ = 0;
  mutable std::atomic<size_t> window_bytes_{0};
};

/// \brief Thread-safe MetricKey -> MetricState map with lock-free reads.
///
/// Find() probes an atomically published open-addressing table: one
/// acquire load of the table pointer, integer hash/key compares along the
/// probe chain, one weak_ptr::lock() — no mutex, no allocation. Writers
/// serialize on mu_; nodes are immutable once published (eviction and
/// degrade replacement publish a *new* node into the slot), and retired
/// tables/nodes live as long as the registry so a reader mid-probe never
/// touches freed memory. Strong ownership of every live state sits in the
/// name index (by_name_), which doubles as the MatchSelector index.
class MetricRegistry {
 public:
  MetricRegistry();

  /// Returns the existing state for \p key, or creates-and-initializes one
  /// with \p num_shards, \p options, and per-shard ingest rings of
  /// \p ring_capacity slots. Losing a registration race returns the
  /// winner's state. \p introspection is forwarded to MetricState /
  /// Shard::Initialize.
  Result<std::shared_ptr<MetricState>> GetOrCreate(
      const MetricKey& key, int num_shards, const MetricOptions& options,
      size_t ring_capacity = Shard::kDefaultRingCapacity,
      Introspection* introspection = nullptr);

  /// Returns the state for \p key, or nullptr when unregistered (or
  /// evicted). Lock-free and allocation-free — the Record hot path.
  std::shared_ptr<MetricState> Find(const MetricKey& key) const;

  /// All registered metrics, in unspecified order.
  std::vector<std::shared_ptr<MetricState>> List() const;

  /// Every registered metric \p selector matches, in unspecified order.
  /// Named selectors resolve through the name -> states index
  /// (O(keys sharing the name), not O(registry)); a wildcard name scans.
  std::vector<std::shared_ptr<MetricState>> MatchSelector(
      const TagSelector& selector) const;

  /// Live (non-evicted) metric count.
  size_t size() const { return live_count_.load(std::memory_order_relaxed); }

  /// Retires \p key: publishes a tombstone so Find/List/MatchSelector stop
  /// seeing it and drops the registry's strong reference (in-flight
  /// queries holding the shared_ptr keep the state alive until they
  /// finish). Returns false when the key is not live, or — when
  /// \p expected is non-null — when the live state is no longer
  /// \p expected (the key was concurrently re-registered or replaced, and
  /// the newcomer must not be collateral damage of a stale eviction
  /// decision). Re-registering the key later creates a fresh state in the
  /// same table slot.
  bool Evict(const MetricKey& key,
             const std::shared_ptr<MetricState>& expected = nullptr);

  /// Atomically swaps \p key's state for a fresh one built with
  /// \p options — the degrade path (e.g. exact -> qlove under memory
  /// pressure). The old state retires exactly like an eviction; readers
  /// see either the old state or the new one, never neither. Fails with
  /// NotFound when the key is not live.
  Result<std::shared_ptr<MetricState>> Replace(
      const MetricKey& key, int num_shards, const MetricOptions& options,
      size_t ring_capacity = Shard::kDefaultRingCapacity,
      Introspection* introspection = nullptr);

  /// Live metrics registered under the interned name id — the cardinality
  /// a family's auto-degrade threshold is checked against.
  size_t CountForName(uint32_t name_id) const;

  /// Bumped by every registration, eviction and degrade replacement: an
  /// unchanged generation proves the set of registered states unchanged.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Tombstones published so far (evictions + degrade replacements).
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Approximate bytes of registry metadata: live + retired tables, every
  /// node ever published, and the name index. Append-only by design
  /// (reader safety), so this only grows; it is the registry_bytes gauge.
  size_t ApproxBytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Immutable once published. A default-constructed (never-assigned)
  /// weak_ptr marks a tombstone.
  struct Node {
    size_t hash = 0;
    MetricKey key;
    std::weak_ptr<MetricState> state;
  };

  struct Table {
    size_t capacity = 0;
    size_t mask = 0;
    size_t used = 0;  // occupied slots incl. tombstones; writer-only
    std::unique_ptr<std::atomic<Node*>[]> slots;
  };

  static std::unique_ptr<Table> MakeTable(size_t capacity);

  /// Publishes \p node into \p table (writer lock held), growing into a
  /// fresh table first when the probe load would exceed ~70%.
  void InsertLocked(std::unique_ptr<Node> node);

  /// Probes the current table for \p key's slot (writer lock held).
  /// Returns the slot index or SIZE_MAX when absent.
  size_t FindSlotLocked(const MetricKey& key) const;

  /// Serializes all writers; also guards by_name_, graveyards, counters
  /// below it. Never taken by Find().
  mutable std::mutex mu_;

  std::atomic<Table*> table_{nullptr};

  /// Strong ownership + selector index: interned name id -> live states.
  std::unordered_map<uint32_t, std::vector<std::shared_ptr<MetricState>>>
      by_name_;

  /// Append-only graveyards: every node and table ever published stays
  /// alive so lock-free readers can never touch freed memory. ~100 bytes
  /// per metric lifecycle event, reported via ApproxBytes.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Table>> tables_;

  std::atomic<size_t> live_count_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<uint64_t> generation_{0};
  std::atomic<size_t> approx_bytes_{0};
};

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_REGISTRY_H_
