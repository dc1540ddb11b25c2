// Copyright 2026 The QLOVE Reproduction Authors
// One slice of a metric's stream. Each shard owns a private ShardBackend
// (the metric's configured sketch — QLOVE by default) fed a round-robin
// interleave of the metric's records, so N shards admit N concurrent
// writers while each backend stays single-threaded internally.
//
// Ingest is a bounded MPSC ring buffer: writers claim a slot range with one
// CAS on the head index and publish pre-quantized values lock-free, so
// steady-state Record/RecordBatch never contends with queries or with
// other writers beyond that CAS. The backend consumes the ring in dense
// runs under the shard mutex — once per Tick/query, plus opportunistic
// drains whenever a publish pushes the ring past its high-water mark (so
// the drain work spreads across the writer threads instead of serializing
// on the Tick driver). InflightCount and TotalAdded are atomic counters:
// dashboards poll them without touching the mutex.
//
// SnapshotInto() exports the backend's mergeable summary under the lock;
// cross-shard merging happens outside it, in the metric's export window
// (registry.h), which queries and exports both read.

#ifndef QLOVE_ENGINE_SHARD_H_
#define QLOVE_ENGINE_SHARD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"
#include "stream/window.h"

namespace qlove {
namespace engine {

class Introspection;

/// \brief Bounded multi-producer single-consumer ring of doubles.
///
/// Producers claim a contiguous slot range with one CAS on `head_` and
/// publish each slot with a release store of its sequence number; the
/// single consumer (the shard, holding its mutex) walks contiguous
/// published runs and hands them to the backend as dense spans. A producer
/// stalled between claim and publish only delays the values *behind* its
/// gap — the consumer stops at the first unpublished slot and picks the
/// rest up on the next drain, so drains never block on a writer.
class ShardRing {
 public:
  ShardRing() = default;
  ShardRing(const ShardRing&) = delete;
  ShardRing& operator=(const ShardRing&) = delete;

  /// (Re)allocates the ring with at least \p min_capacity slots (rounded
  /// up to a power of two). Not thread-safe; callers initialize before
  /// publishing.
  void Init(size_t min_capacity);

  /// Publishes values[offset], values[offset + stride], ... into the ring,
  /// stopping early when the ring is full. Returns how many stripe
  /// elements were published; the caller resumes at offset +
  /// published * stride after making room (draining). Safe from any
  /// thread.
  size_t TryPublishStrided(const double* values, size_t count, size_t offset,
                           size_t stride);

  /// Consumes every contiguous published value, invoking
  /// `sink(const double*, size_t)` on dense runs (runs never wrap the
  /// ring). Single consumer only — the owning shard calls this under its
  /// mutex. Returns the number of values consumed.
  template <typename Sink>
  int64_t Drain(Sink&& sink) {
    uint64_t t = tail_;
    const uint64_t h = head_.load(std::memory_order_acquire);
    int64_t drained = 0;
    while (t != h) {
      const size_t start = static_cast<size_t>(t) & mask_;
      const uint64_t max_run =
          std::min<uint64_t>(h - t, capacity_ - start);  // no wrap per run
      uint64_t run = 0;
      while (run < max_run &&
             seq_[start + run].load(std::memory_order_acquire) ==
                 t + run + 1) {
        ++run;
      }
      if (run == 0) break;  // gap: a claimed slot not yet published
      sink(&values_[start], static_cast<size_t>(run));
      t += run;
      drained += run;
      tail_ = t;
      // Free the consumed slots for producers only after the sink has read
      // them (release pairs with the producer's acquire of tail).
      tail_published_.store(t, std::memory_order_release);
    }
    if (drained > 0) pending_.fetch_sub(drained, std::memory_order_relaxed);
    return drained;
  }

  /// Published-but-not-drained values (live; may transiently include
  /// corrupt values the backend will drop at drain).
  int64_t pending() const { return pending_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }

  /// True once the ring holds at least half its capacity — the publish
  /// path's cue to volunteer a drain.
  bool AboveHighWater() const {
    return pending() >= static_cast<int64_t>(capacity_ / 2);
  }

 private:
  size_t capacity_ = 0;
  size_t mask_ = 0;
  std::unique_ptr<double[]> values_;
  /// seq_[p & mask] == p + 1 exactly when global position p is published;
  /// strictly increasing per slot (by capacity each lap), so stale laps
  /// can never alias.
  std::unique_ptr<std::atomic<uint64_t>[]> seq_;

  alignas(64) std::atomic<uint64_t> head_{0};            // producers claim
  alignas(64) std::atomic<uint64_t> tail_published_{0};  // consumer frees
  alignas(64) std::atomic<int64_t> pending_{0};
  uint64_t tail_ = 0;  // consumer cursor; only touched under the shard lock
};

/// \brief A ring-fed ShardBackend over one stripe of a metric.
class Shard {
 public:
  Shard() = default;
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Builds the configured backend, binds it to its per-shard window, and
  /// sizes the ingest ring (\p ring_capacity slots, rounded up to a power
  /// of two). \p introspection, when non-null, receives drain/stall
  /// telemetry (it must outlive the shard; the engine owns both).
  Status Initialize(const BackendOptions& backend, const WindowSpec& spec,
                    const std::vector<double>& phis,
                    size_t ring_capacity = kDefaultRingCapacity,
                    Introspection* introspection = nullptr);

  /// Accumulates a batch of raw values. Thread-safe. Applies the backend's
  /// PreQuantizer before publishing (callers that already batch-quantized
  /// should use PublishPreQuantizedStrided instead).
  void AddBatch(const double* values, size_t count) {
    AddBatchStrided(values, count, 0, 1);
  }

  /// Accumulates raw values[offset], values[offset + stride], ... from the
  /// caller's buffer: the engine deals one batch across its shards as S
  /// interleaved stripes. Thread-safe.
  void AddBatchStrided(const double* values, size_t count, size_t offset,
                       size_t stride);

  /// The ingest hot path: publishes a stripe whose values have ALREADY
  /// been passed through pre_quantizer() (the engine quantizes each
  /// flushed buffer once, then deals stripes). Lock-free while the ring
  /// has room; a full ring makes the caller drain (one lock acquisition)
  /// and a publish that crosses the high-water mark volunteers a
  /// try-lock drain. Thread-safe.
  void PublishPreQuantizedStrided(const double* values, size_t count,
                                  size_t offset, size_t stride);

  /// The live counters an export reports next to its window, read after
  /// draining the ring (as SnapshotInto does).
  struct LiveCounts {
    int64_t inflight = 0;     ///< The backend's in-flight count.
    int64_t total_added = 0;  ///< Accepted since initialization.
  };

  /// Finalizes the in-flight sub-window (the engine's Tick): drains the
  /// ring, then ticks the backend. Returns the backend's observed space in
  /// variables and, when \p live is set, the LiveCounts right after the
  /// boundary (both read under the lock the boundary already holds, so
  /// Tick-time accounting costs no extra acquisition or drain).
  /// Thread-safe.
  int64_t CloseSubWindow(LiveCounts* live = nullptr);

  /// Rebases the backend's sub-window epoch counter (WAL recovery on a
  /// fresh shard; see ShardBackend::SetEpochBase). Thread-safe.
  void SetEpochBase(int64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    backend_->SetEpochBase(epoch);
  }

  /// Exports the backend's mergeable summary into \p out, reusing its
  /// buffers (the allocation-free snapshot path); drains the ring first so
  /// everything published before the call is covered. Thread-safe.
  void SnapshotInto(BackendSummary* out) const;

  /// Appends copies of the backend's closed qlove sub-windows with epoch
  /// greater than \p after_epoch to \p out, oldest first; appends nothing
  /// for the entry kinds (ShardBackend::ClosedSubWindows). Thread-safe.
  void CopySubWindowsAfter(int64_t after_epoch,
                           std::vector<core::SubWindowSummary>* out) const;

  /// Drains the ring, then reads LiveCounts under the lock. Thread-safe.
  LiveCounts DrainLiveCounts() const;

  /// Live count of accepted values awaiting the next Tick — in the ring or
  /// in the backend's in-flight sub-window. Lock-free (two relaxed atomic
  /// loads), so backlog dashboards can poll it without perturbing ingest.
  ///
  /// Contract: this is a momentary, unsynchronized composite of two
  /// counters, so individual readings can tear. Drains refresh the backend
  /// count before releasing the ring count, so transients usually err HIGH
  /// (a drained value counted in both places); but the ring's pending count
  /// itself is published after the per-slot sequence stores, so a drain
  /// racing a publish can consume values *before* the publisher's
  /// `pending += claim` lands, making the raw sum momentarily NEGATIVE.
  /// Negative backlog is meaningless to a dashboard, so the reading is
  /// clamped to 0 here; a poll one instant later sees a consistent value.
  int64_t InflightCount() const {
    const int64_t raw = ring_.pending() +
                        backend_inflight_.load(std::memory_order_relaxed);
    return raw < 0 ? 0 : raw;
  }

  /// The quantizer ingest must apply before PublishPreQuantizedStrided;
  /// nullptr when the backend takes raw values.
  const Quantizer* pre_quantizer() const { return pre_quantizer_; }

  /// Elements accepted since initialization. Drains the ring first so
  /// everything the caller flushed before asking is counted (the pre-ring
  /// contract); a cold diagnostic, so the lock acquisition is fine —
  /// backlog polling belongs on the lock-free InflightCount instead.
  int64_t TotalAdded() const;

  /// Lock-free approximation of TotalAdded: drained total plus ring
  /// backlog, two relaxed loads. Same tearing caveats as InflightCount —
  /// the Tick-time idleness comparison, not accounting.
  int64_t TotalAddedApprox() const {
    return total_added_.load(std::memory_order_relaxed) + ring_.pending();
  }

  /// Backend space right now, in variables (§5.1 metric). Thread-safe.
  int64_t ObservedSpaceVariables() const;

  /// Actual ring slot count after power-of-two rounding (memory
  /// accounting for Stats()).
  size_t RingCapacity() const { return ring_.capacity(); }

  static constexpr size_t kDefaultRingCapacity = 4096;

 private:
  /// Drains the ring into the backend and refreshes the atomic counters.
  /// Caller holds mu_. Returns values drained.
  int64_t DrainLocked() const;

  mutable std::mutex mu_;
  std::unique_ptr<ShardBackend> backend_;
  const Quantizer* pre_quantizer_ = nullptr;  // owned by *backend_
  /// Ingest transport and live counters: mutated on const paths (SnapshotInto
  /// drains so exports cover everything published before the call).
  mutable ShardRing ring_;
  mutable std::atomic<int64_t> total_added_{0};
  mutable std::atomic<int64_t> backend_inflight_{0};
  /// Engine-owned self-metrics sink; null when introspection is off.
  Introspection* introspection_ = nullptr;
};

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_SHARD_H_
