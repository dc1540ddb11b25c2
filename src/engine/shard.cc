#include "engine/shard.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>
#include <thread>
#include <utility>

#include "engine/introspection.h"

namespace qlove {
namespace engine {

void ShardRing::Init(size_t min_capacity) {
  size_t capacity = 64;  // floor: a few cache lines of slots
  // EngineOptions::Validate bounds engine-driven capacities; the clamp
  // keeps direct callers with absurd values finite (doubling past the
  // clamp would wrap to 0 and spin).
  constexpr size_t kMaxCapacity = size_t{1} << 24;
  while (capacity < min_capacity && capacity < kMaxCapacity) capacity <<= 1;
  capacity_ = capacity;
  mask_ = capacity - 1;
  values_ = std::make_unique<double[]>(capacity);
  // Value-initialized atomics start at 0, which never equals any
  // published sequence (those are >= 1).
  seq_ = std::make_unique<std::atomic<uint64_t>[]>(capacity);
  head_.store(0, std::memory_order_relaxed);
  tail_published_.store(0, std::memory_order_relaxed);
  pending_.store(0, std::memory_order_relaxed);
  tail_ = 0;
}

size_t ShardRing::TryPublishStrided(const double* values, size_t count,
                                    size_t offset, size_t stride) {
  if (offset >= count) return 0;
  const size_t total = (count - offset + stride - 1) / stride;
  size_t published = 0;
  while (published < total) {
    // Claim a contiguous range with one CAS: free space is computed
    // against the consumer-released tail, so claimed slots can never
    // overlap unconsumed values.
    uint64_t pos = head_.load(std::memory_order_relaxed);
    uint64_t claim;
    for (;;) {
      const uint64_t free =
          capacity_ - (pos - tail_published_.load(std::memory_order_acquire));
      claim = std::min<uint64_t>(total - published, free);
      if (claim == 0) return published;  // full: caller drains, then resumes
      if (head_.compare_exchange_weak(pos, pos + claim,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    const double* src = values + offset + published * stride;
    for (uint64_t i = 0; i < claim; ++i) {
      const size_t slot = static_cast<size_t>(pos + i) & mask_;
      values_[slot] = src[i * stride];
      // Release publishes the value write; the consumer's acquire on seq
      // makes the value visible before it is consumed.
      seq_[slot].store(pos + i + 1, std::memory_order_release);
    }
    pending_.fetch_add(static_cast<int64_t>(claim), std::memory_order_relaxed);
    published += claim;
  }
  return published;
}

Status Shard::Initialize(const BackendOptions& backend, const WindowSpec& spec,
                         const std::vector<double>& phis,
                         size_t ring_capacity, Introspection* introspection) {
  std::lock_guard<std::mutex> lock(mu_);
  auto built = CreateShardBackend(backend, spec, phis);
  if (!built.ok()) return built.status();
  backend_ = built.TakeValue();
  pre_quantizer_ = backend_->PreQuantizer();
  ring_.Init(ring_capacity);
  total_added_.store(0, std::memory_order_relaxed);
  backend_inflight_.store(0, std::memory_order_relaxed);
  introspection_ = introspection;
  return Status::OK();
}

int64_t Shard::DrainLocked() const {
  // Drain telemetry at batch granularity: one timer read pair and one
  // counter update per drain that moved data, never per value. Empty
  // drains (idle Tick/query polls) stay out of the latency sketch.
  const int64_t pending_before =
      introspection_ != nullptr ? ring_.pending() : 0;
  std::chrono::steady_clock::time_point start;
  if (introspection_ != nullptr) start = std::chrono::steady_clock::now();
  int64_t accepted = 0;
  const int64_t drained =
      ring_.Drain([this, &accepted](const double* run, size_t n) {
        // The backend reports what it accepts (it drops corrupt
        // telemetry): TotalAdded must reconcile with snapshot
        // window/inflight counts.
        const int64_t took = backend_->AddDense(run, n);
        accepted += took;
        total_added_.fetch_add(took, std::memory_order_relaxed);
        // Refresh the backend-side inflight from inside the sink — Drain
        // only decrements the ring's pending count after the last run, so
        // a concurrent InflightCount() poll transiently double-counts
        // drained values instead of seeing them vanish from both counters.
        backend_inflight_.store(backend_->InflightCount(),
                                std::memory_order_relaxed);
      });
  if (introspection_ != nullptr && drained > 0) {
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    introspection_->OnDrain(drained, accepted, pending_before);
    introspection_->RecordStage(Stage::kIngestDrain, elapsed.count());
  }
  return drained;
}

void Shard::PublishPreQuantizedStrided(const double* values, size_t count,
                                       size_t offset, size_t stride) {
  if (offset >= count) return;
  for (;;) {
    const size_t published =
        ring_.TryPublishStrided(values, count, offset, stride);
    offset += published * stride;
    if (offset >= count) break;
    // Ring full: make room ourselves (the one blocking acquisition on this
    // path — it only fires when writers outrun the drain rate). A drain
    // that moves nothing means the slot at tail was claimed by a stalled
    // writer; yield until it publishes.
    if (introspection_ != nullptr) introspection_->OnRingFullStall();
    int64_t drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drained = DrainLocked();
    }
    if (drained == 0) std::this_thread::yield();
  }
  // Steady-state back-pressure relief: whoever tips the ring past high
  // water volunteers a drain, but never waits for the lock — if someone
  // else is already draining (or snapshotting), the ring keeps absorbing.
  if (ring_.AboveHighWater() && mu_.try_lock()) {
    if (introspection_ != nullptr) introspection_->OnHighWaterDrain();
    DrainLocked();
    mu_.unlock();
  }
}

void Shard::AddBatchStrided(const double* values, size_t count, size_t offset,
                            size_t stride) {
  if (offset >= count) return;
  if (pre_quantizer_ == nullptr) {
    PublishPreQuantizedStrided(values, count, offset, stride);
    return;
  }
  // Compatibility path for callers holding raw values: gather the stripe,
  // quantize it as one batch (the engine-level hot path quantizes whole
  // buffers before dealing stripes and skips this), publish densely.
  thread_local std::vector<double> quantized;
  quantized.clear();
  for (size_t i = offset; i < count; i += stride) {
    quantized.push_back(values[i]);
  }
  pre_quantizer_->QuantizeBatch(quantized.data(), quantized.data(),
                                quantized.size());
  PublishPreQuantizedStrided(quantized.data(), quantized.size(), 0, 1);
}

int64_t Shard::CloseSubWindow(LiveCounts* live) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  backend_->Tick();
  const int64_t inflight = backend_->InflightCount();
  backend_inflight_.store(inflight, std::memory_order_relaxed);
  if (live != nullptr) {
    live->inflight = inflight;
    live->total_added = total_added_.load(std::memory_order_relaxed);
  }
  return backend_->ObservedSpaceVariables();
}

void Shard::SnapshotInto(BackendSummary* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Everything published before this call becomes part of the export's
  // in-flight accounting, matching the pre-ring semantics where a flush
  // reached the backend immediately.
  DrainLocked();
  backend_->SummaryInto(out);
}

void Shard::CopySubWindowsAfter(
    int64_t after_epoch, std::vector<core::SubWindowSummary>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::deque<core::SubWindowSummary>* closed =
      backend_->ClosedSubWindows();
  if (closed == nullptr) return;
  // Epochs ascend, so the new sub-windows are a suffix of the window.
  auto first = closed->end();
  while (first != closed->begin() && std::prev(first)->epoch > after_epoch) {
    --first;
  }
  out->insert(out->end(), first, closed->end());
}

Shard::LiveCounts Shard::DrainLiveCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  LiveCounts counts;
  counts.inflight = backend_->InflightCount();
  counts.total_added = total_added_.load(std::memory_order_relaxed);
  return counts;
}

int64_t Shard::TotalAdded() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return total_added_.load(std::memory_order_relaxed);
}

int64_t Shard::ObservedSpaceVariables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backend_->ObservedSpaceVariables();
}

}  // namespace engine
}  // namespace qlove
