#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "engine/aggregator.h"
#include "engine/coalesce.h"

namespace qlove {
namespace engine {

/// One (thread, metric) ingest buffer. The MetricState is cached weakly:
/// flushes lock it (falling back to the registry), so a TLS entry that
/// outlives its engine never pins the metric's window state, which dies
/// with the engine's registry. The entry itself (key copy + values vector,
/// including any values never flushed before the engine died) is retained
/// until the owning thread next touches a new engine — or for the thread's
/// lifetime if it never does; threads that stop recording should Flush().
struct ThreadBuffer {
  std::weak_ptr<MetricState> metric;
  std::vector<double> values;
};

namespace {

/// engine_id -> (MetricKey -> buffer). Keyed by engine id so two engines in
/// one process never share buffers; the inner map is keyed by MetricKey and
/// caches the MetricState weakly, so steady-state Record is one hash lookup
/// with no registry lock. Shells left behind by destroyed engines are
/// dropped by the engine's destructor (calling thread) and pruned by other
/// threads the next time they touch a new engine (EnsureEngineBuffers).
using EngineBuffers =
    std::unordered_map<MetricKey, ThreadBuffer, MetricKeyHash>;
thread_local std::unordered_map<uint64_t, EngineBuffers> tls_buffers;

std::atomic<uint64_t> next_engine_id{1};

/// Bumped by every ~TelemetryEngine: threads compare it against their own
/// cached value to learn that some engine died since they last looked.
std::atomic<uint64_t> dead_engine_generation{0};

/// The generation this thread last swept its buffers against.
thread_local uint64_t tls_swept_generation = 0;

/// Live engine ids, so threads can prune TLS entries of destroyed engines.
std::mutex live_engines_mu;
std::unordered_set<uint64_t>& LiveEngines() {
  static auto* live = new std::unordered_set<uint64_t>();
  return *live;
}

/// Returns this thread's buffer map for \p engine_id, creating it on first
/// touch. Any engine destruction since this thread's last sweep triggers a
/// reap of dead engines' shells — detected by one relaxed atomic compare
/// on the hot path, so a long-lived writer thread that only ever touches
/// one live engine still prunes shells promptly instead of accumulating
/// them until it happens to meet a brand-new engine id (the old behavior:
/// the sweep ran only on a map miss, and a thread in steady state never
/// misses).
EngineBuffers& EnsureEngineBuffers(uint64_t engine_id) {
  const uint64_t generation =
      dead_engine_generation.load(std::memory_order_acquire);
  auto it = tls_buffers.find(engine_id);
  if (it != tls_buffers.end() && generation == tls_swept_generation) {
    return it->second;
  }
  if (generation != tls_swept_generation) {
    std::lock_guard<std::mutex> lock(live_engines_mu);
    const std::unordered_set<uint64_t>& live = LiveEngines();
    for (auto stale = tls_buffers.begin(); stale != tls_buffers.end();) {
      stale = live.count(stale->first) ? std::next(stale)
                                       : tls_buffers.erase(stale);
    }
    tls_swept_generation = generation;
    if (it != tls_buffers.end()) return it->second;  // engine_id is live
  }
  return tls_buffers[engine_id];
}

/// One step down the degrade chain exact -> qlove -> gk: the replacement
/// backend a metric falls to under cardinality or memory pressure, or
/// nullopt when there is nothing cheaper (gk / cmqs) or the cheaper
/// configuration cannot serve this window/phi grid. The GK epsilon is
/// derived from the grid — half the tightest phi gap — so the degraded
/// sketch still resolves every registered quantile.
std::optional<BackendOptions> DegradeOnce(const BackendOptions& options,
                                          const WindowSpec& shard_window,
                                          const std::vector<double>& phis) {
  BackendOptions degraded = options;
  switch (options.kind) {
    case BackendKind::kExact:
      degraded = BackendOptions{};  // default QLOVE knobs
      degraded.kind = BackendKind::kQlove;
      break;
    case BackendKind::kQlove: {
      degraded.kind = BackendKind::kGk;
      double min_gap = 1.0;
      for (double phi : phis) {
        if (phi < 1.0) min_gap = std::min(min_gap, 1.0 - phi);
      }
      degraded.epsilon = 0.5 * min_gap;
      break;
    }
    default:
      return std::nullopt;
  }
  if (!degraded.Validate(shard_window, phis).ok()) return std::nullopt;
  return degraded;
}

}  // namespace

Status EngineOptions::Validate() const {
  if (num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be > 0");
  }
  QLOVE_RETURN_NOT_OK(shard_window.Validate());
  if (phis.empty()) {
    return Status::InvalidArgument("at least one quantile is required");
  }
  for (double phi : phis) {
    if (phi <= 0.0 || phi > 1.0) {
      return Status::InvalidArgument("phi must lie in (0, 1]");
    }
  }
  if (thread_buffer_capacity == 0) {
    return Status::InvalidArgument("thread_buffer_capacity must be > 0");
  }
  // Upper bound keeps the per-shard allocation sane (2^24 slots = 256 MiB
  // of values+sequences per shard) and keeps the power-of-two rounding in
  // ShardRing::Init trivially finite.
  if (shard_ring_capacity == 0 ||
      shard_ring_capacity > (size_t{1} << 24)) {
    return Status::InvalidArgument(
        "shard_ring_capacity must lie in [1, 2^24]");
  }
  if (!(slow_query_threshold_us >= 0.0) ||
      !std::isfinite(slow_query_threshold_us)) {
    return Status::InvalidArgument(
        "slow_query_threshold_us must be finite and >= 0");
  }
  if (idle_eviction_windows < 0) {
    return Status::InvalidArgument("idle_eviction_windows must be >= 0");
  }
  // Backend/option combinations that cannot work fail here, at engine
  // construction, not at first Query.
  QLOVE_RETURN_NOT_OK(default_backend.Validate(shard_window, phis));
  return Status::OK();
}

TelemetryEngine::TelemetryEngine(EngineOptions options)
    : options_(std::move(options)),
      options_status_(options_.Validate()),  // once, not per Record
      engine_id_(next_engine_id.fetch_add(1, std::memory_order_relaxed)),
      sync_token_(GenerateSyncToken()) {
  metric_options_.shard_window = options_.shard_window;
  metric_options_.phis = options_.phis;
  metric_options_.backend = options_.default_backend;
  if (options_.introspection && options_status_.ok()) {
    introspection_ =
        std::make_unique<Introspection>(options_.slow_query_log_capacity);
    // The self-metrics run a fixed default-qlove configuration regardless
    // of the user's backend choices: stage latencies are an independent
    // stream and the defaults validate by construction.
    internal_metric_options_ = MetricOptions{};
    internal_metric_options_.shard_window = WindowSpec(8192, 1024);
    internal_metric_options_.phis = {0.5, 0.9, 0.99, 0.999};
    internal_metric_options_.backend = BackendOptions{};
  }
  std::lock_guard<std::mutex> lock(live_engines_mu);
  LiveEngines().insert(engine_id_);
}

TelemetryEngine::~TelemetryEngine() {
  {
    std::lock_guard<std::mutex> lock(live_engines_mu);
    LiveEngines().erase(engine_id_);
  }
  tls_buffers.erase(engine_id_);
  // Tell every other thread a shell may be reapable (they sweep on their
  // next EnsureEngineBuffers, whatever engine it is for).
  dead_engine_generation.fetch_add(1, std::memory_order_release);
}

BackendOptions TelemetryEngine::EffectiveBackend(
    const MetricKey& key, const BackendOptions& requested) const {
  BackendOptions effective = requested;
  if (options_.degrade_cardinality_threshold > 0 &&
      registry_.CountForName(key.name_id()) >=
          options_.degrade_cardinality_threshold) {
    if (auto degraded = DegradeOnce(effective, options_.shard_window,
                                    options_.phis)) {
      effective = *degraded;
    }
  }
  if (options_.memory_budget_bytes > 0 &&
      memory_estimate_.load(std::memory_order_relaxed) >
          options_.memory_budget_bytes) {
    if (auto degraded = DegradeOnce(effective, options_.shard_window,
                                    options_.phis)) {
      effective = *degraded;
    }
  }
  return effective;
}

Result<std::shared_ptr<MetricState>> TelemetryEngine::GetOrRegister(
    const MetricKey& key) {
  QLOVE_RETURN_NOT_OK(options_status_);
  // The Record-path steady state: one lock-free probe, no policy work.
  if (auto state = registry_.Find(key)) return state;
  if (IsReservedMetricName(key.name())) {
    return Status::InvalidArgument(
        key.ToString() + ": the " + std::string(kReservedMetricPrefix) +
        " namespace is reserved for engine self-metrics");
  }
  MetricOptions metric_options = metric_options_;
  metric_options.backend =
      EffectiveBackend(key, metric_options_.backend);
  auto state = registry_.GetOrCreate(key, options_.num_shards, metric_options,
                                     options_.shard_ring_capacity,
                                     introspection_.get());
  if (state.ok() &&
      state.ValueOrDie()->options().backend.kind !=
          metric_options_.backend.kind) {
    degrades_.fetch_add(1, std::memory_order_relaxed);
  }
  return state;
}

Status TelemetryEngine::RegisterMetric(const MetricKey& key) {
  // Explicit registration asks for a specific configuration — here the
  // engine default — so it flows through the same conflict check as the
  // two-arg form; ensure-exists semantics without a configuration claim
  // are Record's job.
  return RegisterMetric(key, options_.default_backend);
}

Status TelemetryEngine::RegisterMetric(const MetricKey& key,
                                       const BackendOptions& backend) {
  QLOVE_RETURN_NOT_OK(options_status_);
  if (IsReservedMetricName(key.name())) {
    return Status::InvalidArgument(
        key.ToString() + ": the " + std::string(kReservedMetricPrefix) +
        " namespace is reserved for engine self-metrics");
  }
  QLOVE_RETURN_NOT_OK(backend.Validate(options_.shard_window, options_.phis));
  const BackendOptions effective = EffectiveBackend(key, backend);
  MetricOptions metric_options = metric_options_;
  metric_options.backend = effective;
  auto state = registry_.GetOrCreate(key, options_.num_shards, metric_options,
                                     options_.shard_ring_capacity,
                                     introspection_.get());
  if (!state.ok()) return state.status();
  // GetOrCreate returns the racing winner's state: losing a registration
  // race must not silently serve this caller a different sketch — neither
  // another kind nor the same kind under different knobs (e.g. a coarser
  // epsilon than the rank budget just requested). With a degrade policy
  // active, though, the registered configuration may legitimately sit one
  // or two steps down the chain from what was asked (this registration
  // degraded, or an earlier one did and this caller raced it) — that is
  // policy, not a conflict.
  const BackendOptions& registered = state.ValueOrDie()->options().backend;
  bool acceptable = SameBackendConfiguration(registered, backend);
  if (!acceptable && (options_.memory_budget_bytes > 0 ||
                      options_.degrade_cardinality_threshold > 0)) {
    std::optional<BackendOptions> step =
        DegradeOnce(backend, options_.shard_window, options_.phis);
    for (int depth = 0; !acceptable && depth < 2 && step.has_value();
         ++depth) {
      acceptable = SameBackendConfiguration(registered, *step);
      step = DegradeOnce(*step, options_.shard_window, options_.phis);
    }
  }
  if (!acceptable) {
    return Status::FailedPrecondition(
        key.ToString() + " already registered with a different " +
        std::string(BackendKindName(registered.kind)) +
        " backend configuration");
  }
  if (SameBackendConfiguration(registered, effective) &&
      effective.kind != backend.kind) {
    degrades_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status TelemetryEngine::Record(const MetricKey& key, double value) {
  EngineBuffers& buffers = EnsureEngineBuffers(engine_id_);
  ThreadBuffer& buffer = buffers[key];
  if (buffer.values.empty() && buffer.metric.expired()) {
    // First touch of this metric by this thread: resolve (and if needed
    // register) through the shared registry, then cache the state so the
    // steady-state path never takes the registry lock again.
    auto state = GetOrRegister(key);
    if (!state.ok()) {
      buffers.erase(key);
      return state.status();
    }
    buffer.metric = state.ValueOrDie();
    buffer.values.reserve(options_.thread_buffer_capacity);
  }
  buffer.values.push_back(value);
  if (buffer.values.size() >= options_.thread_buffer_capacity) {
    QLOVE_RETURN_NOT_OK(FlushBuffer(key, &buffer));
  }
  return Status::OK();
}

Status TelemetryEngine::RecordBatch(const MetricKey& key, const double* values,
                                    size_t count) {
  if (count == 0) return Status::OK();
  if (values == nullptr) {
    return Status::InvalidArgument("null batch with nonzero count");
  }
  auto state = GetOrRegister(key);
  if (!state.ok()) return state.status();
  FlushToShards(state.ValueOrDie().get(), values, count);
  return Status::OK();
}

Status TelemetryEngine::RecordBatch(const MetricKey& key,
                                    const std::vector<double>& values) {
  return RecordBatch(key, values.data(), values.size());
}

void TelemetryEngine::FlushToShards(MetricState* state, const double* values,
                                    size_t count) {
  // Quantize the whole buffer once, in this writer thread, before any
  // shard sees it: one table-driven batch pass (core/quantizer.h) instead
  // of a per-event quantize inside every backend, and the work happens
  // outside every lock. Backends whose ingest takes raw values
  // (pre_quantizer() == nullptr) skip the pass and the copy.
  const Quantizer* pre = state->pre_quantizer();
  const double* publish = values;
  // Flush-granularity self-metrics: internal `__qlove/` states carry a
  // null sink (their publication must not count as user traffic or
  // recurse), so the state itself decides whether this flush is observed.
  Introspection* in = state->introspection();
  if (in != nullptr) in->OnFlush(static_cast<int64_t>(count));
  if (pre != nullptr) {
    thread_local std::vector<double> quantized;
    quantized.resize(count);
    {
      ScopedStageTimer timer(in, Stage::kQuantizeBatch);
      pre->QuantizeBatch(values, quantized.data(), count);
    }
    publish = quantized.data();
  }
  // Deal the batch round-robin starting at the metric's rotating cursor:
  // value i -> shard (cursor + i) % S. Every shard receives an interleaved
  // 1/S stripe (an i.i.d.-like sample of the batch), which is what makes
  // the per-shard Level-2 estimates merge cleanly; and concurrent flushes
  // start at different cursors, spreading ring contention. Each stripe is
  // one lock-free ring publish; writers only block when a ring outruns
  // its drain.
  const size_t num_shards = state->num_shards();
  const uint64_t cursor = state->NextShardCursor();
  for (size_t offset = 0; offset < num_shards; ++offset) {
    const size_t shard_index = (cursor + offset) % num_shards;
    state->shard(shard_index)
        .PublishPreQuantizedStrided(publish, count, offset, num_shards);
  }
  // Counted after the publish: a Tick that reads the count and then drains
  // the rings has these values in its kCmqs windows.
  if (state->options().backend.kind == BackendKind::kCmqs) {
    cmqs_flushes_.fetch_add(1, std::memory_order_acq_rel);
  }
}

Status TelemetryEngine::FlushBuffer(const MetricKey& key,
                                    ThreadBuffer* buffer) {
  if (buffer->values.empty()) return Status::OK();
  std::shared_ptr<MetricState> state = buffer->metric.lock();
  if (state == nullptr) {
    // The cached state expired (metric dropped and re-registered); the
    // engine itself is alive — we are inside one of its methods — so the
    // registry can always resolve the key again.
    auto resolved = GetOrRegister(key);
    if (!resolved.ok()) return resolved.status();
    state = resolved.TakeValue();
    buffer->metric = state;
  }
  FlushToShards(state.get(), buffer->values.data(), buffer->values.size());
  buffer->values.clear();
  return Status::OK();
}

void TelemetryEngine::Flush() {
  auto it = tls_buffers.find(engine_id_);
  if (it == tls_buffers.end()) return;
  for (auto& [key, buffer] : it->second) {
    (void)FlushBuffer(key, &buffer);
  }
}

void TelemetryEngine::Tick() {
  Stopwatch watch;
  Flush();
  // Publish buffered stage samples BEFORE closing sub-windows, so the
  // samples recorded since the last Tick land in the sub-window this Tick
  // closes (queryable immediately after).
  if (introspection_ != nullptr) PublishStageSamples();
  // The boundary proper starts here: nothing above moves what an export
  // tracks. Alone: every earlier Tick has ended, so none is half done
  // under this one's WAL encode.
  const uint64_t tick = ticks_begun_.fetch_add(1) + 1;
  const bool alone = ticks_ended_.load() == tick - 1;
  const uint64_t cmqs_flushes = cmqs_flushes_.load(std::memory_order_acquire);
  std::vector<std::shared_ptr<MetricState>> states = registry_.List();
  for (const auto& state : states) {
    state->CloseSubWindows();
  }
  for (const auto& state : internal_registry_.List()) {
    state->CloseSubWindows();
  }
  MaintainAfterTick(states);
  tick_epochs_.fetch_add(1, std::memory_order_relaxed);
  AppendWalRecord(alone ? tick : 0, cmqs_flushes);
  ticks_ended_.fetch_add(1);
  if (introspection_ != nullptr) {
    introspection_->OnTick();
    // This Tick's own latency is buffered now and published by the NEXT
    // Tick (a one-boundary lag; the alternative would re-open the window
    // just closed).
    introspection_->RecordStage(Stage::kTick, watch.ElapsedNanos() * 1e-3);
  }
}

Status TelemetryEngine::EnableWal(const std::string& dir,
                                  const WalOptions& wal_options) {
  QLOVE_RETURN_NOT_OK(options_status_);
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("WAL already enabled (dir " +
                                      wal_->dir() + ")");
  }
  auto writer = WalWriter::Open(dir, wal_options);
  if (!writer.ok()) return writer.status();
  wal_ = writer.TakeValue();
  // Fresh cursor: the first record is a full-frame checkpoint no matter
  // what this engine exported elsewhere before.
  wal_cursor_ = ExportCursor();
  wal_ticks_since_checkpoint_ = 0;
  wal_degraded_.store(false, std::memory_order_relaxed);
  return Status::OK();
}

Status TelemetryEngine::FlushWal() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("WAL not enabled");
  }
  return wal_->Sync();
}

bool TelemetryEngine::wal_enabled() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return wal_ != nullptr;
}

void TelemetryEngine::set_wal_testing_fail_appends(int n) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ != nullptr) wal_->set_testing_fail_appends(n);
}

void TelemetryEngine::AppendWalRecord(uint64_t tick, uint64_t cmqs_flushes) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ == nullptr) return;
  // A checkpoint is due when the writer asks for one (no open segment, or
  // the open segment reached its size target), on the periodic cadence
  // that bounds replay length, or to HEAL degraded mode: a full frame
  // needs nothing the failed appends lost.
  const bool checkpoint =
      wal_->ShouldCheckpoint() ||
      wal_degraded_.load(std::memory_order_relaxed) ||
      wal_ticks_since_checkpoint_ >= wal_->options().checkpoint_every_n_ticks;
  if (checkpoint) wal_cursor_.RequestResync();  // full frame
  const uint64_t base_view = wal_cursor_.view_;
  const int64_t base_epoch = wal_cursor_.last_epoch_;
  // Read before the encode lists the registry: any later registration or
  // eviction changes it.
  const uint64_t generation = registry_.generation();
  // The unmetered encode: WAL records are not wire exports. It reads the
  // in-flight counts the boundary left, so its frame is as of the Tick.
  const FrameShape shape = EncodeExport("wal", &wal_cursor_, &wal_scratch_,
                                        ExportOptions{}, /*as_of_tick=*/true);
  // No other Tick overlapped this one, so the encode saw this Tick's state
  // whole: the WAL cursor now tracks exactly what a wire cursor exporting
  // after this Tick will.
  const bool whole = tick != 0 && ticks_begun_.load() == tick;
  if (whole) {
    wal_cursor_.view_token_ = sync_token_;
    wal_cursor_.view_ = tick;
  }
  Status status = checkpoint ? wal_->BeginSegment() : Status::OK();
  if (status.ok()) {
    status = wal_->Append(wal_scratch_.data(), wal_scratch_.size(),
                          checkpoint);
  }
  if (status.ok() && wal_->options().fsync == WalFsyncPolicy::kEveryTick) {
    status = wal_->Sync();
  }
  // Keep a delta for Export to ship (its bytes are right whether or not
  // the disk took them). Its tracking state moves into a shared map the
  // cursors that ship it adopt; the next Tick's encode copies it back.
  if (whole && shape.delta && base_view != 0) {
    auto sent = std::make_shared<const ExportCursor::SentMap>(
        std::move(wal_cursor_.sent_));
    wal_cursor_.Adopt(sent, wal_cursor_.last_epoch_, sync_token_, tick);
    std::lock_guard<std::mutex> frame_lock(tick_frame_mu_);
    std::swap(tick_frame_.bytes, wal_scratch_);
    tick_frame_.body_offset = shape.body_offset;
    tick_frame_.metrics = shape.metrics;
    tick_frame_.epoch = wal_cursor_.last_epoch_;
    tick_frame_.base_epoch = base_epoch;
    tick_frame_.view = tick;
    tick_frame_.base_view = base_view;
    tick_frame_.registry_generation = generation;
    tick_frame_.cmqs_flushes = cmqs_flushes;
    tick_frame_.sent = std::move(sent);
  }
  if (!status.ok()) {
    // Non-durable degraded mode: keep serving, remember that the on-disk
    // tail no longer matches the cursor's optimism (the next record that
    // makes it to disk must be a full frame), and retry a checkpoint at
    // the next Tick.
    wal_degraded_.store(true, std::memory_order_relaxed);
    wal_cursor_.RequestResync();
    return;
  }
  if (checkpoint) {
    wal_degraded_.store(false, std::memory_order_relaxed);
    wal_ticks_since_checkpoint_ = 0;
  } else {
    ++wal_ticks_since_checkpoint_;
  }
}

Result<TelemetryEngine::WalRecoveryInfo> TelemetryEngine::RecoverFromWal(
    const std::string& dir) {
  QLOVE_RETURN_NOT_OK(options_status_);
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_ != nullptr) {
      return Status::FailedPrecondition(
          "RecoverFromWal must run before EnableWal");
    }
  }
  if (TickEpochs() != 0 || registry_.size() != 0) {
    return Status::FailedPrecondition(
        "RecoverFromWal requires a fresh engine (no Ticks, no metrics)");
  }
  // Replay through a private aggregator: WAL records ARE delta-sync wire
  // frames, so the aggregator's held-state machinery reconstructs the last
  // durable window exactly as a downstream aggregator would have seen it —
  // checkpoints replace wholesale, deltas apply incrementally, and frames
  // that do not fit the held state (foreign token after a dirty directory
  // reuse, reordered epochs) NAK and are counted rejected.
  AggregatorOptions replay_options;
  replay_options.introspection = false;
  AggregatorEngine replayer(replay_options);
  auto replay =
      ReplayWal(dir, [&replayer](const uint8_t* data, size_t size) -> Status {
        auto ack = replayer.IngestFrame(data, size);
        if (!ack.ok()) return ack.status();
        if (!ack.ValueOrDie().applied) {
          return Status::InvalidArgument(
              "frame not applicable to replayed state");
        }
        return Status::OK();
      });
  if (!replay.ok()) return replay.status();
  WalRecoveryInfo info;
  info.replay = replay.ValueOrDie();

  auto held = replayer.SourceSnapshot("wal");
  if (!held.ok()) {
    if (held.status().code() == Status::Code::kNotFound) {
      return info;  // empty/missing WAL: a fresh start, epoch 0
    }
    return held.status();
  }
  const WireSnapshot& snapshot = held.ValueOrDie();
  for (const WireMetricSummary& metric : snapshot.metrics) {
    if (IsReservedMetricName(metric.key.name())) continue;
    if (metric.shards.empty()) continue;
    // The wire carries each metric's full MetricOptions, so the restored
    // registration serves the exact configuration the crashed incarnation
    // ran (backend kind, epsilon, window, phis) — not this engine's
    // defaults.
    auto state = registry_.GetOrCreate(metric.key, options_.num_shards,
                                       metric.options,
                                       options_.shard_ring_capacity,
                                       introspection_.get());
    if (!state.ok()) return state.status();
    BackendSummary restored =
        metric.shards.size() == 1 ? metric.shards[0]
                                  : CoalesceShardSummaries(metric.shards);
    state.ValueOrDie()->RestoreSummary(std::move(restored), snapshot.epoch);
    ++info.metrics;
  }
  // Resume the crashed incarnation's Tick sequence: the next Tick is
  // epoch + 1, and downstream aggregators see a monotone epoch stream
  // (under a new sync token, which they treat as a restart).
  tick_epochs_.store(snapshot.epoch, std::memory_order_relaxed);
  info.epoch = snapshot.epoch;
  wal_recovered_epoch_.store(snapshot.epoch, std::memory_order_relaxed);
  wal_recovered_metrics_.store(info.metrics, std::memory_order_relaxed);
  return info;
}

bool TelemetryEngine::EvictState(const std::shared_ptr<MetricState>& state) {
  // Final summarize: TotalAdded drains every ring under the shard locks,
  // so everything flushed before the eviction decision is accounted before
  // the shards are dropped.
  const int64_t final_total = state->TotalAdded();
  if (!registry_.Evict(state->key(), state)) return false;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  evicted_events_.fetch_add(final_total, std::memory_order_relaxed);
  return true;
}

void TelemetryEngine::MaintainAfterTick(
    const std::vector<std::shared_ptr<MetricState>>& states) {
  const bool idle_policy = options_.idle_eviction_windows > 0;
  const bool budget_policy = options_.memory_budget_bytes > 0;
  size_t total_bytes = 0;
  for (const auto& state : states) total_bytes += state->ApproxMemoryBytes();
  if (!idle_policy && !budget_policy) {
    memory_estimate_.store(total_bytes, std::memory_order_relaxed);
    return;
  }

  // Pass 1: metrics idle past the configured horizon retire outright.
  if (idle_policy) {
    for (const auto& state : states) {
      if (state->IdleWindows() >= options_.idle_eviction_windows &&
          EvictState(state)) {
        total_bytes -= std::min(total_bytes, state->ApproxMemoryBytes());
      }
    }
  }

  if (budget_policy && total_bytes > options_.memory_budget_bytes) {
    // Pass 2: over budget — spend the remaining idle metrics first,
    // longest-idle then largest, stopping as soon as the budget clears.
    std::vector<const std::shared_ptr<MetricState>*> candidates;
    for (const auto& state : states) {
      if (state->IdleWindows() > 0 && registry_.Find(state->key()) == state) {
        candidates.push_back(&state);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const std::shared_ptr<MetricState>* a,
                 const std::shared_ptr<MetricState>* b) {
                if ((*a)->IdleWindows() != (*b)->IdleWindows()) {
                  return (*a)->IdleWindows() > (*b)->IdleWindows();
                }
                return (*a)->ApproxMemoryBytes() > (*b)->ApproxMemoryBytes();
              });
    for (const auto* state : candidates) {
      if (total_bytes <= options_.memory_budget_bytes) break;
      if (EvictState(*state)) {
        total_bytes -= std::min(total_bytes, (*state)->ApproxMemoryBytes());
      }
    }
    // Pass 3: still over — degrade the largest still-active degradable
    // metrics in place (exact -> qlove -> gk). The old state retires like
    // an eviction; its events roll into evicted_events.
    if (total_bytes > options_.memory_budget_bytes) {
      std::vector<const std::shared_ptr<MetricState>*> active;
      for (const auto& state : states) {
        const BackendKind kind = state->options().backend.kind;
        if ((kind == BackendKind::kExact || kind == BackendKind::kQlove) &&
            registry_.Find(state->key()) == state) {
          active.push_back(&state);
        }
      }
      std::sort(active.begin(), active.end(),
                [](const std::shared_ptr<MetricState>* a,
                   const std::shared_ptr<MetricState>* b) {
                  return (*a)->ApproxMemoryBytes() > (*b)->ApproxMemoryBytes();
                });
      for (const auto* entry : active) {
        if (total_bytes <= options_.memory_budget_bytes) break;
        const std::shared_ptr<MetricState>& state = *entry;
        auto degraded = DegradeOnce(state->options().backend,
                                    options_.shard_window, options_.phis);
        if (!degraded.has_value()) continue;
        MetricOptions metric_options = state->options();
        metric_options.backend = *degraded;
        const size_t old_bytes = state->ApproxMemoryBytes();
        const int64_t old_total = state->TotalAdded();
        auto replaced = registry_.Replace(
            state->key(), options_.num_shards, metric_options,
            options_.shard_ring_capacity, introspection_.get());
        if (!replaced.ok()) continue;
        degrades_.fetch_add(1, std::memory_order_relaxed);
        evicted_events_.fetch_add(old_total, std::memory_order_relaxed);
        total_bytes -= std::min(total_bytes, old_bytes);
        total_bytes += replaced.ValueOrDie()->ApproxMemoryBytes();
      }
    }
  }
  memory_estimate_.store(total_bytes, std::memory_order_relaxed);
}

void TelemetryEngine::PublishStageSamples() {
  std::lock_guard<std::mutex> lock(publish_mu_);
  for (int s = 0; s < kStageCount; ++s) {
    const Stage stage = static_cast<Stage>(s);
    introspection_->DrainStageSamples(stage, &stage_scratch_);
    if (stage_scratch_.empty()) continue;
    if (stage_states_[s] == nullptr) {
      // Lazily register the stage's sketch in the INTERNAL registry with a
      // null sink: publishing self-metrics must never recurse into
      // recording more self-metrics. One shard — samples arrive from one
      // thread at a time, under publish_mu_. A registration failure only
      // loses telemetry about telemetry; it must never fail the Tick.
      auto state = internal_registry_.GetOrCreate(
          StageMetricKey(stage), /*num_shards=*/1, internal_metric_options_,
          /*ring_capacity=*/2 * Introspection::kStageSampleCapacity,
          /*introspection=*/nullptr);
      if (!state.ok()) continue;
      stage_states_[s] = state.ValueOrDie();
    }
    FlushToShards(stage_states_[s].get(), stage_scratch_.data(),
                  stage_scratch_.size());
  }
}

Status TelemetryEngine::Export(std::string source, ExportCursor* cursor,
                               std::vector<uint8_t>* out,
                               const ExportOptions& export_options) const {
  QLOVE_RETURN_NOT_OK(options_status_);
  if (cursor == nullptr) {
    return Status::InvalidArgument("null export cursor");
  }
  if (out == nullptr) {
    return Status::InvalidArgument("null output buffer");
  }
  Stopwatch watch;
  const bool reused =
      !export_options.include_self_metrics && ShipTickFrame(source, cursor, out);
  bool delta = true;
  if (!reused) {
    const uint64_t ended = ticks_ended_.load();
    const uint64_t begun = ticks_begun_.load();
    delta = EncodeExport(source, cursor, out, export_options).delta;
    // No Tick was half done or began during the encode: the cursor tracks
    // Tick `begun`'s state (self-metrics are not part of that state).
    if (!export_options.include_self_metrics && ended == begun &&
        ticks_begun_.load() == begun) {
      cursor->view_token_ = sync_token_;
      cursor->view_ = begun;
    }
  }
  if (introspection_ != nullptr) {
    const auto bytes = static_cast<int64_t>(out->size());
    introspection_->RecordStage(Stage::kWireEncode,
                                watch.ElapsedNanos() * 1e-3);
    introspection_->OnExport();
    introspection_->OnWireBytes(bytes);
    if (delta) introspection_->OnDeltaExport(bytes);
    if (reused) introspection_->OnFrameReused();
  }
  return Status::OK();
}

bool TelemetryEngine::ShipTickFrame(std::string_view source,
                                    ExportCursor* cursor,
                                    std::vector<uint8_t>* out) const {
  std::shared_ptr<const ExportCursor::SentMap> sent;
  int64_t epoch = 0;
  uint64_t view = 0;
  {
    std::lock_guard<std::mutex> lock(tick_frame_mu_);
    const TickFrame& frame = tick_frame_;
    // The cursor sits where the frame's encode began (same engine, same
    // Tick, same epoch, nothing forcing a full frame), no later Tick began,
    // and nothing the frame covers moved since.
    if (frame.view == 0 || frame.view != ticks_begun_.load() ||
        cursor->force_full_ || cursor->view_token_ != sync_token_ ||
        cursor->view_ != frame.base_view ||
        cursor->last_epoch_ != frame.base_epoch ||
        registry_.generation() != frame.registry_generation ||
        cmqs_flushes_.load(std::memory_order_acquire) != frame.cmqs_flushes) {
      return false;
    }
    FrameWriter(out).DeltaHeader(source, sync_token_, frame.epoch,
                                 frame.base_epoch, frame.metrics);
    out->insert(out->end(),
                frame.bytes.begin() +
                    static_cast<std::ptrdiff_t>(frame.body_offset),
                frame.bytes.end());
    sent = frame.sent;
    epoch = frame.epoch;
    view = frame.view;
  }
  cursor->Adopt(std::move(sent), epoch, sync_token_, view);
  return true;
}

TelemetryEngine::FrameShape TelemetryEngine::EncodeExport(
    std::string_view source, ExportCursor* cursor, std::vector<uint8_t>* out,
    const ExportOptions& export_options, bool as_of_tick) const {
  const int64_t epoch = TickEpochs();
  std::vector<std::shared_ptr<MetricState>> states = registry_.List();
  if (export_options.include_self_metrics) {
    for (auto& state : internal_registry_.List()) {
      states.push_back(std::move(state));
    }
  }
  // Metrics registered after the last Tick have no window state yet. The
  // list is fixed here, so the header's metric count holds even if a
  // concurrent Tick gives one of them a window before it is reached.
  std::erase_if(states, [](const std::shared_ptr<MetricState>& state) {
    return state->TickEpochs() == 0;
  });
  // Canonical key order, like Query's `matched`: successive exports diff
  // stably.
  std::sort(states.begin(), states.end(),
            [](const std::shared_ptr<MetricState>& a,
               const std::shared_ptr<MetricState>& b) {
              return a->key() < b->key();
            });
  std::vector<const MetricKey*> keys;
  keys.reserve(states.size());
  for (const auto& state : states) keys.push_back(&state->key());
  FrameShape shape;
  shape.delta = cursor->Begin(source, sync_token_, epoch, keys, out);
  shape.metrics = keys.size();
  shape.body_offset = out->size();
  for (const auto& state : states) {
    // Shard count is an agent-internal detail: every export ships the
    // metric's one coalesced window, encoded where it is kept.
    state->VisitExportWindow(
        [&](const BackendSummary& window, int64_t inflight) {
          const BackendSummary* shards[] = {&window};
          cursor->Metric(state->key(), state->options(), shards, inflight,
                         /*lineage=*/0);
        },
        as_of_tick);
  }
  cursor->End();
  return shape;
}

void ExportCursor::Adopt(std::shared_ptr<const SentMap> sent, int64_t epoch,
                         uint64_t view_token, uint64_t view) {
  sent_.clear();
  shared_sent_ = std::move(sent);
  force_full_ = false;
  last_epoch_ = epoch;
  view_token_ = view_token;
  view_ = view;
}

bool ExportCursor::Begin(std::string_view source, uint64_t sync_token,
                         int64_t epoch, std::span<const MetricKey* const> keys,
                         std::vector<uint8_t>* out) {
  if (shared_sent_ != nullptr) {
    sent_ = *shared_sent_;
    shared_sent_.reset();
  }
  view_ = 0;  // the exporter stamps the state this frame leaves, if known
  // A tracked metric absent from this export vanished (evicted or
  // otherwise retired): only a full frame retires it on the receiver.
  // Both sides are in canonical key order, so one merge scan decides.
  bool tracked_metric_vanished = false;
  {
    auto tracked = sent_.cbegin();
    auto present = keys.begin();
    while (tracked != sent_.cend()) {
      while (present != keys.end() && **present < tracked->first) ++present;
      if (present == keys.end() || tracked->first < **present) {
        tracked_metric_vanished = true;
        break;
      }
      ++tracked;
      ++present;
    }
  }
  delta_ = !force_full_ && last_epoch_ >= 0 && !tracked_metric_vanished;
  writer_ = FrameWriter(out);
  if (delta_) {
    writer_.DeltaHeader(source, sync_token, epoch, last_epoch_, keys.size());
  } else {
    writer_.FullHeader(source, sync_token, epoch, keys.size());
  }
  force_full_ = false;
  last_epoch_ = epoch;
  tracked_ = sent_.begin();
  return delta_;
}

void ExportCursor::Metric(const MetricKey& key, const MetricOptions& options,
                          std::span<const BackendSummary* const> shards,
                          std::optional<int64_t> inflight, uint64_t lineage) {
  // The tracking map is merged in place against the (canonically ordered)
  // export: entries before this key are no longer exported and are
  // pruned, so a long-lived cursor's footprint follows the live metric
  // count instead of growing one node per key ever retired.
  while (tracked_ != sent_.end() && tracked_->first < key) {
    tracked_ = sent_.erase(tracked_);
  }
  const bool held = tracked_ != sent_.end() && tracked_->first == key;
  const bool single_qlove =
      shards.size() == 1 && shards[0]->kind == BackendKind::kQlove;
  Sent sent;
  sent.lineage = lineage;
  sent.patchable = single_qlove;
  if (single_qlove) {
    const auto& subs = shards[0]->subwindows;
    // Sub-window epochs count the metric's own boundaries, not the
    // exporter's epoch, so after an empty window only "everything is
    // new" is a safe high-water mark.
    sent.newest_epoch = subs.empty() ? std::numeric_limits<int64_t>::min()
                                     : subs.back().epoch;
  }
  // Incremental shipping needs sub-window-addressable state on both ends:
  // a single qlove summary here, and a prior frame that shipped this
  // metric the same way from the same lineage.
  if (delta_ && held && tracked_->second.patchable &&
      tracked_->second.lineage == lineage && single_qlove) {
    const BackendSummary& summary = *shards[0];
    const int64_t shipped = tracked_->second.newest_epoch;
    const auto& subs = summary.subwindows;
    // An empty window trims everything the receiver holds, whose newest
    // epoch is the newest this cursor shipped (last_epoch_ is already this
    // frame's epoch: Begin advanced it).
    const int64_t first_live_epoch =
        subs.empty() ? std::max(last_epoch_, shipped) + 1
                     : subs.front().epoch;
    // Epochs are non-decreasing, so the unshipped sub-windows are a
    // suffix.
    const auto fresh = std::partition_point(
        subs.begin(), subs.end(),
        [shipped](const core::SubWindowSummary& sub) {
          return sub.epoch <= shipped;
        });
    writer_.QloveDeltaMetric(key, first_live_epoch, summary.count,
                             inflight.value_or(summary.inflight),
                             summary.burst_active, summary.rank_error,
                             {fresh, subs.end()});
  } else {
    writer_.WholeMetric(key, options, shards, inflight);
  }
  if (held) {
    tracked_->second = sent;
    ++tracked_;
  } else {
    tracked_ = std::next(sent_.emplace_hint(tracked_, key, sent));
  }
}

void ExportCursor::End() {
  sent_.erase(tracked_, sent_.end());
  tracked_ = {};
  writer_ = FrameWriter();
}

std::shared_ptr<MetricState> TelemetryEngine::FindState(
    const MetricKey& key) const {
  return IsReservedMetricName(key.name()) ? internal_registry_.Find(key)
                                          : registry_.Find(key);
}

namespace {

/// True when \p spec targets the reserved self-metrics namespace (by key
/// or by a selector naming a reserved metric): such queries bypass the
/// query instrumentation so observing the engine never perturbs what is
/// being observed.
bool TargetsReservedNamespace(const QuerySpec& spec) {
  switch (spec.target) {
    case QuerySpec::TargetKind::kKey:
      return IsReservedMetricName(spec.key.name());
    case QuerySpec::TargetKind::kKeyList:
      for (const MetricKey& key : spec.keys) {
        if (IsReservedMetricName(key.name())) return true;
      }
      return false;
    case QuerySpec::TargetKind::kSelector:
      return IsReservedMetricName(spec.selector.name);
  }
  return false;
}

}  // namespace

Result<QueryResult> TelemetryEngine::Query(const QuerySpec& spec) const {
  if (introspection_ == nullptr || TargetsReservedNamespace(spec)) {
    return QueryImpl(spec);
  }
  Stopwatch watch;
  auto result = QueryImpl(spec);
  const double micros = watch.ElapsedNanos() * 1e-3;
  introspection_->OnQuery();
  introspection_->RecordStage(Stage::kQuery, micros);
  if (options_.slow_query_threshold_us > 0.0 &&
      micros >= options_.slow_query_threshold_us) {
    SlowQueryRecord record;
    record.spec = DescribeQuerySpec(spec);
    record.micros = micros;
    record.ok = result.ok();
    record.matched =
        result.ok() ? static_cast<int64_t>(result.ValueOrDie().matched.size())
                    : 0;
    introspection_->RecordSlowQuery(std::move(record));
  }
  return result;
}

Result<QueryResult> TelemetryEngine::QueryImpl(const QuerySpec& spec) const {
  QLOVE_RETURN_NOT_OK(options_status_);
  QLOVE_RETURN_NOT_OK(spec.Validate());

  // Resolve the target to metric states; a key is a one-key list.
  // Reserved `__qlove/` names resolve in the internal registry (FindState
  // routes); a wildcard selector scans user metrics only, so self-metrics
  // never leak into fleet rollups unasked.
  std::vector<std::shared_ptr<MetricState>> states;
  if (spec.target == QuerySpec::TargetKind::kSelector) {
    states = IsReservedMetricName(spec.selector.name)
                 ? internal_registry_.MatchSelector(spec.selector)
                 : registry_.MatchSelector(spec.selector);
    if (states.empty()) {
      return Status::NotFound("selector matched no metrics: " +
                              spec.selector.ToString());
    }
  } else {
    const std::span<const MetricKey> keys =
        spec.target == QuerySpec::TargetKind::kKey
            ? std::span<const MetricKey>(&spec.key, 1)
            : std::span<const MetricKey>(spec.keys);
    for (const MetricKey& key : keys) {
      auto state = FindState(key);
      if (state == nullptr) {
        return Status::NotFound("metric not registered: " + key.ToString());
      }
      states.push_back(std::move(state));
    }
  }

  // Canonical-key order (stable rollups, stable `matched` reporting), then
  // dedup — a key list may repeat a key; it must not double-count.
  std::sort(states.begin(), states.end(),
            [](const std::shared_ptr<MetricState>& a,
               const std::shared_ptr<MetricState>& b) {
              return a->key() < b->key();
            });
  states.erase(std::unique(states.begin(), states.end()), states.end());

  // Each metric serves a copy of its export window, taken once per window
  // update; holding the shared_ptrs pins that copy even if a concurrent
  // Tick or Export updates the window mid-evaluation.
  std::vector<std::shared_ptr<const ResolvedWindow>> resolved;
  std::vector<PoolMember> members;
  resolved.reserve(states.size());
  members.reserve(states.size());
  for (const auto& state : states) {
    resolved.push_back(state->Resolved());
    members.push_back({&state->key(), &state->options(),
                       resolved.back()->views(),
                       static_cast<int>(state->num_shards())});
  }
  // A single metric also reuses the window's evaluator: its Level-2 /
  // entry-pooling merge runs once per window update, not once per query.
  const WindowView* cached =
      resolved.size() == 1 ? &resolved.front()->view() : nullptr;
  auto result = EvaluatePool(members, spec, cached);
  if (!result.ok()) return result;

  // In-flight backlog is a live counter, not window state: the cached
  // summaries would freeze it at the first post-Tick query, so it is
  // re-read from the shards every time.
  QueryResult& answer = result.ValueOrDie();
  answer.inflight_count = 0;
  for (const auto& state : states) {
    answer.inflight_count += state->LiveInflightCount();
  }
  return result;
}

int64_t TelemetryEngine::TotalRecorded(const MetricKey& key) const {
  std::shared_ptr<MetricState> state = FindState(key);
  return state == nullptr ? 0 : state->TotalAdded();
}

namespace {

/// One metric's footprint row (memory model documented on MetricFootprint).
MetricFootprint FootprintOf(const MetricState& state, bool internal) {
  MetricFootprint footprint;
  footprint.key = state.key();
  footprint.internal = internal;
  footprint.num_shards = static_cast<int>(state.num_shards());
  for (size_t s = 0; s < state.num_shards(); ++s) {
    footprint.space_variables += state.shard(s).ObservedSpaceVariables();
    footprint.ring_slots +=
        static_cast<int64_t>(state.shard(s).RingCapacity());
  }
  footprint.export_window_bytes =
      static_cast<int64_t>(state.ExportWindowBytes());
  footprint.memory_bytes = footprint.space_variables * 8 +
                           footprint.ring_slots * 16 +
                           footprint.export_window_bytes;
  footprint.inflight = state.LiveInflightCount();
  footprint.total_added = state.TotalAdded();
  return footprint;
}

}  // namespace

EngineStats TelemetryEngine::Stats() const {
  EngineStats stats;
  stats.tick_epochs = TickEpochs();
  stats.metric_count = registry_.size();
  stats.internal_metric_count = internal_registry_.size();
  // Cardinality gauges live on engine atomics / the interner so they are
  // meaningful even with introspection disabled.
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.degrades = degrades_.load(std::memory_order_relaxed);
  stats.evicted_events = evicted_events_.load(std::memory_order_relaxed);
  stats.interned_strings = StringInterner::Global().size();
  stats.interner_bytes = StringInterner::Global().bytes();
  stats.registry_bytes =
      registry_.ApproxBytes() + internal_registry_.ApproxBytes();

  // Durability surface: live with or without introspection (crash safety
  // is not observability garnish).
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_ != nullptr) {
      const WalStats& wal = wal_->stats();
      stats.wal_enabled = true;
      stats.wal_records = wal.records;
      stats.wal_checkpoints = wal.checkpoints;
      stats.wal_append_failures = wal.append_failures;
      stats.wal_bytes = wal.bytes;
      stats.wal_segments = wal.live_segments;
      stats.wal_fsyncs = wal.fsyncs;
    }
  }
  stats.wal_degraded = wal_degraded_.load(std::memory_order_relaxed);
  stats.wal_recovered_epoch =
      wal_recovered_epoch_.load(std::memory_order_relaxed);
  stats.wal_recovered_metrics =
      wal_recovered_metrics_.load(std::memory_order_relaxed);

  // Footprints report regardless of introspection: they read live shard
  // state, not the counter hub.
  std::vector<std::shared_ptr<MetricState>> states = registry_.List();
  std::sort(states.begin(), states.end(),
            [](const std::shared_ptr<MetricState>& a,
               const std::shared_ptr<MetricState>& b) {
              return a->key() < b->key();
            });
  const size_t user_count = states.size();
  std::vector<std::shared_ptr<MetricState>> internal =
      internal_registry_.List();
  std::sort(internal.begin(), internal.end(),
            [](const std::shared_ptr<MetricState>& a,
               const std::shared_ptr<MetricState>& b) {
              return a->key() < b->key();
            });
  states.insert(states.end(), internal.begin(), internal.end());
  stats.metrics.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    stats.metrics.push_back(FootprintOf(*states[i], i >= user_count));
    stats.total_memory_bytes += stats.metrics.back().memory_bytes;
  }

  if (introspection_ != nullptr) {
    stats.enabled = true;
    stats.counters = introspection_->Counters();
    introspection_->StageAggregates(&stats.stages);
    // p50/p99 come from the dogfooded sketches themselves (published
    // samples only; 0 until a Tick has covered the stage).
    for (StageStats& stage : stats.stages) {
      const QuerySpec spec = QuerySpec::ForKey(StageMetricKey(stage.stage))
                                 .With(QueryRequest::Quantile(0.5))
                                 .With(QueryRequest::Quantile(0.99));
      auto answer = QueryImpl(spec);
      if (!answer.ok()) continue;
      const QueryResult& result = answer.ValueOrDie();
      if (result.outcomes[0].status.ok()) {
        stage.p50_us = result.outcomes[0].value;
      }
      if (result.outcomes[1].status.ok()) {
        stage.p99_us = result.outcomes[1].value;
      }
    }
    stats.slow_queries = introspection_->SlowQueries();
  }
  return stats;
}

void TelemetryEngine::SetSlowQueryHook(
    std::function<void(const SlowQueryRecord&)> hook) {
  if (introspection_ != nullptr) {
    introspection_->SetSlowQueryHook(std::move(hook));
  }
}

}  // namespace engine
}  // namespace qlove
