#include "engine/aggregator.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <span>
#include <utility>

#include "engine/interner.h"

namespace qlove {
namespace engine {

namespace {

/// Window population of one shipped summary. Weighted summaries carry it
/// precomputed; qlove summaries carry it as per-sub-window counts (the
/// local merge derives it the same way).
int64_t SummaryPopulation(const BackendSummary& summary) {
  if (summary.kind != BackendKind::kQlove) return summary.count;
  int64_t population = 0;
  for (const core::SubWindowSummary& sub : summary.subwindows) {
    population += sub.count;
  }
  return population;
}

int64_t MetricPopulation(const WireMetricSummary& metric) {
  int64_t population = 0;
  for (const BackendSummary& shard : metric.shards) {
    population += SummaryPopulation(shard);
  }
  return population;
}

int64_t WallUnixSeconds() {
  return static_cast<int64_t>(std::time(nullptr));
}

/// The position of \p key in \p metrics (canonical key order, enforced on
/// every ingest), or metrics.end() when it is not held.
std::vector<WireMetricSummary>::const_iterator FindMetric(
    const std::vector<WireMetricSummary>& metrics, const MetricKey& key) {
  auto it = std::lower_bound(metrics.begin(), metrics.end(), key,
                             [](const WireMetricSummary& m,
                                const MetricKey& k) { return m.key < k; });
  return it != metrics.end() && it->key == key ? it : metrics.end();
}

}  // namespace

AggregatorEngine::AggregatorEngine(AggregatorOptions options)
    : options_(options), sync_token_(GenerateSyncToken()) {
  if (options_.introspection) {
    // The self-metrics engine holds only `__qlove/` sketches (one shard:
    // stage samples are published single-threaded inside its Tick), so
    // its cost is a couple of sketches, not a second fleet.
    EngineOptions self_options;
    self_options.num_shards = 1;
    self_.reset(new TelemetryEngine(self_options));
  }
}

Introspection* AggregatorEngine::SelfIntrospection() const {
  return self_ != nullptr ? self_->introspection_.get() : nullptr;
}

void AggregatorEngine::CountAccepted() {
  const int64_t accepted =
      ingests_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Publish buffered decode/ingest samples into the sketches every few
  // accepted frames, so FleetHealth's p50/p99 stay current without a
  // separate driver thread.
  if (self_ != nullptr && accepted % 8 == 0) self_->Tick();
}

Result<AggregatorEngine::IngestAck> AggregatorEngine::ApplyFrame(
    WireFrame frame) {
  // Content validation first — malformed payloads get error Statuses (a
  // resync would not fix them). Wire data is untrusted until its
  // self-described configuration passes the same validation a local
  // registration would: a summary whose options cannot serve would poison
  // every fleet query it pools into. The canonical-key-order contract
  // (engine/wire.h) is enforced too: it implies key uniqueness, and a
  // frame repeating a key would otherwise silently double-count its
  // population in every query it matches.
  for (size_t i = 0; i < frame.metrics.size(); ++i) {
    const WireMetricDelta& metric = frame.metrics[i];
    if (i > 0 && !(frame.metrics[i - 1].key < metric.key)) {
      return Status::InvalidArgument(
          "frame from '" + frame.source +
          "': metrics are not in strictly ascending canonical key order (" +
          metric.key.ToString() + " repeats or regresses)");
    }
    if (metric.mode != WireDeltaMode::kFull) continue;
    QLOVE_RETURN_NOT_OK(metric.options.shard_window.Validate());
    QLOVE_RETURN_NOT_OK(metric.options.backend.Validate(
        metric.options.shard_window, metric.options.phis));
    for (const BackendSummary& shard : metric.shards) {
      if (shard.kind != metric.options.backend.kind) {
        return Status::InvalidArgument(
            "frame from '" + frame.source + "': metric " +
            metric.key.ToString() +
            " ships a summary kind disagreeing with its declared backend");
      }
    }
  }

  // Allocated before the lock; the graveyards are declared before it too,
  // so what the frame retires — the replaced metric list (with every
  // summary of an omitted or kFull-replaced key) and the trimmed
  // sub-windows — is freed after mu_ is released, not under it.
  std::vector<size_t> patch_targets(frame.metrics.size());
  std::vector<WireMetricSummary> metrics;
  std::vector<uint64_t> lineage;
  metrics.reserve(frame.metrics.size());
  lineage.reserve(frame.metrics.size());
  std::vector<WireMetricSummary> retired_metrics;
  std::vector<uint64_t> retired_lineage;
  std::vector<core::SubWindowSummary> trimmed;
  if (frame.is_delta) {
    trimmed.reserve(frame.metrics.size());  // steady state: one per metric
  }

  std::lock_guard<std::mutex> lock(mu_);
  IngestAck nak;
  nak.resync_required = true;
  auto it = sources_.find(frame.source);
  if (frame.is_delta) {
    if (it == sources_.end()) {
      // Never seen this agent (or the aggregator restarted): there is no
      // base state to patch. Ask for a full frame.
      return nak;
    }
    nak.acked_epoch = it->second.snapshot.epoch;
    if (it->second.snapshot.epoch != frame.base_epoch) {
      // The delta was built against a state we do not hold (dropped
      // frame, reordering, or an aggregator-side replacement).
      return nak;
    }
    if (it->second.snapshot.sync_token != frame.sync_token) {
      // Same epoch number, different engine incarnation: the agent
      // restarted and its Tick epochs collided with the state we hold.
      // Patching across incarnations would silently mix two different
      // windows.
      return nak;
    }
  } else if (it == sources_.end()) {
    // A full frame creates its source. It cannot NAK below: every one of
    // its metrics rides kFull.
    it = sources_.try_emplace(frame.source).first;
    it->second.snapshot.source = frame.source;
  } else {
    // An epoch regression within the reorder budget is a delayed frame
    // and must not roll the source's state backwards; beyond it the
    // agent's engine restarted (Tick counters begin at 1 again) and the
    // fresh state replaces the old. Staleness below is measured against
    // ingest recency, so a restarted source serves immediately.
    const int64_t regression = it->second.snapshot.epoch - frame.epoch;
    if (regression > 0 && regression <= options_.staleness_epochs) {
      return Status::FailedPrecondition(
          "frame from '" + frame.source + "' at epoch " +
          std::to_string(frame.epoch) + " is older than the held epoch " +
          std::to_string(it->second.snapshot.epoch) +
          " (reordered frame, not a restart)");
    }
  }

  // Validate-then-swap, in two passes. The first checks every NAK
  // condition without touching held state, so a NAK on any metric leaves
  // the source intact; the second builds the replacement list, moving
  // each patched summary out of the held list (no copy of the held
  // window). The frame's metric list is authoritative: held metrics it
  // omits were unregistered, evicted or degraded away by the sender, and
  // are dropped and counted retired. Both lists are in canonical key
  // order (enforced on every ingest), so one merge walk finds every patch
  // target and every omitted key.
  SourceState& held = it->second;
  std::vector<WireMetricSummary>& held_metrics = held.snapshot.metrics;
  int64_t retired = 0;
  size_t held_index = 0;
  for (size_t i = 0; i < frame.metrics.size(); ++i) {
    const WireMetricDelta& metric = frame.metrics[i];
    while (held_index < held_metrics.size() &&
           held_metrics[held_index].key < metric.key) {
      ++held_index;
      ++retired;
    }
    const bool is_held = held_index < held_metrics.size() &&
                         held_metrics[held_index].key == metric.key;
    if (metric.mode == WireDeltaMode::kQloveDelta) {
      if (!is_held) {
        return nak;  // patch target unknown — agent and aggregator disagree
      }
      const WireMetricSummary& target = held_metrics[held_index];
      if (target.shards.size() != 1 ||
          target.shards[0].kind != BackendKind::kQlove ||
          target.options.backend.kind != BackendKind::kQlove) {
        // Held state is not the coalesced qlove shape deltas patch.
        return nak;
      }
      // kQloveDelta trims held sub-windows older than first_live_epoch
      // and appends the new ones; the trim only removes from the front,
      // so the newest held epoch survives it unless everything goes.
      const auto& subs = target.shards[0].subwindows;
      const int64_t held_max =
          !subs.empty() && subs.back().epoch >= metric.first_live_epoch
              ? subs.back().epoch
              : -1;
      if (!metric.new_subwindows.empty() &&
          metric.new_subwindows.front().epoch <= held_max) {
        // The "new" sub-windows overlap what we hold: the agent's view of
        // our state has diverged. Applying would double-count.
        return nak;
      }
      patch_targets[i] = held_index;
    }
    if (is_held) ++held_index;
  }
  retired += static_cast<int64_t>(held_metrics.size() - held_index);

  for (size_t i = 0; i < frame.metrics.size(); ++i) {
    WireMetricDelta& metric = frame.metrics[i];
    if (metric.mode == WireDeltaMode::kFull) {
      metrics.push_back({std::move(metric.key), std::move(metric.options),
                         std::move(metric.shards)});
      lineage.push_back(++last_lineage_);  // replaced, not patched
      continue;
    }
    const size_t target = patch_targets[i];
    WireMetricSummary& patched = held_metrics[target];
    BackendSummary& summary = patched.shards[0];
    auto& subs = summary.subwindows;
    const auto live = std::lower_bound(
        subs.begin(), subs.end(), metric.first_live_epoch,
        [](const core::SubWindowSummary& sub, int64_t epoch) {
          return sub.epoch < epoch;
        });
    trimmed.insert(trimmed.end(), std::make_move_iterator(subs.begin()),
                   std::make_move_iterator(live));
    subs.erase(subs.begin(), live);
    subs.insert(subs.end(),
                std::make_move_iterator(metric.new_subwindows.begin()),
                std::make_move_iterator(metric.new_subwindows.end()));
    summary.count = metric.count;
    summary.inflight = metric.inflight;
    summary.burst_active = metric.burst_active;
    summary.rank_error = metric.rank_error;
    metrics.push_back(std::move(patched));
    lineage.push_back(held.lineage[target]);
  }

  if (retired > 0) {
    metrics_retired_.fetch_add(retired, std::memory_order_relaxed);
  }
  held.snapshot.epoch = frame.epoch;
  held.snapshot.sync_token = frame.sync_token;
  retired_metrics.swap(held.snapshot.metrics);
  held.snapshot.metrics = std::move(metrics);
  retired_lineage.swap(held.lineage);
  held.lineage = std::move(lineage);
  // Frame-type counters describe the stream, not the held state.
  (frame.is_delta ? held.delta_frames : held.full_frames) += 1;
  fleet_epoch_ = std::max(fleet_epoch_, frame.epoch);
  held.fleet_epoch_at_ingest = fleet_epoch_;
  held.last_ingest_unix_s = WallUnixSeconds();
  IngestAck ack;
  ack.applied = true;
  ack.acked_epoch = frame.epoch;
  return ack;
}

Result<AggregatorEngine::IngestAck> AggregatorEngine::IngestFrame(
    const uint8_t* data, size_t size) {
  // Checkpoint BEFORE applying: when rotation is due, the new segment
  // opens with the held state this frame's delta (if it is one) was built
  // against, so replay applies the whole segment without a NAK.
  MaybeCheckpointWal();
  auto result = IngestFrameImpl(data, size);
  if (result.ok() && result.ValueOrDie().applied) {
    AppendWalFrame(data, size);
  }
  return result;
}

Result<AggregatorEngine::IngestAck> AggregatorEngine::IngestFrameImpl(
    const uint8_t* data, size_t size) {
  wire_bytes_ingested_.fetch_add(static_cast<int64_t>(size),
                                 std::memory_order_relaxed);
  auto decoded = [&] {
    ScopedStageTimer timer(SelfIntrospection(), Stage::kWireDecode);
    return DecodeFrame(data, size);
  }();
  if (!decoded.ok()) {
    decode_failures_.fetch_add(1, std::memory_order_relaxed);
    return decoded.status();
  }
  const bool is_delta = decoded.ValueOrDie().is_delta;
  // Timed as the ingest stage, accepted frames counted, rejections
  // classified. NAKs are a protocol outcome (the agent resolves them by
  // resyncing), so they are neither an accepted ingest nor a rejection.
  auto applied = [&] {
    ScopedStageTimer timer(SelfIntrospection(), Stage::kAggregatorIngest);
    return ApplyFrame(decoded.TakeValue());
  }();
  if (!applied.ok()) {
    auto& rejected =
        applied.status().code() == Status::Code::kFailedPrecondition
            ? rejected_reordered_
            : rejected_invalid_;
    rejected.fetch_add(1, std::memory_order_relaxed);
    return applied.status();
  }
  const IngestAck ack = applied.ValueOrDie();
  if (ack.resync_required) {
    resyncs_requested_.fetch_add(1, std::memory_order_relaxed);
    return ack;
  }
  if (is_delta) {
    wire_bytes_delta_ingested_.fetch_add(static_cast<int64_t>(size),
                                         std::memory_order_relaxed);
    delta_ingests_.fetch_add(1, std::memory_order_relaxed);
  }
  CountAccepted();
  return ack;
}

Result<AggregatorEngine::IngestAck> AggregatorEngine::IngestFrame(
    const std::vector<uint8_t>& buffer) {
  return IngestFrame(buffer.data(), buffer.size());
}

Status AggregatorEngine::EnableWal(const std::string& dir,
                                   const WalOptions& wal_options) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("WAL already enabled (dir " +
                                      wal_->dir() + ")");
  }
  auto writer = WalWriter::Open(dir, wal_options);
  if (!writer.ok()) return writer.status();
  wal_ = writer.TakeValue();
  wal_records_since_checkpoint_ = 0;
  wal_degraded_.store(false, std::memory_order_relaxed);
  return Status::OK();
}

Status AggregatorEngine::FlushWal() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("WAL not enabled");
  }
  return wal_->Sync();
}

bool AggregatorEngine::wal_enabled() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return wal_ != nullptr;
}

Result<AggregatorEngine::WalRecoveryInfo> AggregatorEngine::RecoverFromWal(
    const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_ != nullptr) {
      return Status::FailedPrecondition(
          "RecoverFromWal must run before EnableWal");
    }
  }
  if (source_count() != 0) {
    return Status::FailedPrecondition(
        "RecoverFromWal requires a fresh aggregator (no held sources)");
  }
  // Replay through the normal frame machinery (checkpoints are full
  // frames, records are whatever arrived). The WAL is off during replay,
  // so nothing re-logs; frames that cannot apply (delta against state a
  // truncated tail lost, foreign tokens from a reused directory) NAK and
  // are counted rejected without poisoning the rest.
  auto replay =
      ReplayWal(dir, [this](const uint8_t* data, size_t size) -> Status {
        auto ack = IngestFrameImpl(data, size);
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
  info.sources = static_cast<int64_t>(source_count());
  info.fleet_epoch = FleetEpoch();
  wal_recovered_sources_.store(info.sources, std::memory_order_relaxed);
  wal_recovered_epoch_.store(info.fleet_epoch, std::memory_order_relaxed);
  return info;
}

void AggregatorEngine::MaybeCheckpointWal() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ == nullptr) return;
  const bool due =
      wal_->ShouldCheckpoint() ||
      wal_degraded_.load(std::memory_order_relaxed) ||
      wal_records_since_checkpoint_ >= wal_->options().checkpoint_every_n_ticks;
  if (!due) return;
  // Encode each held source's full frame under mu_, straight from the held
  // state, and write without it (wal_mu_ before mu_, always — see the
  // header's lock-order note).
  std::vector<std::vector<uint8_t>> frames;
  {
    std::lock_guard<std::mutex> sources_lock(mu_);
    frames.resize(sources_.size());
    size_t i = 0;
    for (const auto& [name, state] : sources_) {
      (void)name;
      EncodeSnapshotV2(state.snapshot, &frames[i++]);
    }
  }
  Status status = wal_->BeginSegment();
  for (const std::vector<uint8_t>& frame : frames) {
    if (!status.ok()) break;
    status = wal_->Append(frame.data(), frame.size(), /*is_checkpoint=*/true);
  }
  if (status.ok() && wal_->options().fsync != WalFsyncPolicy::kOs) {
    // The checkpoint set is the durability floor of everything after it;
    // sync it under both sync-happy policies.
    status = wal_->Sync();
  }
  if (!status.ok()) {
    wal_degraded_.store(true, std::memory_order_relaxed);
    return;
  }
  wal_degraded_.store(false, std::memory_order_relaxed);
  wal_records_since_checkpoint_ = 0;
}

void AggregatorEngine::AppendWalFrame(const uint8_t* data, size_t size) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ == nullptr) return;
  // With no open segment (a failed rotation while degraded) this is a
  // FailedPrecondition: stay degraded and let the next rotation heal.
  Status status = wal_->Append(data, size, /*is_checkpoint=*/false);
  if (status.ok() && wal_->options().fsync == WalFsyncPolicy::kEveryTick) {
    // The aggregator has no Tick; the per-frame append IS its cadence.
    status = wal_->Sync();
  }
  if (!status.ok()) {
    wal_degraded_.store(true, std::memory_order_relaxed);
    return;
  }
  ++wal_records_since_checkpoint_;
}

Status AggregatorEngine::Export(std::string source, ExportCursor* cursor,
                                std::vector<uint8_t>* out,
                                const ExportOptions& export_options) const {
  if (cursor == nullptr) {
    return Status::InvalidArgument("null export cursor");
  }
  if (out == nullptr) {
    return Status::InvalidArgument("null output buffer");
  }
  // One pooled key: its first source's metric (options, lineage) and its
  // run of summary pointers in `shards`, every source's in name order.
  struct Pooled {
    const WireMetricSummary* metric = nullptr;
    uint64_t lineage = 0;
    size_t first_shard = 0;
    size_t num_shards = 0;
  };
  std::vector<Pooled> pooled;
  std::vector<const BackendSummary*> shards;
  std::vector<const MetricKey*> keys;
  // Each fresh source's position in its key-ordered metric list.
  struct Head {
    const SourceState* state = nullptr;
    size_t next = 0;
  };
  std::vector<Head> heads;
  bool delta = false;
  {
    // The held summaries are read in place, so the whole encode runs
    // under mu_; nothing is copied out of them.
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, state] : sources_) {
      (void)name;
      if (!IsStale(state, fleet_epoch_)) heads.push_back({&state, 0});
    }
    // Merge the sources' key-ordered lists. heads is in source-name
    // order, so the first head carrying a key is "the first source in
    // name order" whose options the pooled key takes.
    auto skip_unexported = [&](Head& head) {
      const auto& metrics = head.state->snapshot.metrics;
      while (head.next < metrics.size() &&
             !export_options.include_self_metrics &&
             IsReservedMetricName(metrics[head.next].key.name())) {
        ++head.next;
      }
    };
    while (true) {
      const MetricKey* key = nullptr;
      for (Head& head : heads) {
        skip_unexported(head);
        const auto& metrics = head.state->snapshot.metrics;
        if (head.next < metrics.size() &&
            (key == nullptr || metrics[head.next].key < *key)) {
          key = &metrics[head.next].key;
        }
      }
      if (key == nullptr) break;
      Pooled entry;
      entry.first_shard = shards.size();
      for (Head& head : heads) {
        const auto& metrics = head.state->snapshot.metrics;
        if (head.next == metrics.size() || !(metrics[head.next].key == *key)) {
          continue;
        }
        const WireMetricSummary& metric = metrics[head.next];
        if (entry.metric == nullptr) {
          entry.metric = &metric;
          entry.lineage = head.state->lineage[head.next];
        } else if (!SameServingConfiguration(entry.metric->options,
                                             metric.options)) {
          // Per-metric options are singular on the wire: a key cannot
          // carry two configurations. Drop and count.
          reexport_dropped_.fetch_add(1, std::memory_order_relaxed);
          ++head.next;
          continue;
        }
        for (const BackendSummary& summary : metric.shards) {
          shards.push_back(&summary);
        }
        ++head.next;
      }
      entry.num_shards = shards.size() - entry.first_shard;
      keys.push_back(&entry.metric->key);
      pooled.push_back(entry);
    }
    delta = cursor->Begin(source, sync_token_, fleet_epoch_, keys, out);
    const std::span<const BackendSummary* const> all_shards(shards);
    for (const Pooled& entry : pooled) {
      cursor->Metric(entry.metric->key, entry.metric->options,
                     all_shards.subspan(entry.first_shard, entry.num_shards),
                     std::nullopt, entry.lineage);
    }
    cursor->End();
  }
  const auto bytes = static_cast<int64_t>(out->size());
  reexports_.fetch_add(1, std::memory_order_relaxed);
  wire_bytes_reexported_.fetch_add(bytes, std::memory_order_relaxed);
  if (delta) {
    delta_reexports_.fetch_add(1, std::memory_order_relaxed);
    wire_bytes_delta_reexported_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return Status::OK();
}

void AggregatorEngine::NoteSourceConnected(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  ConnectionState& state = connections_[source];
  state.connected = true;
  state.connects += 1;
  state.last_event_unix_s = WallUnixSeconds();
}

void AggregatorEngine::NoteSourceDisconnected(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  ConnectionState& state = connections_[source];
  state.connected = false;
  state.last_event_unix_s = WallUnixSeconds();
}

void AggregatorEngine::SetTransportStatsProvider(
    std::function<TransportCounters()> provider) {
  std::lock_guard<std::mutex> lock(transport_mu_);
  transport_provider_ = std::move(provider);
}

Result<WireSnapshot> AggregatorEngine::SourceSnapshot(
    const std::string& source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    return Status::NotFound("no snapshot held for source: " + source);
  }
  return it->second.snapshot;
}

Result<QueryResult> AggregatorEngine::Query(const QuerySpec& spec) const {
  QLOVE_RETURN_NOT_OK(spec.Validate());
  queries_.fetch_add(1, std::memory_order_relaxed);

  // A key is a one-key list. Listed keys are looked up in canonical order,
  // each once: every held list is in canonical key order, so the pool
  // order (source, then key) does not depend on how the list was written.
  std::vector<const MetricKey*> keys;
  if (spec.target == QuerySpec::TargetKind::kKey) {
    keys.push_back(&spec.key);
  } else if (spec.target == QuerySpec::TargetKind::kKeyList) {
    for (const MetricKey& key : spec.keys) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const MetricKey* a, const MetricKey* b) { return *a < *b; });
    keys.erase(std::unique(keys.begin(), keys.end(),
                           [](const MetricKey* a, const MetricKey* b) {
                             return *a == *b;
                           }),
               keys.end());
  }
  std::vector<char> key_fresh(keys.size(), 0);

  std::lock_guard<std::mutex> lock(mu_);
  // Resolve the target across every source, splitting fresh from stale.
  std::vector<PoolMember> fresh;
  std::vector<const WireMetricSummary*> stale;
  int64_t sources_fresh = 0;
  int64_t sources_stale = 0;
  for (const auto& [name, state] : sources_) {
    (void)name;
    const bool is_stale = IsStale(state, fleet_epoch_);
    bool took = false;
    auto take = [&](const WireMetricSummary& metric) {
      took = true;
      if (is_stale) {
        stale.push_back(&metric);
      } else {
        fresh.push_back({&metric.key, &metric.options, metric.shards,
                         static_cast<int>(metric.shards.size())});
      }
    };
    const std::vector<WireMetricSummary>& metrics = state.snapshot.metrics;
    if (spec.target == QuerySpec::TargetKind::kSelector) {
      for (const WireMetricSummary& metric : metrics) {
        if (spec.selector.Matches(metric.key)) take(metric);
      }
    } else {
      for (size_t k = 0; k < keys.size(); ++k) {
        const auto it = FindMetric(metrics, *keys[k]);
        if (it == metrics.end()) continue;
        take(*it);
        if (!is_stale) key_fresh[k] = 1;
      }
    }
    if (took) ++(is_stale ? sources_stale : sources_fresh);
  }
  if (fresh.empty() && !stale.empty()) {
    return Status::FailedPrecondition(
        "all " + std::to_string(sources_stale) +
        " sources matching the target are stale (fleet epoch " +
        std::to_string(fleet_epoch_) + ")");
  }
  // Engine parity: every listed key must resolve, not just one.
  for (size_t k = 0; k < keys.size(); ++k) {
    if (!key_fresh[k]) {
      return Status::NotFound("metric not reported by any fresh source: " +
                              keys[k]->ToString());
    }
  }
  if (fresh.empty()) {
    return Status::NotFound("selector matched no reported metrics: " +
                            spec.selector.ToString());
  }

  auto result = EvaluatePool(fresh, spec);
  if (!result.ok()) return result;
  QueryResult& answer = result.ValueOrDie();
  answer.sources_fresh = sources_fresh;
  answer.sources_stale = sources_stale;

  // Partial-fleet accounting: the answer covers only the fresh sub-fleet.
  // A population missing fraction s shifts any rank by at most s, so
  // quantile/rank bounds widen by the stale sources' last-known share.
  int64_t stale_weight = 0;
  for (const WireMetricSummary* metric : stale) {
    stale_weight += MetricPopulation(*metric);
  }
  if (stale_weight > 0 && answer.window_count > 0) {
    const double stale_fraction =
        static_cast<double>(stale_weight) /
        static_cast<double>(stale_weight + answer.window_count);
    for (size_t i = 0; i < answer.outcomes.size(); ++i) {
      QueryOutcome& outcome = answer.outcomes[i];
      if (!outcome.status.ok()) continue;
      outcome.source = core::OutcomeSource::kPartialFleet;
      const QueryRequestKind kind = spec.requests[i].kind;
      if (kind == QueryRequestKind::kQuantile ||
          kind == QueryRequestKind::kRank) {
        outcome.rank_error_bound += stale_fraction;
      }
    }
  }
  return result;
}

std::vector<AggregatorEngine::SourceStatus> AggregatorEngine::Sources() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SourceStatus> out;
  out.reserve(sources_.size() + connections_.size());
  // Union of ingest state and transport sessions, merged by name: a
  // connected-but-quiet source surfaces with epoch 0 / no metrics, and a
  // dead agent keeps its last snapshot with connected=false. Both maps are
  // name-ordered, so a two-pointer walk keeps the output sorted.
  auto src = sources_.begin();
  auto conn = connections_.begin();
  while (src != sources_.end() || conn != connections_.end()) {
    const bool take_src =
        conn == connections_.end() ||
        (src != sources_.end() && src->first <= conn->first);
    const bool take_conn =
        src == sources_.end() ||
        (conn != connections_.end() && conn->first <= src->first);
    SourceStatus status;
    if (take_src) {
      const SourceState& state = src->second;
      status.source = src->first;
      status.epoch = state.snapshot.epoch;
      status.stale = IsStale(state, fleet_epoch_);
      status.epochs_behind = fleet_epoch_ - state.fleet_epoch_at_ingest;
      status.metric_count = state.snapshot.metrics.size();
      status.full_frames = state.full_frames;
      status.delta_frames = state.delta_frames;
      status.last_seen_unix_s = state.last_ingest_unix_s;
      ++src;
    }
    if (take_conn) {
      const ConnectionState& state = conn->second;
      if (!take_src) status.source = conn->first;
      status.connected = state.connected;
      status.connects = state.connects;
      status.last_seen_unix_s =
          std::max(status.last_seen_unix_s, state.last_event_unix_s);
      ++conn;
    }
    out.push_back(std::move(status));
  }
  return out;
}

AggregatorEngine::FleetHealthSnapshot AggregatorEngine::FleetHealth() const {
  FleetHealthSnapshot health;
  health.sources = Sources();
  health.fleet_epoch = FleetEpoch();
  for (const SourceStatus& source : health.sources) {
    (source.stale ? health.sources_stale : health.sources_fresh) += 1;
  }
  health.ingests = ingests_.load(std::memory_order_relaxed);
  health.rejected_reordered =
      rejected_reordered_.load(std::memory_order_relaxed);
  health.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  health.decode_failures = decode_failures_.load(std::memory_order_relaxed);
  health.wire_bytes_ingested =
      wire_bytes_ingested_.load(std::memory_order_relaxed);
  health.delta_ingests = delta_ingests_.load(std::memory_order_relaxed);
  health.resyncs_requested =
      resyncs_requested_.load(std::memory_order_relaxed);
  health.wire_bytes_delta_ingested =
      wire_bytes_delta_ingested_.load(std::memory_order_relaxed);
  health.queries = queries_.load(std::memory_order_relaxed);
  health.reexports = reexports_.load(std::memory_order_relaxed);
  health.wire_bytes_reexported =
      wire_bytes_reexported_.load(std::memory_order_relaxed);
  health.delta_reexports = delta_reexports_.load(std::memory_order_relaxed);
  health.wire_bytes_delta_reexported =
      wire_bytes_delta_reexported_.load(std::memory_order_relaxed);
  health.reexport_dropped = reexport_dropped_.load(std::memory_order_relaxed);
  health.metrics_retired = metrics_retired_.load(std::memory_order_relaxed);
  health.interned_strings = StringInterner::Global().size();
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_ != nullptr) {
      const WalStats& wal = wal_->stats();
      health.wal_enabled = true;
      health.wal_records = wal.records;
      health.wal_checkpoints = wal.checkpoints;
      health.wal_append_failures = wal.append_failures;
      health.wal_bytes = wal.bytes;
      health.wal_segments = wal.live_segments;
      health.wal_fsyncs = wal.fsyncs;
    }
  }
  health.wal_degraded = wal_degraded_.load(std::memory_order_relaxed);
  health.wal_recovered_epoch =
      wal_recovered_epoch_.load(std::memory_order_relaxed);
  health.wal_recovered_sources =
      wal_recovered_sources_.load(std::memory_order_relaxed);
  // Copy the provider out, then poll it lock-free: the transport may take
  // its own locks, and holding ours across foreign code invites deadlock.
  std::function<TransportCounters()> provider;
  {
    std::lock_guard<std::mutex> lock(transport_mu_);
    provider = transport_provider_;
  }
  if (provider) {
    health.has_transport = true;
    health.transport = provider();
  }
  if (self_ != nullptr) {
    // Cover every buffered sample before reading the sketches back.
    self_->Tick();
    const EngineStats stats = self_->Stats();
    for (const StageStats& stage : stats.stages) {
      if (stage.stage == Stage::kWireDecode ||
          stage.stage == Stage::kAggregatorIngest) {
        health.stages.push_back(stage);
      }
    }
  }
  return health;
}

int64_t AggregatorEngine::FleetEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fleet_epoch_;
}

size_t AggregatorEngine::source_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_.size();
}

namespace {

void AppendHealthF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

void AppendHealthEscaped(const std::string& in, std::string* out) {
  for (char c : in) {
    if (c == '"' || c == '\\') *out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      *out += buf;
      continue;
    }
    *out += c;
  }
}

}  // namespace

std::string FormatFleetHealth(
    const AggregatorEngine::FleetHealthSnapshot& health) {
  std::string out;
  AppendHealthF(&out,
                "fleet health: epoch=%lld sources=%lld fresh + %lld stale\n",
                static_cast<long long>(health.fleet_epoch),
                static_cast<long long>(health.sources_fresh),
                static_cast<long long>(health.sources_stale));
  AppendHealthF(&out,
                "  ingests=%lld rejected: reordered=%lld invalid=%lld "
                "decode_failures=%lld\n",
                static_cast<long long>(health.ingests),
                static_cast<long long>(health.rejected_reordered),
                static_cast<long long>(health.rejected_invalid),
                static_cast<long long>(health.decode_failures));
  AppendHealthF(&out,
                "  wire_bytes_ingested=%lld (delta_ingests=%lld "
                "delta_bytes=%lld resyncs=%lld) queries=%lld\n",
                static_cast<long long>(health.wire_bytes_ingested),
                static_cast<long long>(health.delta_ingests),
                static_cast<long long>(health.wire_bytes_delta_ingested),
                static_cast<long long>(health.resyncs_requested),
                static_cast<long long>(health.queries));
  AppendHealthF(&out, "  metrics_retired=%lld interned_strings=%zu\n",
                static_cast<long long>(health.metrics_retired),
                health.interned_strings);
  if (health.reexports > 0) {
    AppendHealthF(&out,
                  "  reexports=%lld reexport_bytes=%lld (delta_reexports=%lld "
                  "delta_bytes=%lld) reexport_dropped=%lld\n",
                  static_cast<long long>(health.reexports),
                  static_cast<long long>(health.wire_bytes_reexported),
                  static_cast<long long>(health.delta_reexports),
                  static_cast<long long>(health.wire_bytes_delta_reexported),
                  static_cast<long long>(health.reexport_dropped));
  }
  if (health.wal_enabled || health.wal_recovered_epoch > 0 ||
      health.wal_recovered_sources > 0) {
    AppendHealthF(&out,
                  "  wal: %s%s records=%lld checkpoints=%lld failures=%lld "
                  "bytes=%lld segments=%lld fsyncs=%lld recovered_epoch=%lld "
                  "recovered_sources=%lld\n",
                  health.wal_enabled ? "on" : "off",
                  health.wal_degraded ? " DEGRADED(non-durable)" : "",
                  static_cast<long long>(health.wal_records),
                  static_cast<long long>(health.wal_checkpoints),
                  static_cast<long long>(health.wal_append_failures),
                  static_cast<long long>(health.wal_bytes),
                  static_cast<long long>(health.wal_segments),
                  static_cast<long long>(health.wal_fsyncs),
                  static_cast<long long>(health.wal_recovered_epoch),
                  static_cast<long long>(health.wal_recovered_sources));
  }
  if (health.has_transport) {
    const AggregatorEngine::TransportCounters& t = health.transport;
    AppendHealthF(&out,
                  "  transport: active=%lld accepts=%lld auth_failures=%lld "
                  "disconnects=%lld stalls=%lld\n",
                  static_cast<long long>(t.active_connections),
                  static_cast<long long>(t.accepts),
                  static_cast<long long>(t.auth_failures),
                  static_cast<long long>(t.disconnects),
                  static_cast<long long>(t.backpressure_stalls));
    AppendHealthF(&out,
                  "  transport: frames=%lld in / %lld out, bytes=%lld in / "
                  "%lld out\n",
                  static_cast<long long>(t.frames_in),
                  static_cast<long long>(t.frames_out),
                  static_cast<long long>(t.bytes_in),
                  static_cast<long long>(t.bytes_out));
  }
  for (const StageStats& stage : health.stages) {
    const double mean =
        stage.samples > 0
            ? stage.total_us / static_cast<double>(stage.samples)
            : 0.0;
    AppendHealthF(&out,
                  "  %-18s n=%-8lld mean=%-8.2f p50=%-8.2f "
                  "p99=%-8.2f max=%.2f (us)\n",
                  StageName(stage.stage),
                  static_cast<long long>(stage.samples), mean, stage.p50_us,
                  stage.p99_us, stage.max_us);
  }
  for (const AggregatorEngine::SourceStatus& source : health.sources) {
    AppendHealthF(&out,
                  "  source %-16s epoch=%-6lld behind=%-4lld metrics=%-4zu "
                  "frames=%lld+%lldd %s\n",
                  source.source.c_str(),
                  static_cast<long long>(source.epoch),
                  static_cast<long long>(source.epochs_behind),
                  source.metric_count,
                  static_cast<long long>(source.full_frames),
                  static_cast<long long>(source.delta_frames),
                  source.stale ? "STALE" : "fresh");
    if (source.connects > 0) {
      AppendHealthF(&out,
                    "    transport: %s connects=%lld last_seen_unix_s=%lld\n",
                    source.connected ? "connected" : "DISCONNECTED",
                    static_cast<long long>(source.connects),
                    static_cast<long long>(source.last_seen_unix_s));
    }
  }
  return out;
}

std::string FleetHealthToJson(
    const AggregatorEngine::FleetHealthSnapshot& health) {
  std::string out = "{";
  AppendHealthF(&out,
                "\"fleet_epoch\": %lld, \"sources_fresh\": %lld, "
                "\"sources_stale\": %lld, \"ingests\": %lld, "
                "\"rejected_reordered\": %lld, \"rejected_invalid\": %lld, "
                "\"decode_failures\": %lld, \"wire_bytes_ingested\": %lld, "
                "\"delta_ingests\": %lld, \"resyncs_requested\": %lld, "
                "\"wire_bytes_delta_ingested\": %lld, "
                "\"queries\": %lld, ",
                static_cast<long long>(health.fleet_epoch),
                static_cast<long long>(health.sources_fresh),
                static_cast<long long>(health.sources_stale),
                static_cast<long long>(health.ingests),
                static_cast<long long>(health.rejected_reordered),
                static_cast<long long>(health.rejected_invalid),
                static_cast<long long>(health.decode_failures),
                static_cast<long long>(health.wire_bytes_ingested),
                static_cast<long long>(health.delta_ingests),
                static_cast<long long>(health.resyncs_requested),
                static_cast<long long>(health.wire_bytes_delta_ingested),
                static_cast<long long>(health.queries));
  AppendHealthF(&out,
                "\"reexports\": %lld, \"wire_bytes_reexported\": %lld, "
                "\"delta_reexports\": %lld, "
                "\"wire_bytes_delta_reexported\": %lld, "
                "\"reexport_dropped\": %lld, ",
                static_cast<long long>(health.reexports),
                static_cast<long long>(health.wire_bytes_reexported),
                static_cast<long long>(health.delta_reexports),
                static_cast<long long>(health.wire_bytes_delta_reexported),
                static_cast<long long>(health.reexport_dropped));
  AppendHealthF(&out,
                "\"metrics_retired\": %lld, \"interned_strings\": %zu, ",
                static_cast<long long>(health.metrics_retired),
                health.interned_strings);
  AppendHealthF(&out,
                "\"wal\": {\"enabled\": %s, \"degraded\": %s, "
                "\"records\": %lld, \"checkpoints\": %lld, "
                "\"append_failures\": %lld, \"bytes\": %lld, "
                "\"segments\": %lld, \"fsyncs\": %lld, "
                "\"recovered_epoch\": %lld, \"recovered_sources\": %lld}, ",
                health.wal_enabled ? "true" : "false",
                health.wal_degraded ? "true" : "false",
                static_cast<long long>(health.wal_records),
                static_cast<long long>(health.wal_checkpoints),
                static_cast<long long>(health.wal_append_failures),
                static_cast<long long>(health.wal_bytes),
                static_cast<long long>(health.wal_segments),
                static_cast<long long>(health.wal_fsyncs),
                static_cast<long long>(health.wal_recovered_epoch),
                static_cast<long long>(health.wal_recovered_sources));
  if (health.has_transport) {
    const AggregatorEngine::TransportCounters& t = health.transport;
    AppendHealthF(&out,
                  "\"transport\": {\"active_connections\": %lld, "
                  "\"accepts\": %lld, \"auth_failures\": %lld, "
                  "\"disconnects\": %lld, \"frames_in\": %lld, "
                  "\"frames_out\": %lld, \"bytes_in\": %lld, "
                  "\"bytes_out\": %lld, \"backpressure_stalls\": %lld}, ",
                  static_cast<long long>(t.active_connections),
                  static_cast<long long>(t.accepts),
                  static_cast<long long>(t.auth_failures),
                  static_cast<long long>(t.disconnects),
                  static_cast<long long>(t.frames_in),
                  static_cast<long long>(t.frames_out),
                  static_cast<long long>(t.bytes_in),
                  static_cast<long long>(t.bytes_out),
                  static_cast<long long>(t.backpressure_stalls));
  }
  out += "\"stages\": [";
  for (size_t i = 0; i < health.stages.size(); ++i) {
    const StageStats& stage = health.stages[i];
    AppendHealthF(&out,
                  "%s{\"stage\": \"%s\", \"samples\": %lld, "
                  "\"total_us\": %.3f, \"max_us\": %.3f, \"p50_us\": %.3f, "
                  "\"p99_us\": %.3f}",
                  i == 0 ? "" : ", ", StageName(stage.stage),
                  static_cast<long long>(stage.samples), stage.total_us,
                  stage.max_us, stage.p50_us, stage.p99_us);
  }
  out += "], \"sources\": [";
  for (size_t i = 0; i < health.sources.size(); ++i) {
    const AggregatorEngine::SourceStatus& source = health.sources[i];
    AppendHealthF(&out, "%s{\"source\": \"", i == 0 ? "" : ", ");
    AppendHealthEscaped(source.source, &out);
    AppendHealthF(&out,
                  "\", \"epoch\": %lld, \"stale\": %s, "
                  "\"epochs_behind\": %lld, \"metric_count\": %zu, "
                  "\"full_frames\": %lld, \"delta_frames\": %lld, "
                  "\"connected\": %s, \"connects\": %lld, "
                  "\"last_seen_unix_s\": %lld}",
                  static_cast<long long>(source.epoch),
                  source.stale ? "true" : "false",
                  static_cast<long long>(source.epochs_behind),
                  source.metric_count,
                  static_cast<long long>(source.full_frames),
                  static_cast<long long>(source.delta_frames),
                  source.connected ? "true" : "false",
                  static_cast<long long>(source.connects),
                  static_cast<long long>(source.last_seen_unix_s));
  }
  out += "]}";
  return out;
}

}  // namespace engine
}  // namespace qlove
