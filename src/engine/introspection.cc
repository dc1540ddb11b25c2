#include "engine/introspection.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace qlove {
namespace engine {

namespace {

/// Relaxed fetch-max for the ring high-water gauge.
void AtomicMax(std::atomic<int64_t>* target, int64_t candidate) {
  int64_t current = target->load(std::memory_order_relaxed);
  while (candidate > current &&
         !target->compare_exchange_weak(current, candidate,
                                        std::memory_order_relaxed)) {
  }
}

void AppendEscaped(const std::string& in, std::string* out) {
  for (char c : in) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

std::string HumanBytes(int64_t bytes) {
  char buf[64];
  if (bytes >= (int64_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld B", static_cast<long long>(bytes));
  }
  return buf;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kIngestDrain: return "ingest_drain";
    case Stage::kQuantizeBatch: return "quantize_batch";
    case Stage::kTick: return "tick";
    case Stage::kQuery: return "query";
    case Stage::kWireEncode: return "wire_encode";
    case Stage::kWireDecode: return "wire_decode";
    case Stage::kAggregatorIngest: return "aggregator_ingest";
  }
  return "unknown";
}

const MetricKey& StageMetricKey(Stage stage) {
  // Leaked on purpose (function-local static array of keys): stage keys are
  // process-lifetime constants read from hot-ish paths; no destruction
  // order hazards.
  static const std::array<MetricKey, kStageCount>* keys = [] {
    auto* built = new std::array<MetricKey, kStageCount>();
    for (int s = 0; s < kStageCount; ++s) {
      (*built)[s] =
          MetricKey(std::string(kStageMetricName),
                    {{"stage", StageName(static_cast<Stage>(s))}});
    }
    return built;
  }();
  return (*keys)[static_cast<int>(stage)];
}

Introspection::Introspection(size_t slow_query_capacity)
    : slow_capacity_(slow_query_capacity) {
  for (StageSlot& slot : stages_) {
    slot.pending.reserve(kStageSampleCapacity);
  }
  slow_log_.reserve(slow_capacity_);
}

void Introspection::OnDrain(int64_t drained, int64_t accepted,
                            int64_t pending_before) {
  drain_batches_.fetch_add(1, std::memory_order_relaxed);
  events_drained_.fetch_add(drained, std::memory_order_relaxed);
  if (accepted < drained) {
    values_rejected_.fetch_add(drained - accepted, std::memory_order_relaxed);
  }
  AtomicMax(&ring_highwater_, pending_before);
}

void Introspection::RecordStage(Stage stage, double micros) {
  StageSlot& slot = stages_[static_cast<size_t>(stage)];
  slot.samples.fetch_add(1, std::memory_order_relaxed);
  slot.total_us.fetch_add(micros, std::memory_order_relaxed);
  double max = slot.max_us.load(std::memory_order_relaxed);
  while (micros > max &&
         !slot.max_us.compare_exchange_weak(max, micros,
                                            std::memory_order_relaxed)) {
  }
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.pending.size() < kStageSampleCapacity) {
    slot.pending.push_back(micros);  // within reserved capacity: no alloc
  } else {
    stage_samples_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Introspection::DrainStageSamples(Stage stage,
                                      std::vector<double>* scratch) {
  StageSlot& slot = stages_[static_cast<size_t>(stage)];
  scratch->clear();
  std::lock_guard<std::mutex> lock(slot.mu);
  // Copy-and-clear rather than swap: pending must keep its reserved
  // capacity so RecordStage stays allocation-free forever.
  scratch->assign(slot.pending.begin(), slot.pending.end());
  slot.pending.clear();
}

CountersSnapshot Introspection::Counters() const {
  CountersSnapshot out;
  out.events_recorded = events_recorded_.load(std::memory_order_relaxed);
  out.flush_batches = flush_batches_.load(std::memory_order_relaxed);
  out.drain_batches = drain_batches_.load(std::memory_order_relaxed);
  out.events_drained = events_drained_.load(std::memory_order_relaxed);
  out.values_rejected = values_rejected_.load(std::memory_order_relaxed);
  out.ring_full_stalls = ring_full_stalls_.load(std::memory_order_relaxed);
  out.high_water_drains = high_water_drains_.load(std::memory_order_relaxed);
  out.ring_highwater = ring_highwater_.load(std::memory_order_relaxed);
  out.ticks = ticks_.load(std::memory_order_relaxed);
  out.queries = queries_.load(std::memory_order_relaxed);
  out.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  out.exports = exports_.load(std::memory_order_relaxed);
  out.wire_bytes_encoded =
      wire_bytes_encoded_.load(std::memory_order_relaxed);
  out.delta_exports = delta_exports_.load(std::memory_order_relaxed);
  out.wire_bytes_delta = wire_bytes_delta_.load(std::memory_order_relaxed);
  out.frames_reused = frames_reused_.load(std::memory_order_relaxed);
  out.stage_samples_dropped =
      stage_samples_dropped_.load(std::memory_order_relaxed);
  return out;
}

void Introspection::StageAggregates(std::vector<StageStats>* out) const {
  for (int s = 0; s < kStageCount; ++s) {
    const StageSlot& slot = stages_[static_cast<size_t>(s)];
    const int64_t samples = slot.samples.load(std::memory_order_relaxed);
    if (samples == 0) continue;
    StageStats stats;
    stats.stage = static_cast<Stage>(s);
    stats.samples = samples;
    stats.total_us = slot.total_us.load(std::memory_order_relaxed);
    stats.max_us = slot.max_us.load(std::memory_order_relaxed);
    out->push_back(stats);
  }
}

void Introspection::RecordSlowQuery(SlowQueryRecord record) {
  slow_queries_.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const SlowQueryRecord&)> hook;
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    if (slow_capacity_ > 0) {
      if (slow_log_.size() < slow_capacity_) {
        slow_log_.push_back(record);
      } else {
        slow_log_[slow_next_] = record;  // ring overwrite, oldest first
        slow_next_ = (slow_next_ + 1) % slow_capacity_;
      }
    }
    hook = slow_hook_;
  }
  // Outside the lock: the hook may query the engine (which records more
  // stage samples) without any lock-order entanglement.
  if (hook) hook(record);
}

void Introspection::SetSlowQueryHook(
    std::function<void(const SlowQueryRecord&)> hook) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_hook_ = std::move(hook);
}

std::vector<SlowQueryRecord> Introspection::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  std::vector<SlowQueryRecord> out;
  out.reserve(slow_log_.size());
  // Oldest first: the ring cursor points at the oldest entry once full.
  for (size_t i = 0; i < slow_log_.size(); ++i) {
    out.push_back(slow_log_[(slow_next_ + i) % slow_log_.size()]);
  }
  return out;
}

std::string FormatEngineStats(const EngineStats& stats) {
  std::string out;
  AppendF(&out, "engine introspection: %s\n",
          stats.enabled ? "enabled" : "disabled");
  AppendF(&out,
          "  ticks=%lld  metrics=%zu user + %zu internal  memory=%s\n",
          static_cast<long long>(stats.tick_epochs), stats.metric_count,
          stats.internal_metric_count,
          HumanBytes(stats.total_memory_bytes).c_str());
  AppendF(&out,
          "  cardinality: evictions=%lld degrades=%lld evicted_events=%lld "
          "interned=%zu (%s)  registry=%s\n",
          static_cast<long long>(stats.evictions),
          static_cast<long long>(stats.degrades),
          static_cast<long long>(stats.evicted_events),
          stats.interned_strings,
          HumanBytes(static_cast<int64_t>(stats.interner_bytes)).c_str(),
          HumanBytes(static_cast<int64_t>(stats.registry_bytes)).c_str());
  if (stats.wal_enabled || stats.wal_recovered_epoch > 0 ||
      stats.wal_recovered_metrics > 0) {
    AppendF(&out,
            "  wal: %s%s records=%lld checkpoints=%lld failures=%lld "
            "bytes=%s segments=%lld fsyncs=%lld recovered_epoch=%lld "
            "recovered_metrics=%lld\n",
            stats.wal_enabled ? "enabled" : "disabled",
            stats.wal_degraded ? " DEGRADED(non-durable)" : "",
            static_cast<long long>(stats.wal_records),
            static_cast<long long>(stats.wal_checkpoints),
            static_cast<long long>(stats.wal_append_failures),
            HumanBytes(stats.wal_bytes).c_str(),
            static_cast<long long>(stats.wal_segments),
            static_cast<long long>(stats.wal_fsyncs),
            static_cast<long long>(stats.wal_recovered_epoch),
            static_cast<long long>(stats.wal_recovered_metrics));
  }
  const CountersSnapshot& c = stats.counters;
  AppendF(&out,
          "  events: recorded=%lld drained=%lld rejected=%lld "
          "(flush_batches=%lld drain_batches=%lld)\n",
          static_cast<long long>(c.events_recorded),
          static_cast<long long>(c.events_drained),
          static_cast<long long>(c.values_rejected),
          static_cast<long long>(c.flush_batches),
          static_cast<long long>(c.drain_batches));
  AppendF(&out,
          "  ring: highwater=%lld full_stalls=%lld high_water_drains=%lld\n",
          static_cast<long long>(c.ring_highwater),
          static_cast<long long>(c.ring_full_stalls),
          static_cast<long long>(c.high_water_drains));
  AppendF(&out,
          "  queries=%lld (slow=%lld)  exports=%lld wire_bytes=%lld "
          "(delta_exports=%lld delta_bytes=%lld frames_reused=%lld)  "
          "stage_samples_dropped=%lld\n",
          static_cast<long long>(c.queries),
          static_cast<long long>(c.slow_queries),
          static_cast<long long>(c.exports),
          static_cast<long long>(c.wire_bytes_encoded),
          static_cast<long long>(c.delta_exports),
          static_cast<long long>(c.wire_bytes_delta),
          static_cast<long long>(c.frames_reused),
          static_cast<long long>(c.stage_samples_dropped));
  if (!stats.stages.empty()) {
    out += "  stages (us):\n";
    for (const StageStats& s : stats.stages) {
      const double mean =
          s.samples > 0 ? s.total_us / static_cast<double>(s.samples) : 0.0;
      AppendF(&out,
              "    %-18s n=%-8lld mean=%-10.2f p50=%-10.2f p99=%-10.2f "
              "max=%.2f\n",
              StageName(s.stage), static_cast<long long>(s.samples), mean,
              s.p50_us, s.p99_us, s.max_us);
    }
  }
  if (!stats.slow_queries.empty()) {
    AppendF(&out, "  slow queries (%zu retained):\n",
            stats.slow_queries.size());
    for (const SlowQueryRecord& q : stats.slow_queries) {
      AppendF(&out, "    %.1fus %s %s\n", q.micros,
              q.ok ? "ok" : "FAILED", q.spec.c_str());
    }
  }
  if (!stats.metrics.empty()) {
    out += "  metrics:\n";
    for (const MetricFootprint& m : stats.metrics) {
      AppendF(&out,
              "    %-40s shards=%-3d vars=%-8lld mem=%-10s inflight=%-8lld "
              "added=%lld\n",
              m.key.ToString().c_str(), m.num_shards,
              static_cast<long long>(m.space_variables),
              HumanBytes(m.memory_bytes).c_str(),
              static_cast<long long>(m.inflight),
              static_cast<long long>(m.total_added));
    }
  }
  return out;
}

std::string EngineStatsToJson(const EngineStats& stats) {
  std::string out = "{";
  AppendF(&out, "\"enabled\": %s, \"tick_epochs\": %lld, ",
          stats.enabled ? "true" : "false",
          static_cast<long long>(stats.tick_epochs));
  AppendF(&out, "\"metric_count\": %zu, \"internal_metric_count\": %zu, ",
          stats.metric_count, stats.internal_metric_count);
  AppendF(&out, "\"total_memory_bytes\": %lld, ",
          static_cast<long long>(stats.total_memory_bytes));
  AppendF(&out,
          "\"evictions\": %lld, \"degrades\": %lld, "
          "\"evicted_events\": %lld, \"interned_strings\": %zu, "
          "\"interner_bytes\": %zu, \"registry_bytes\": %zu, ",
          static_cast<long long>(stats.evictions),
          static_cast<long long>(stats.degrades),
          static_cast<long long>(stats.evicted_events),
          stats.interned_strings, stats.interner_bytes,
          stats.registry_bytes);
  AppendF(&out,
          "\"wal\": {\"enabled\": %s, \"degraded\": %s, \"records\": %lld, "
          "\"checkpoints\": %lld, \"append_failures\": %lld, "
          "\"bytes\": %lld, \"segments\": %lld, \"fsyncs\": %lld, "
          "\"recovered_epoch\": %lld, \"recovered_metrics\": %lld}, ",
          stats.wal_enabled ? "true" : "false",
          stats.wal_degraded ? "true" : "false",
          static_cast<long long>(stats.wal_records),
          static_cast<long long>(stats.wal_checkpoints),
          static_cast<long long>(stats.wal_append_failures),
          static_cast<long long>(stats.wal_bytes),
          static_cast<long long>(stats.wal_segments),
          static_cast<long long>(stats.wal_fsyncs),
          static_cast<long long>(stats.wal_recovered_epoch),
          static_cast<long long>(stats.wal_recovered_metrics));
  const CountersSnapshot& c = stats.counters;
  AppendF(&out,
          "\"counters\": {\"events_recorded\": %lld, \"flush_batches\": %lld, "
          "\"drain_batches\": %lld, \"events_drained\": %lld, "
          "\"values_rejected\": %lld, \"ring_full_stalls\": %lld, "
          "\"high_water_drains\": %lld, \"ring_highwater\": %lld, "
          "\"ticks\": %lld, \"queries\": %lld, \"slow_queries\": %lld, "
          "\"exports\": %lld, \"wire_bytes_encoded\": %lld, "
          "\"delta_exports\": %lld, \"wire_bytes_delta\": %lld, "
          "\"frames_reused\": %lld, \"stage_samples_dropped\": %lld}, ",
          static_cast<long long>(c.events_recorded),
          static_cast<long long>(c.flush_batches),
          static_cast<long long>(c.drain_batches),
          static_cast<long long>(c.events_drained),
          static_cast<long long>(c.values_rejected),
          static_cast<long long>(c.ring_full_stalls),
          static_cast<long long>(c.high_water_drains),
          static_cast<long long>(c.ring_highwater),
          static_cast<long long>(c.ticks),
          static_cast<long long>(c.queries),
          static_cast<long long>(c.slow_queries),
          static_cast<long long>(c.exports),
          static_cast<long long>(c.wire_bytes_encoded),
          static_cast<long long>(c.delta_exports),
          static_cast<long long>(c.wire_bytes_delta),
          static_cast<long long>(c.frames_reused),
          static_cast<long long>(c.stage_samples_dropped));
  out += "\"stages\": [";
  for (size_t i = 0; i < stats.stages.size(); ++i) {
    const StageStats& s = stats.stages[i];
    AppendF(&out,
            "%s{\"stage\": \"%s\", \"samples\": %lld, \"total_us\": %.3f, "
            "\"max_us\": %.3f, \"p50_us\": %.3f, \"p99_us\": %.3f}",
            i == 0 ? "" : ", ", StageName(s.stage),
            static_cast<long long>(s.samples), s.total_us, s.max_us,
            s.p50_us, s.p99_us);
  }
  out += "], \"slow_queries\": [";
  for (size_t i = 0; i < stats.slow_queries.size(); ++i) {
    const SlowQueryRecord& q = stats.slow_queries[i];
    AppendF(&out, "%s{\"micros\": %.3f, \"matched\": %lld, \"ok\": %s, ",
            i == 0 ? "" : ", ", q.micros, static_cast<long long>(q.matched),
            q.ok ? "true" : "false");
    out += "\"spec\": \"";
    AppendEscaped(q.spec, &out);
    out += "\"}";
  }
  out += "], \"metrics\": [";
  for (size_t i = 0; i < stats.metrics.size(); ++i) {
    const MetricFootprint& m = stats.metrics[i];
    AppendF(&out, "%s{\"key\": \"", i == 0 ? "" : ", ");
    AppendEscaped(m.key.ToString(), &out);
    AppendF(&out,
            "\", \"internal\": %s, \"num_shards\": %d, "
            "\"space_variables\": %lld, \"ring_slots\": %lld, "
            "\"export_window_bytes\": %lld, "
            "\"memory_bytes\": %lld, \"inflight\": %lld, "
            "\"total_added\": %lld}",
            m.internal ? "true" : "false", m.num_shards,
            static_cast<long long>(m.space_variables),
            static_cast<long long>(m.ring_slots),
            static_cast<long long>(m.export_window_bytes),
            static_cast<long long>(m.memory_bytes),
            static_cast<long long>(m.inflight),
            static_cast<long long>(m.total_added));
  }
  out += "]}";
  return out;
}

}  // namespace engine
}  // namespace qlove
