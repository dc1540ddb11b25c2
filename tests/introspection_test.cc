// Copyright 2026 The QLOVE Reproduction Authors
// The dogfooded self-metrics layer (engine/introspection.h): reserved
// `__qlove/` namespace enforcement, counter exactness under concurrent
// writers, stage sketches served through the ordinary query surface,
// wire export opt-in and fleet rollup, the slow-query log, and the
// runtime off switch.

#include "engine/introspection.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/metric_key.h"
#include "engine/query.h"
#include "engine/wire.h"
#include "export_util.h"

namespace qlove {
namespace engine {
namespace {

MetricKey UserKey() { return MetricKey("rtt_us", {{"service", "search"}}); }

TEST(IntrospectionNamespaceTest, ReservedNamesRejectedForUserMetrics) {
  EXPECT_TRUE(IsReservedMetricName("__qlove/stage_us"));
  EXPECT_TRUE(IsReservedMetricName("__qlove/"));
  // The prefix requires the slash: a user metric merely *starting* with
  // the marker text is unusual but legal.
  EXPECT_FALSE(IsReservedMetricName("__qlove"));
  EXPECT_FALSE(IsReservedMetricName("__qlovex/stage_us"));
  EXPECT_FALSE(IsReservedMetricName("rtt_us"));

  TelemetryEngine engine;
  const MetricKey reserved("__qlove/stage_us", {{"stage", "tick"}});
  EXPECT_FALSE(engine.RegisterMetric(reserved).ok());
  EXPECT_FALSE(engine.Record(reserved, 1.0).ok());
  const std::vector<double> batch = {1.0, 2.0};
  EXPECT_FALSE(engine.RecordBatch(reserved, batch).ok());
  // Rejection is a registration-surface contract, independent of whether
  // the layer is running.
  EngineOptions off;
  off.introspection = false;
  TelemetryEngine disabled(off);
  EXPECT_FALSE(disabled.RegisterMetric(reserved).ok());

  // Near-misses register fine.
  EXPECT_TRUE(engine.RegisterMetric(MetricKey("__qlove")).ok());
  EXPECT_TRUE(engine.RegisterMetric(MetricKey("__qlovex/stage_us")).ok());
}

TEST(IntrospectionNamespaceTest, StageMetricKeysAreStableAndReserved) {
  EXPECT_EQ(StageMetricKey(Stage::kTick).ToString(),
            "__qlove/stage_us{stage=tick}");
  EXPECT_EQ(StageMetricKey(Stage::kQuantizeBatch).ToString(),
            "__qlove/stage_us{stage=quantize_batch}");
  for (int s = 0; s < kStageCount; ++s) {
    const MetricKey& key = StageMetricKey(static_cast<Stage>(s));
    EXPECT_TRUE(IsReservedMetricName(key.name())) << key.ToString();
    // Stable reference: repeated lookups return the same object.
    EXPECT_EQ(&key, &StageMetricKey(static_cast<Stage>(s)));
  }
}

TEST(IntrospectionCountersTest, ExactAndMonotoneUnderConcurrentWriters) {
  TelemetryEngine engine;
  const MetricKey key = UserKey();
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 10000;

  // A sampler races the writers and checks that every cumulative counter
  // only ever moves forward (relaxed atomics, but each is a single
  // fetch_add stream).
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    CountersSnapshot prev;
    while (!done.load(std::memory_order_acquire)) {
      const CountersSnapshot now = engine.Stats().counters;
      EXPECT_GE(now.events_recorded, prev.events_recorded);
      EXPECT_GE(now.flush_batches, prev.flush_batches);
      EXPECT_GE(now.drain_batches, prev.drain_batches);
      EXPECT_GE(now.events_drained, prev.events_drained);
      EXPECT_GE(now.ring_highwater, prev.ring_highwater);
      EXPECT_GE(now.ticks, prev.ticks);
      prev = now;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, &key, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(engine.Record(key, static_cast<double>(w * 1000 + i)).ok());
      }
      engine.Flush();  // make the tail visible before joining
    });
  }
  for (std::thread& t : writers) t.join();
  engine.Tick();  // drain every ring
  done.store(true, std::memory_order_release);
  sampler.join();

  // The oracle: every recorded value was flushed, drained, and accepted.
  const CountersSnapshot counters = engine.Stats().counters;
  EXPECT_EQ(counters.events_recorded, kWriters * kPerWriter);
  EXPECT_EQ(counters.events_drained, kWriters * kPerWriter);
  EXPECT_EQ(counters.values_rejected, 0);
  EXPECT_GT(counters.flush_batches, 0);
  EXPECT_GT(counters.drain_batches, 0);
  EXPECT_GT(counters.ring_highwater, 0);
  EXPECT_EQ(counters.ticks, 1);
  EXPECT_EQ(engine.TotalRecorded(key), kWriters * kPerWriter);
}

TEST(IntrospectionCountersTest, CorruptTelemetryCountsAsRejected) {
  TelemetryEngine engine;
  const MetricKey key = UserKey();
  std::vector<double> batch = {1.0, std::numeric_limits<double>::quiet_NaN(),
                               2.0, std::numeric_limits<double>::infinity(),
                               3.0};
  ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
  engine.Tick();
  const CountersSnapshot counters = engine.Stats().counters;
  EXPECT_EQ(counters.events_recorded, 5);
  EXPECT_EQ(counters.events_drained, 5);
  EXPECT_EQ(counters.values_rejected, 2);
  EXPECT_EQ(engine.TotalRecorded(key), 3);
}

TEST(IntrospectionQueryTest, StageSketchesServeThroughQuery) {
  TelemetryEngine engine;
  const MetricKey key = UserKey();
  std::vector<double> batch(1024);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<double>(i);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
    engine.Tick();
  }

  // quantize_batch samples were buffered by the flushes and published by
  // the Ticks; the sketch answers like any other metric.
  auto result = engine.Query(
      QuerySpec::ForKey(StageMetricKey(Stage::kQuantizeBatch))
          .With(QueryRequest::Quantile(0.5))
          .With(QueryRequest::Quantile(0.99))
          .With(QueryRequest::Count()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& answer = result.ValueOrDie();
  ASSERT_EQ(answer.outcomes.size(), 3u);
  ASSERT_TRUE(answer.outcomes[0].status.ok());
  EXPECT_GE(answer.outcomes[0].value, 0.0);
  EXPECT_GT(answer.window_count, 0);

  // Tick latency publishes one Tick later (the sample is taken at the end
  // of the Tick that produced it); after three Ticks it is queryable too.
  auto tick_result =
      engine.Query(QuerySpec::ForKey(StageMetricKey(Stage::kTick))
                       .With(QueryRequest::Quantile(0.99)));
  ASSERT_TRUE(tick_result.ok()) << tick_result.status().ToString();

  // A selector naming the reserved metric family rolls all stages up.
  auto rollup =
      engine.Query(QuerySpec::ForSelector({std::string(kStageMetricName), {}})
                       .With(QueryRequest::Count()));
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  EXPECT_GE(rollup.ValueOrDie().matched.size(), 2u);

  // Stats() reads its p50/p99 through the same sketches.
  const EngineStats stats = engine.Stats();
  bool saw_quantize = false;
  for (const StageStats& stage : stats.stages) {
    if (stage.stage == Stage::kQuantizeBatch) {
      saw_quantize = true;
      EXPECT_GT(stage.samples, 0);
      EXPECT_GT(stage.max_us, 0.0);
      EXPECT_GT(stage.p99_us, 0.0);
    }
  }
  EXPECT_TRUE(saw_quantize);
}

TEST(IntrospectionQueryTest, UserSurfacesNeverSeeInternalMetrics) {
  TelemetryEngine engine;
  const MetricKey key = UserKey();
  std::vector<double> batch = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
  engine.Tick();
  engine.Tick();

  // metric_count and the wildcard selector are user-only.
  EXPECT_EQ(engine.metric_count(), 1u);
  auto wildcard = engine.Query(
      QuerySpec::ForSelector({"", {}}).With(QueryRequest::Count()));
  ASSERT_TRUE(wildcard.ok());
  ASSERT_EQ(wildcard.ValueOrDie().matched.size(), 1u);
  EXPECT_EQ(wildcard.ValueOrDie().matched[0], key);

  // The default export excludes internals too (wire consumers pinning
  // exact bytes must opt in to nondeterministic timing sketches).
  const WireSnapshot plain = test_util::FullSnapshot(engine, "host-1");
  EXPECT_EQ(plain.metrics.size(), 1u);
  for (const WireMetricSummary& metric : plain.metrics) {
    EXPECT_FALSE(IsReservedMetricName(metric.key.name()))
        << metric.key.ToString();
  }
}

TEST(IntrospectionWireTest, SelfMetricsExportAndRollUpThroughAggregator) {
  TelemetryEngine engine;
  const MetricKey key = UserKey();
  std::vector<double> batch(512);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<double>(i);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
    engine.Tick();
  }

  ExportOptions with_self;
  with_self.include_self_metrics = true;
  std::vector<uint8_t> encoded;
  ExportCursor cursor;
  ASSERT_TRUE(engine.Export("host-1", &cursor, &encoded, with_self).ok());

  // Export feeds the wire counters of the exporting engine.
  const CountersSnapshot counters = engine.Stats().counters;
  EXPECT_EQ(counters.exports, 1);
  EXPECT_EQ(counters.wire_bytes_encoded, static_cast<int64_t>(encoded.size()));

  auto decoded = DecodeFrame(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const WireFrame& snapshot = decoded.ValueOrDie();
  size_t internal_metrics = 0;
  for (size_t i = 0; i < snapshot.metrics.size(); ++i) {
    if (IsReservedMetricName(snapshot.metrics[i].key.name())) {
      ++internal_metrics;
    }
    if (i > 0) {  // the aggregator enforces canonical order on ingest
      EXPECT_TRUE(snapshot.metrics[i - 1].key < snapshot.metrics[i].key);
    }
  }
  EXPECT_GE(internal_metrics, 1u);

  // Ship the encoded bytes into an aggregator and query the fleet's own
  // health metric exactly like a user metric.
  AggregatorEngine aggregator;
  ASSERT_TRUE(aggregator.IngestFrame(encoded).ok());
  auto fleet = aggregator.Query(
      QuerySpec::ForKey(StageMetricKey(Stage::kQuantizeBatch))
          .With(QueryRequest::Quantile(0.99)));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_TRUE(fleet.ValueOrDie().outcomes[0].status.ok());
  EXPECT_GT(fleet.ValueOrDie().window_count, 0);
}

TEST(IntrospectionSlowQueryTest, LogAndHookCaptureOverThreshold) {
  EngineOptions options;
  options.slow_query_threshold_us = 1e-6;  // everything is "slow"
  options.slow_query_log_capacity = 2;
  TelemetryEngine engine(options);
  const MetricKey key = UserKey();
  std::vector<double> batch = {1.0, 2.0, 3.0};
  ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
  engine.Tick();

  std::atomic<int> hook_calls{0};
  engine.SetSlowQueryHook(
      [&hook_calls](const SlowQueryRecord&) { ++hook_calls; });
  for (int i = 0; i < 3; ++i) {
    auto result = engine.Query(QuerySpec::ForKey(key)
                                   .With(QueryRequest::Quantile(0.5)));
    ASSERT_TRUE(result.ok());
  }

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.counters.queries, 3);
  EXPECT_EQ(stats.counters.slow_queries, 3);
  EXPECT_EQ(hook_calls.load(), 3);
  // Bounded ring: capacity 2, oldest evicted.
  ASSERT_EQ(stats.slow_queries.size(), 2u);
  for (const SlowQueryRecord& record : stats.slow_queries) {
    EXPECT_NE(record.spec.find("rtt_us"), std::string::npos) << record.spec;
    EXPECT_NE(record.spec.find("quantile(0.5)"), std::string::npos)
        << record.spec;
    EXPECT_GE(record.micros, 0.0);
    EXPECT_EQ(record.matched, 1);
    EXPECT_TRUE(record.ok);
  }

  // Reserved-key queries serve the self-metrics without feeding the query
  // counters back into themselves (no observation feedback).
  const int64_t queries_before = engine.Stats().counters.queries;
  (void)engine.Query(QuerySpec::ForKey(StageMetricKey(Stage::kTick))
                         .With(QueryRequest::Count()));
  EXPECT_EQ(engine.Stats().counters.queries, queries_before);
}

TEST(IntrospectionStatsTest, FootprintsAndRenderersCoverBothRegistries) {
  TelemetryEngine engine;
  const MetricKey key = UserKey();
  std::vector<double> batch = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
  engine.Tick();

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.metric_count, 1u);
  ASSERT_GE(stats.metrics.size(), 1u);
  int64_t summed = 0;
  bool saw_user = false;
  for (const MetricFootprint& metric : stats.metrics) {
    EXPECT_GT(metric.memory_bytes, 0) << metric.key.ToString();
    EXPECT_GE(metric.inflight, 0);
    EXPECT_EQ(metric.internal, IsReservedMetricName(metric.key.name()));
    summed += metric.memory_bytes;
    saw_user |= metric.key == key;
  }
  EXPECT_TRUE(saw_user);
  EXPECT_EQ(stats.total_memory_bytes, summed);

  const std::string text = FormatEngineStats(stats);
  EXPECT_NE(text.find("rtt_us"), std::string::npos);
  EXPECT_NE(text.find("recorded="), std::string::npos);
  const std::string json = EngineStatsToJson(stats);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"events_recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(IntrospectionStatsTest, RuntimeDisabledCompilesToInertLayer) {
  EngineOptions options;
  options.introspection = false;
  TelemetryEngine engine(options);
  const MetricKey key = UserKey();
  std::vector<double> batch = {1.0, 2.0, 3.0};
  ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
  engine.Tick();

  const EngineStats stats = engine.Stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.counters.events_recorded, 0);
  EXPECT_TRUE(stats.stages.empty());
  EXPECT_EQ(stats.internal_metric_count, 0u);
  // No internal registry entries: reserved keys answer NotFound.
  auto result = engine.Query(QuerySpec::ForKey(StageMetricKey(Stage::kTick))
                                 .With(QueryRequest::Count()));
  EXPECT_FALSE(result.ok());
  // The data path itself is untouched.
  EXPECT_EQ(engine.TotalRecorded(key), 3);
  engine.SetSlowQueryHook([](const SlowQueryRecord&) {});  // harmless no-op
}

TEST(IntrospectionStatsTest, InflightReadsNeverGoNegativeUnderRaces) {
  // InflightCount is a sum of two independently-updated relaxed counters
  // (ring pending + backend inflight): a reader racing a drain can see
  // the decrement before the increment, so the raw sum is transiently
  // negative and the accessor clamps (see ShardRing::pending). Hammer the
  // race and assert the clamp holds on every surfaced reading.
  EngineOptions options;
  options.num_shards = 1;  // one ring: maximum reader/drainer interleaving
  TelemetryEngine engine(options);
  const MetricKey key = UserKey();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const MetricFootprint& metric : engine.Stats().metrics) {
        ASSERT_GE(metric.inflight, 0) << metric.key.ToString();
      }
      auto result = engine.Query(QuerySpec::ForKey(key)
                                     .With(QueryRequest::Count()));
      if (result.ok()) {
        ASSERT_GE(result.ValueOrDie().inflight_count, 0);
      }
    }
  });
  std::vector<double> batch(256, 1.0);
  for (int round = 0; round < 400; ++round) {
    ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
    if (round % 16 == 0) engine.Tick();
  }
  done.store(true, std::memory_order_release);
  reader.join();
}

TEST(AggregatorFleetHealthTest, CountersStalenessAndRenderers) {
  TelemetryEngine agent_a;
  TelemetryEngine agent_b;
  const MetricKey key = UserKey();
  std::vector<double> batch = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(agent_a.RecordBatch(key, batch).ok());
  ASSERT_TRUE(agent_b.RecordBatch(key, batch).ok());

  AggregatorEngine aggregator;
  // Agent A reports twice (epochs 1, 2); agent B reports once and then
  // falls behind as A keeps ticking past the staleness budget.
  agent_a.Tick();
  agent_b.Tick();
  ASSERT_TRUE(
      aggregator.IngestFrame(test_util::FullFrame(agent_a, "host-a")).ok());
  ASSERT_TRUE(
      aggregator.IngestFrame(test_util::FullFrame(agent_b, "host-b")).ok());
  for (int i = 0; i < 4; ++i) agent_a.Tick();
  ASSERT_TRUE(
      aggregator.IngestFrame(test_util::FullFrame(agent_a, "host-a")).ok());

  // A decode failure and a reordered (stale-epoch) frame feed the reject
  // counters without disturbing held state.
  const std::vector<uint8_t> garbage = {0x00, 0x01, 0x02, 0x03};
  EXPECT_FALSE(aggregator.IngestFrame(garbage).ok());
  WireSnapshot stale = test_util::FullSnapshot(agent_a, "host-a");
  stale.epoch = 4;  // held epoch is 5; regression of 1 <= budget 2
  EXPECT_FALSE(aggregator.IngestFrame(EncodeSnapshotV2(stale)).ok());

  const AggregatorEngine::FleetHealthSnapshot health =
      aggregator.FleetHealth();
  EXPECT_EQ(health.fleet_epoch, 5);
  EXPECT_EQ(health.ingests, 3);
  EXPECT_EQ(health.rejected_reordered, 1);
  EXPECT_EQ(health.decode_failures, 1);
  EXPECT_GT(health.wire_bytes_ingested, 0);
  EXPECT_EQ(health.sources_fresh + health.sources_stale, 2);
  ASSERT_EQ(health.sources.size(), 2u);
  EXPECT_EQ(health.sources[0].source, "host-a");
  EXPECT_EQ(health.sources[0].epochs_behind, 0);
  EXPECT_FALSE(health.sources[0].stale);
  EXPECT_EQ(health.sources[1].source, "host-b");
  EXPECT_TRUE(health.sources[1].stale);
  EXPECT_GT(health.sources[1].epochs_behind,
            aggregator.options().staleness_epochs);

  // The dogfooded decode/ingest sketches report latency aggregates.
  bool saw_ingest_stage = false;
  for (const StageStats& stage : health.stages) {
    EXPECT_TRUE(stage.stage == Stage::kWireDecode ||
                stage.stage == Stage::kAggregatorIngest);
    saw_ingest_stage |= stage.stage == Stage::kAggregatorIngest;
    EXPECT_GT(stage.samples, 0);
  }
  EXPECT_TRUE(saw_ingest_stage);

  const std::string text = FormatFleetHealth(health);
  EXPECT_NE(text.find("host-a"), std::string::npos);
  EXPECT_NE(text.find("STALE"), std::string::npos);
  const std::string json = FleetHealthToJson(health);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"sources\""), std::string::npos);
  EXPECT_NE(json.find("\"host-b\""), std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
