// High-cardinality lifecycle: the engine must register, serve, and retire
// very large key sets without losing a count or leaving registry debris.
// The stress suite runs a 100k-key register/record/evict cycle against an
// exact per-key count oracle; the concurrency suite races lock-free
// readers (Find via Query/TotalRecorded, SnapshotAll) against
// registration, eviction, and degrade-replacement, and exists chiefly for
// the TSan job — the registry's reader path takes no lock, and this is
// where that claim is checked.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/interner.h"
#include "engine/metric_key.h"
#include "engine/query.h"

namespace qlove {
namespace engine {
namespace {

MetricKey FleetKey(int i) {
  return MetricKey("fleet_rtt_us", {{"host", "h" + std::to_string(i)},
                                    {"dc", (i & 1) ? "eu-1" : "us-2"}});
}

TEST(CardinalityStressTest, HundredThousandKeyRegisterRecordEvictCycle) {
  constexpr int kKeys = 100000;
  EngineOptions options;
  options.num_shards = 1;
  options.shard_ring_capacity = 16;
  options.idle_eviction_windows = 2;
  // Exact backends keep the per-key footprint proportional to the few
  // events each key receives; the cycle is about registry mechanics, not
  // sketch accuracy.
  options.default_backend.kind = BackendKind::kExact;
  TelemetryEngine engine(options);

  std::vector<MetricKey> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) keys.push_back(FleetKey(i));

  // Register + record: key i carries exactly (i % 3) + 1 events.
  std::vector<double> batch = {1.0, 2.0, 3.0};
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        engine.RecordBatch(keys[i], batch.data(), (i % 3) + 1).ok());
  }
  engine.Tick();
  ASSERT_EQ(engine.metric_count(), static_cast<size_t>(kKeys));

  // Oracle: every key answers its exact count through the lock-free
  // lookup path.
  int64_t mismatches = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (engine.TotalRecorded(keys[i]) != (i % 3) + 1) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);

  // The key space interned ~100k host strings exactly once each.
  const EngineStats mid = engine.Stats();
  EXPECT_GE(mid.interned_strings, static_cast<size_t>(kKeys));
  EXPECT_GT(mid.registry_bytes, 0u);

  // Idle horizon: two windows without records retires everything.
  engine.Tick();
  engine.Tick();
  engine.Tick();
  EXPECT_EQ(engine.metric_count(), 0u);
  const EngineStats evicted = engine.Stats();
  EXPECT_EQ(evicted.evictions, kKeys);
  // Every recorded event was owned by an evicted metric.
  int64_t expected_events = 0;
  for (int i = 0; i < kKeys; ++i) expected_events += (i % 3) + 1;
  EXPECT_EQ(evicted.evicted_events, expected_events);

  // Eviction-then-re-register identity: the same key is a fresh metric
  // with a fresh count, found under the same interned ids.
  ASSERT_TRUE(engine.RecordBatch(keys[7], {9.0}).ok());
  engine.Tick();
  EXPECT_EQ(engine.metric_count(), 1u);
  EXPECT_EQ(engine.TotalRecorded(keys[7]), 1);
  auto answer =
      engine.Query(QuerySpec::ForKey(keys[7]).With(QueryRequest::Count()));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.ValueOrDie().window_count, 1);
  // Re-registration minted no new strings: the interner already held
  // every name and value.
  EXPECT_EQ(engine.Stats().interned_strings, evicted.interned_strings);
}

TEST(CardinalityStressTest, BudgetCapsLiveSetUnderRegistrationPressure) {
  EngineOptions options;
  options.num_shards = 1;
  options.shard_ring_capacity = 16;
  options.idle_eviction_windows = 4;
  options.memory_budget_bytes = 64 * 1024;
  TelemetryEngine engine(options);

  // Waves of short-lived keys: each wave records once and goes idle. The
  // budget (a few hundred 16-slot single-shard metrics at most) must hold
  // the live set far below the total ever registered.
  constexpr int kWaves = 12;
  constexpr int kPerWave = 500;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int i = 0; i < kPerWave; ++i) {
      ASSERT_TRUE(
          engine.RecordBatch(FleetKey(wave * kPerWave + i), {1.0}).ok());
    }
    engine.Tick();
  }
  const EngineStats stats = engine.Stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LT(engine.metric_count(), static_cast<size_t>(kWaves * kPerWave));
}

TEST(CardinalityConcurrencyTest, ReadersRaceRegistrationAndEviction) {
  EngineOptions options;
  options.num_shards = 1;
  options.shard_ring_capacity = 64;
  options.idle_eviction_windows = 1;  // aggressive churn
  options.degrade_cardinality_threshold = 32;
  TelemetryEngine engine(options);

  constexpr int kPool = 64;
  std::vector<MetricKey> keys;
  for (int i = 0; i < kPool; ++i) keys.push_back(FleetKey(i));

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};

  // Readers hammer the lock-free paths: keyed lookup, keyed query, and
  // the wildcard rollup over every metric — all racing registration,
  // eviction, and degrade-replacement on the writer side.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      int i = r;
      while (!stop.load(std::memory_order_relaxed)) {
        const MetricKey& key = keys[i % kPool];
        (void)engine.TotalRecorded(key);
        auto result = engine.Query(
            QuerySpec::ForKey(key).With(QueryRequest::Count()));
        (void)result.ok();  // NotFound while evicted is expected
        if (i % 16 == 0) {
          (void)engine.Query(QuerySpec::ForSelector({"", {}})
                                 .With(QueryRequest::Quantile(0.5))
                                 .With(QueryRequest::Count()));
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)engine.Record(keys[i % kPool], static_cast<double>(i % 97));
      if (i % 64 == 0) engine.Flush();
      ++i;
    }
    engine.Flush();
  });

  // Main thread drives ticks: every tick closes windows and retires
  // whatever went idle, so readers keep meeting tombstones and
  // re-registrations.
  for (int round = 0; round < 60; ++round) {
    for (int i = round; i < kPool; i += 3) {
      ASSERT_TRUE(engine.RecordBatch(keys[i], {1.0, 2.0}).ok());
    }
    engine.Tick();
  }
  // On a loaded single-core host the 60 rounds above can finish before the
  // reader threads ever get a timeslice; hold the race open until they have
  // actually exercised the lock-free paths at least once.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  writer.join();
  engine.Flush();
  engine.Tick();

  EXPECT_GT(reads.load(std::memory_order_relaxed), 0);
  // Post-race sanity: the registry still answers coherently.
  const EngineStats stats = engine.Stats();
  EXPECT_LE(engine.metric_count(), static_cast<size_t>(kPool));
  EXPECT_GE(stats.evictions, 0);
  for (int i = 0; i < kPool; ++i) {
    (void)engine.TotalRecorded(keys[i]);
  }
}

}  // namespace
}  // namespace engine
}  // namespace qlove
