#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fewk.h"
#include "core/qlove.h"
#include "engine/metric_key.h"
#include "engine/query.h"
#include "engine/registry.h"
#include "export_util.h"
#include "grid_query.h"
#include "rank_error.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::GridQuery;
using test_util::RankError;

/// \p key's window population, as a Count query reports it.
int64_t WindowCount(const TelemetryEngine& engine, const MetricKey& key) {
  auto answer =
      engine.Query(QuerySpec::ForKey(key).With(QueryRequest::Count()));
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.ok() ? answer.ValueOrDie().window_count : -1;
}

TEST(MetricKeyTest, CanonicalizationAndEquality) {
  const MetricKey a("rtt_us", {{"service", "search"}, {"dc", "eu-1"}});
  const MetricKey b("rtt_us", {{"dc", "eu-1"}, {"service", "search"}});
  EXPECT_EQ(a, b);  // tag order must not matter
  EXPECT_EQ(MetricKeyHash()(a), MetricKeyHash()(b));
  EXPECT_EQ(a.ToString(), "rtt_us{dc=eu-1,service=search}");
  EXPECT_EQ(MetricKey("rtt_us").ToString(), "rtt_us");

  const MetricKey c("rtt_us", {{"dc", "eu-2"}, {"service", "search"}});
  EXPECT_FALSE(a == c);
  const MetricKey d("err_rate", {{"dc", "eu-1"}, {"service", "search"}});
  EXPECT_FALSE(a == d);
}

TEST(MetricKeyTest, WithTagBuilderCanonicalizes) {
  // Tag order through the builder must not matter: WithTag re-canonicalizes
  // on every step, so derived keys hash and compare like constructed ones.
  const MetricKey built =
      MetricKey("rtt_us").WithTag("service", "search").WithTag("dc", "eu-1");
  const MetricKey constructed("rtt_us",
                              {{"dc", "eu-1"}, {"service", "search"}});
  EXPECT_EQ(built, constructed);
  EXPECT_EQ(MetricKeyHash()(built), MetricKeyHash()(constructed));
  EXPECT_EQ(built.ToString(), "rtt_us{dc=eu-1,service=search}");

  // The source key is untouched (WithTag builds a copy).
  const MetricKey base("rtt_us", {{"service", "search"}});
  const MetricKey derived = base.WithTag("host", "h1");
  EXPECT_EQ(base.ToString(), "rtt_us{service=search}");
  EXPECT_EQ(derived.ToString(), "rtt_us{host=h1,service=search}");

  // Fields are read-only through accessors — tags cannot be mutated after
  // construction, so the hash can never go stale (the old public-field
  // footgun).
  EXPECT_EQ(derived.name(), "rtt_us");
  ASSERT_EQ(derived.tags().size(), 2u);
  EXPECT_EQ(derived.tags()[0], (MetricTag{"host", "h1"}));
}

TEST(EngineOptionsTest, Validation) {
  EngineOptions good;
  EXPECT_TRUE(good.Validate().ok());

  EngineOptions bad = good;
  bad.num_shards = 0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.shard_window = WindowSpec(100, 33);  // not aligned
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.phis = {};
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.phis = {0.5, 1.5};
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.thread_buffer_capacity = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(EngineOptionsTest, ValidationRejectsImpossibleBackendCombos) {
  // A GK-family epsilon too coarse to resolve a requested quantile must
  // fail at Validate, not at first Query.
  EngineOptions options;
  options.default_backend.kind = BackendKind::kGk;
  options.default_backend.epsilon = 0.02;
  options.phis = {0.5, 0.999};  // 1 - 0.999 < epsilon
  EXPECT_FALSE(options.Validate().ok());
  options.default_backend.epsilon = 0.0005;
  EXPECT_TRUE(options.Validate().ok());
  options.phis = {0.5, 1.0};  // exact max: unresolvable by any rank sketch
  EXPECT_FALSE(options.Validate().ok());

  // A few-k plan that captures no tail material (top-k statistically
  // efficient under a raised inefficiency threshold AND sampling disabled)
  // could never leave Level-2: reject the combination up front.
  options = EngineOptions();
  options.default_backend.qlove.fewk.ts = 1;
  options.default_backend.qlove.fewk.samplek_fraction = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.default_backend.qlove.enable_fewk = false;
  EXPECT_TRUE(options.Validate().ok());

  // Kind-specific knobs out of range.
  options = EngineOptions();
  options.default_backend.qlove.burst_significance = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options = EngineOptions();
  options.default_backend.kind = BackendKind::kCmqs;
  options.default_backend.epsilon = 1.5;
  options.phis = {0.5};
  EXPECT_FALSE(options.Validate().ok());
}

TEST(EngineTest, RegisterMetricRejectsBackendKindConflict) {
  TelemetryEngine engine;
  const MetricKey key("conflicted");
  BackendOptions gk;
  gk.kind = BackendKind::kGk;
  gk.epsilon = 0.0005;
  ASSERT_TRUE(engine.RegisterMetric(key, gk).ok());
  ASSERT_TRUE(engine.RegisterMetric(key, gk).ok());  // same kind: no-op

  BackendOptions exact;
  exact.kind = BackendKind::kExact;
  const Status conflict = engine.RegisterMetric(key, exact);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.code(), Status::Code::kFailedPrecondition);

  // Same kind under different knobs is a conflict too: the metric would
  // silently keep serving with the old rank budget.
  BackendOptions gk_fine = gk;
  gk_fine.epsilon = 0.0001;
  const Status knob_conflict = engine.RegisterMetric(key, gk_fine);
  EXPECT_FALSE(knob_conflict.ok());
  EXPECT_EQ(knob_conflict.code(), Status::Code::kFailedPrecondition);

  // The one-arg form claims the engine's default backend and must conflict
  // the same way (ensure-exists without a configuration claim is Record).
  EXPECT_FALSE(engine.RegisterMetric(key).ok());
  EXPECT_TRUE(engine.Record(key, 1.0).ok());  // auto-registration: no claim
  EXPECT_EQ(engine.metric_count(), 1u);
}

TEST(EngineTest, QueryOfUnknownMetricIsNotFound) {
  TelemetryEngine engine;
  auto answer = GridQuery(engine, MetricKey("nope"));
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(engine.TotalRecorded(MetricKey("nope")), 0);
}

TEST(EngineTest, RegistrationIsIdempotentAndRecordAutoRegisters) {
  TelemetryEngine engine;
  const MetricKey key("latency_us", {{"service", "search"}});
  ASSERT_TRUE(engine.RegisterMetric(key).ok());
  ASSERT_TRUE(engine.RegisterMetric(key).ok());
  EXPECT_EQ(engine.metric_count(), 1u);

  ASSERT_TRUE(engine.Record(MetricKey("other"), 1.0).ok());
  EXPECT_EQ(engine.metric_count(), 2u);
}

TEST(EngineTest, BatchIngestCountsAndWindowEviction) {
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = WindowSpec(1024, 256);  // 4 sub-windows per shard
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");

  workload::NetMonGenerator gen(3);
  const int64_t per_tick = 4 * 256;  // fills one sub-window on every shard
  // 10 ticks > 4 sub-windows: the oldest 6 must have been evicted.
  for (int tick = 0; tick < 10; ++tick) {
    const std::vector<double> batch = workload::Materialize(&gen, per_tick);
    ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
    engine.Tick();
  }

  EXPECT_EQ(engine.TotalRecorded(key), 10 * per_tick);
  auto answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  const QueryResult& s = answer.ValueOrDie();
  EXPECT_EQ(s.window_count, 4 * per_tick);  // exactly the live window
  EXPECT_EQ(s.num_summaries, 4);  // 4 sub-windows, shards coalesced
  EXPECT_EQ(s.num_shards, 4);
  EXPECT_EQ(s.inflight_count, 0);
}

TEST(EngineTest, BufferedRecordsInvisibleUntilFlush) {
  EngineOptions options;
  options.thread_buffer_capacity = 1024;  // never auto-flushes in this test
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Record(key, 1.0 + i).ok());
  }
  EXPECT_EQ(engine.TotalRecorded(key), 0);  // still in the thread buffer
  engine.Flush();
  EXPECT_EQ(engine.TotalRecorded(key), 100);
  engine.Tick();
  EXPECT_EQ(WindowCount(engine, key), 100);
}

// The acceptance-criteria test: concurrent ingest from 4 writer threads
// across 2 metric keys; merged grid quantiles must match a
// single-threaded QloveOperator oracle within the operator's rank-error
// tolerance, and no update may be lost.
TEST(EngineTest, ConcurrentIngestMatchesSingleOperatorOracle) {
  constexpr int kThreads = 4;
  constexpr int kShards = 4;
  constexpr int64_t kPerThreadPerPhase = 2048;
  constexpr int64_t kPhaseSize = kThreads * kPerThreadPerPhase;  // 8192
  constexpr int kPhases = 8;  // exactly one full window
  constexpr int64_t kWindow = kPhaseSize * kPhases;              // 65536

  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window =
      WindowSpec(kWindow / kShards, kPhaseSize / kShards);  // 16384 / 2048
  TelemetryEngine engine(options);

  const std::vector<MetricKey> keys = {
      MetricKey("rtt_us", {{"service", "netmon"}}),
      MetricKey("rtt_us", {{"service", "search"}}),
  };

  // Pre-materialize per-(metric, thread) slices so the oracle sees the same
  // multiset the engine ingests.
  std::vector<std::vector<std::vector<double>>> slices(keys.size());
  for (size_t m = 0; m < keys.size(); ++m) {
    slices[m].resize(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workload::NetMonGenerator gen(100 + 10 * m + t);
      slices[m][t] =
          workload::Materialize(&gen, kPerThreadPerPhase * kPhases);
    }
  }

  for (int phase = 0; phase < kPhases; ++phase) {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t, phase] {
        for (size_t m = 0; m < keys.size(); ++m) {
          const double* begin =
              slices[m][t].data() + phase * kPerThreadPerPhase;
          for (int64_t i = 0; i < kPerThreadPerPhase; ++i) {
            EXPECT_TRUE(engine.Record(keys[m], begin[i]).ok());
          }
        }
        engine.Flush();  // writers flush before the phase barrier
      });
    }
    for (std::thread& w : writers) w.join();
    engine.Tick();
  }

  for (size_t m = 0; m < keys.size(); ++m) {
    SCOPED_TRACE(keys[m].ToString());
    // No lost updates.
    EXPECT_EQ(engine.TotalRecorded(keys[m]), kWindow);
    auto answer = GridQuery(engine, keys[m]);
    ASSERT_TRUE(answer.ok());
    const QueryResult& merged = answer.ValueOrDie();
    EXPECT_EQ(merged.window_count, kWindow);

    // Single-threaded oracle over the identical multiset, same boundaries.
    core::QloveOperator oracle;
    ASSERT_TRUE(
        oracle.Initialize(WindowSpec(kWindow, kPhaseSize), options.phis).ok());
    for (int phase = 0; phase < kPhases; ++phase) {
      for (int t = 0; t < kThreads; ++t) {
        const double* begin = slices[m][t].data() + phase * kPerThreadPerPhase;
        for (int64_t i = 0; i < kPerThreadPerPhase; ++i) {
          oracle.Add(begin[i]);
        }
      }
      oracle.OnSubWindowBoundary();
    }
    const std::vector<double> oracle_estimates = oracle.ComputeQuantiles();

    std::vector<double> sorted;
    sorted.reserve(kWindow);
    for (int t = 0; t < kThreads; ++t) {
      sorted.insert(sorted.end(), slices[m][t].begin(), slices[m][t].end());
    }
    std::sort(sorted.begin(), sorted.end());

    for (size_t i = 0; i < options.phis.size(); ++i) {
      const double phi = options.phis[i];
      const double merged_err =
          RankError(sorted, merged.outcomes[i].value, phi);
      const double oracle_err =
          RankError(sorted, oracle_estimates[i], phi);
      SCOPED_TRACE("phi=" + std::to_string(phi) +
                   " merged_err=" + std::to_string(merged_err) +
                   " oracle_err=" + std::to_string(oracle_err));
      // Within the operator's own tolerance: no worse than the oracle plus
      // the cross-shard merging slack.
      EXPECT_LE(merged_err, oracle_err + 0.02);
      EXPECT_LE(merged_err, phi >= 0.99 ? 0.01 : 0.03);
    }
    // High quantiles whose per-shard plan enables top-k merging must keep
    // their few-k correction across shards. (Quantiles whose plan relies
    // on sample-k alone — here p99, whose per-sub-window tail is above the
    // Ts inefficiency threshold — only leave Level-2 when burst detection
    // fires, which is scheduling-dependent under concurrent striping, so
    // no deterministic source assertion is possible for them.)
    for (size_t i = 0; i < options.phis.size(); ++i) {
      const double phi = options.phis[i];
      if (phi < 0.99 || phi >= 1.0) continue;
      const core::FewKPlan plan =
          core::PlanFewK(phi, options.shard_window.size,
                         options.shard_window.period, core::QloveOptions().fewk);
      if (plan.topk_enabled) {
        EXPECT_NE(merged.outcomes[i].source, core::OutcomeSource::kLevel2)
            << "phi=" << phi;
      }
    }
  }
}

// Shard-merge accuracy against the exact quantiles (sketch/exact semantics:
// paper rank r = ceil(phi N) over the raw window), single-threaded so the
// only error sources are quantization, Level-2 averaging, and sharding.
TEST(EngineTest, ShardMergeAccuracyAgainstExact) {
  constexpr int kShards = 4;
  constexpr int64_t kPeriod = 4096;
  constexpr int kSubWindows = 8;
  constexpr int64_t kWindow = kPeriod * kSubWindows;  // 32768

  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window = WindowSpec(kWindow / kShards, kPeriod / kShards);
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");

  workload::NetMonGenerator gen(42);
  const std::vector<double> data = workload::Materialize(&gen, kWindow);
  for (int sub = 0; sub < kSubWindows; ++sub) {
    ASSERT_TRUE(engine
                    .RecordBatch(key, data.data() + sub * kPeriod,
                                 static_cast<size_t>(kPeriod))
                    .ok());
    engine.Tick();
  }

  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  auto answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  const QueryResult& merged = answer.ValueOrDie();
  ASSERT_EQ(merged.outcomes.size(), options.phis.size());
  EXPECT_EQ(merged.window_count, kWindow);

  double previous = -1.0;
  for (size_t i = 0; i < options.phis.size(); ++i) {
    const double phi = options.phis[i];
    const double estimate = merged.outcomes[i].value;
    const double err = RankError(sorted, estimate, phi);
    SCOPED_TRACE("phi=" + std::to_string(phi) +
                 " estimate=" + std::to_string(estimate) +
                 " err=" + std::to_string(err));
    EXPECT_LE(err, phi >= 0.99 ? 0.005 : 0.02);
    EXPECT_GE(estimate, previous);  // monotone in phi
    previous = estimate;
  }
}

TEST(EngineTest, ConcurrentRegistrationOfOneKeyCreatesOneMetric) {
  TelemetryEngine engine;
  const MetricKey key("races");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(engine.Record(key, static_cast<double>(i)).ok());
      }
      engine.Flush();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(engine.metric_count(), 1u);
  EXPECT_EQ(engine.TotalRecorded(key), 800);
}

TEST(EngineTest, EmptyTicksStillExpireOldSubWindows) {
  // Time-driven windows slide even when no data arrives: after n empty
  // Ticks the window must be empty, and a starved shard must not serve
  // sub-windows from older epochs than its busy peers.
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = WindowSpec(1024, 256);  // n = 4 sub-windows
  TelemetryEngine engine(options);
  const MetricKey key("sparse");

  workload::NetMonGenerator gen(9);
  ASSERT_TRUE(
      engine.RecordBatch(key, workload::Materialize(&gen, 1024)).ok());
  engine.Tick();
  auto answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.ValueOrDie().window_count, 1024);

  for (int i = 0; i < 3; ++i) engine.Tick();  // still within the window
  answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.ValueOrDie().window_count, 1024);

  engine.Tick();  // 4 empty boundaries since the data: epoch aged out
  answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.ValueOrDie().window_count, 0);
  EXPECT_EQ(answer.ValueOrDie().num_summaries, 0);
}

TEST(EngineTest, NonFiniteTelemetryIsDroppedConsistently) {
  // The operator drops NaN/Inf; TotalRecorded must agree so ingested and
  // covered counts reconcile on dirty telemetry.
  TelemetryEngine engine;
  const MetricKey key("dirty");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(engine.RecordBatch(key, {1.0, nan, 2.0, inf, 3.0}).ok());
  engine.Tick();
  EXPECT_EQ(engine.TotalRecorded(key), 3);
  EXPECT_EQ(WindowCount(engine, key), 3);
}

TEST(EngineTest, WildcardQueryCoversEveryMetric) {
  TelemetryEngine engine;
  ASSERT_TRUE(engine.RecordBatch(MetricKey("a"), {1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(engine.RecordBatch(MetricKey("b"), {4.0, 5.0}).ok());
  engine.Tick();
  auto all = engine.Query(
      QuerySpec::ForSelector({"", {}}).With(QueryRequest::Count()));
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.ValueOrDie().matched.size(), 2u);
  EXPECT_EQ(all.ValueOrDie().window_count, 5);
}

TEST(EngineTest, ExportIsSortedAndSkipsPreFirstTickMetrics) {
  TelemetryEngine engine;
  // Registered in non-canonical order; output must come back sorted by
  // canonical key regardless of registry hash order.
  ASSERT_TRUE(engine.RecordBatch(MetricKey("zz"), {1.0}).ok());
  ASSERT_TRUE(
      engine.RecordBatch(MetricKey("aa", {{"host", "b"}}), {2.0}).ok());
  ASSERT_TRUE(
      engine.RecordBatch(MetricKey("aa", {{"host", "a"}}), {3.0}).ok());
  engine.Tick();

  // Registered after the last Tick: no window state yet. Export must
  // skip it (not crash on it, not ship a phantom window); an explicit
  // Query still serves it.
  const MetricKey late("late");
  ASSERT_TRUE(engine.RegisterMetric(late).ok());

  const WireSnapshot shipped = test_util::FullSnapshot(engine, "h");
  ASSERT_EQ(shipped.metrics.size(), 3u);
  EXPECT_EQ(shipped.metrics[0].key.ToString(), "aa{host=a}");
  EXPECT_EQ(shipped.metrics[1].key.ToString(), "aa{host=b}");
  EXPECT_EQ(shipped.metrics[2].key.ToString(), "zz");
  EXPECT_TRUE(GridQuery(engine, late).ok());

  // After the next Tick the late metric joins the export.
  engine.Tick();
  EXPECT_EQ(test_util::FullSnapshot(engine, "h").metrics.size(), 4u);
}

// The acceptance-criteria test for the backend seam: one engine serves
// three metrics on three different backends (qlove / gk / exact)
// concurrently, with multi-threaded ingest; each metric's merged grid
// quantiles must match its single-operator oracle — the exact paper-rank quantile of
// the ingested multiset — within that backend's rank-error tolerance.
TEST(EngineTest, MixedBackendsServeConcurrently) {
  constexpr int kThreads = 4;
  constexpr int kShards = 4;
  constexpr int64_t kPerThreadPerPhase = 1024;
  constexpr int64_t kPhaseSize = kThreads * kPerThreadPerPhase;  // 4096
  constexpr int kPhases = 4;  // exactly one full window
  constexpr int64_t kWindow = kPhaseSize * kPhases;              // 16384

  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window =
      WindowSpec(kWindow / kShards, kPhaseSize / kShards);  // 4096 / 1024
  options.phis = {0.5, 0.9, 0.99};
  TelemetryEngine engine(options);

  struct MetricUnderTest {
    MetricKey key;
    BackendOptions backend;
    double body_tol;  // rank-error budget, phi < 0.99
    double tail_tol;  // rank-error budget, phi >= 0.99
  };
  std::vector<MetricUnderTest> metrics;
  metrics.push_back({MetricKey("rtt_us", {{"backend", "qlove"}}),
                     BackendOptions{},  // default: kQlove
                     0.03, 0.01});
  BackendOptions gk;
  gk.kind = BackendKind::kGk;
  gk.epsilon = 0.005;
  metrics.push_back(
      {MetricKey("rtt_us", {{"backend", "gk"}}), gk, 0.02, 0.01});
  BackendOptions exact;
  exact.kind = BackendKind::kExact;
  metrics.push_back(
      {MetricKey("rtt_us", {{"backend", "exact"}}), exact, 1e-12, 1e-12});
  for (const MetricUnderTest& metric : metrics) {
    ASSERT_TRUE(engine.RegisterMetric(metric.key, metric.backend).ok());
  }

  // Pre-materialize per-(metric, thread) slices so every backend's oracle
  // sees the same multiset the engine ingests.
  std::vector<std::vector<std::vector<double>>> slices(metrics.size());
  for (size_t m = 0; m < metrics.size(); ++m) {
    slices[m].resize(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workload::NetMonGenerator gen(700 + 10 * m + t);
      slices[m][t] = workload::Materialize(&gen, kPerThreadPerPhase * kPhases);
    }
  }

  for (int phase = 0; phase < kPhases; ++phase) {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t, phase] {
        for (size_t m = 0; m < metrics.size(); ++m) {
          const double* begin =
              slices[m][t].data() + phase * kPerThreadPerPhase;
          for (int64_t i = 0; i < kPerThreadPerPhase; ++i) {
            EXPECT_TRUE(engine.Record(metrics[m].key, begin[i]).ok());
          }
        }
        engine.Flush();  // writers flush before the phase barrier
      });
    }
    for (std::thread& w : writers) w.join();
    engine.Tick();
  }

  EXPECT_EQ(engine.metric_count(), metrics.size());
  for (size_t m = 0; m < metrics.size(); ++m) {
    SCOPED_TRACE(metrics[m].key.ToString());
    EXPECT_EQ(engine.TotalRecorded(metrics[m].key), kWindow);
    auto answer = GridQuery(engine, metrics[m].key);
    ASSERT_TRUE(answer.ok());
    const QueryResult& merged = answer.ValueOrDie();
    EXPECT_EQ(merged.backend, metrics[m].backend.kind);
    EXPECT_EQ(merged.window_count, kWindow);
    EXPECT_EQ(merged.num_shards, kShards);

    std::vector<double> sorted;
    sorted.reserve(kWindow);
    for (int t = 0; t < kThreads; ++t) {
      sorted.insert(sorted.end(), slices[m][t].begin(), slices[m][t].end());
    }
    std::sort(sorted.begin(), sorted.end());

    double previous = -1.0;
    for (size_t i = 0; i < options.phis.size(); ++i) {
      const double phi = options.phis[i];
      const double tol =
          phi >= 0.99 ? metrics[m].tail_tol : metrics[m].body_tol;
      const double estimate = merged.outcomes[i].value;
      const double err = RankError(sorted, estimate, phi);
      SCOPED_TRACE("phi=" + std::to_string(phi) +
                   " estimate=" + std::to_string(estimate) +
                   " err=" + std::to_string(err));
      EXPECT_LE(err, tol);
      EXPECT_GE(estimate, previous);
      previous = estimate;
      // Non-qlove backends answer through the weighted sketch merge and
      // must say so per quantile.
      if (metrics[m].backend.kind != BackendKind::kQlove) {
        EXPECT_EQ(merged.outcomes[i].source,
                  core::OutcomeSource::kSketchMerge);
      }
    }
  }
}

// Regression: duplicate tag names must collapse at canonicalization
// (last-wins), never produce a key whose ToString round-trip disagrees
// with its identity. Pre-fix, MetricKey("m", {{"host","a"},{"host","b"}})
// kept both pairs and hashed/compared as a two-tag key.
TEST(MetricKeyTest, DuplicateTagNamesDedupeLastWins) {
  const MetricKey duplicated("rtt_us", {{"host", "a"}, {"host", "b"}});
  EXPECT_EQ(duplicated.tag_count(), 1u);
  EXPECT_EQ(duplicated.ToString(), "rtt_us{host=b}");
  EXPECT_EQ(duplicated, MetricKey("rtt_us", {{"host", "b"}}));
  EXPECT_EQ(MetricKeyHash()(duplicated),
            MetricKeyHash()(MetricKey("rtt_us", {{"host", "b"}})));

  // Interleaved with other tags, only the duplicated name collapses.
  const MetricKey mixed(
      "rtt_us", {{"dc", "eu-1"}, {"host", "a"}, {"host", "c"}});
  EXPECT_EQ(mixed.ToString(), "rtt_us{dc=eu-1,host=c}");

  // WithTag on an existing name replaces instead of accumulating.
  const MetricKey base("rtt_us", {{"host", "a"}, {"dc", "eu-1"}});
  const MetricKey replaced = base.WithTag("host", "b");
  EXPECT_EQ(replaced.tag_count(), 2u);
  EXPECT_EQ(replaced.ToString(), "rtt_us{dc=eu-1,host=b}");
  EXPECT_EQ(base.ToString(), "rtt_us{dc=eu-1,host=a}");  // source untouched
}

// Regression: the canonical hash is computed once at construction and
// cached; every construction path (ctor, WithTag chain, copies) must
// agree, and MetricKeyHash must read the cache rather than re-walk the
// strings.
TEST(MetricKeyTest, HashIsCachedAndStableAcrossConstructionPaths) {
  const MetricKey constructed("rtt_us",
                              {{"dc", "eu-1"}, {"service", "search"}});
  const MetricKey built =
      MetricKey("rtt_us").WithTag("service", "search").WithTag("dc", "eu-1");
  EXPECT_EQ(constructed.hash(), built.hash());
  EXPECT_EQ(MetricKeyHash()(constructed), constructed.hash());

  const MetricKey copy = constructed;  // copies carry the cached hash
  EXPECT_EQ(copy.hash(), constructed.hash());

  // Distinct keys must (for these fixtures) hash apart — guards against a
  // cache that degenerates to a constant.
  EXPECT_NE(constructed.hash(), MetricKey("rtt_us").hash());
  EXPECT_NE(MetricKey().hash(), constructed.hash());
  EXPECT_EQ(MetricKey().hash(), MetricKey("").hash());  // default == empty
}

// Idle metrics are evicted after the configured horizon: a final
// summarize covers buffered events, the registry drops the key, and the
// lifecycle is visible in Stats(). A later Record auto-re-registers the
// key as a fresh metric.
TEST(EngineTest, IdleMetricsAreEvictedAfterHorizonAndCanReRegister) {
  EngineOptions options;
  options.num_shards = 1;
  options.idle_eviction_windows = 2;
  TelemetryEngine engine(options);
  const MetricKey hot("rtt_us", {{"state", "hot"}});
  const MetricKey cold("rtt_us", {{"state", "cold"}});
  ASSERT_TRUE(engine.RecordBatch(hot, {1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(engine.RecordBatch(cold, {4.0, 5.0}).ok());
  engine.Tick();
  EXPECT_EQ(engine.metric_count(), 2u);

  // Keep `hot` active; let `cold` cross the idle horizon.
  for (int tick = 0; tick < 4; ++tick) {
    ASSERT_TRUE(engine.Record(hot, 1.0 + tick).ok());
    engine.Flush();
    engine.Tick();
  }
  EXPECT_EQ(engine.metric_count(), 1u);
  EXPECT_EQ(GridQuery(engine, cold).status().code(), Status::Code::kNotFound);
  EXPECT_EQ(engine.TotalRecorded(cold), 0);
  EXPECT_EQ(engine.TotalRecorded(hot), 3 + 4);

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.evicted_events, 2);  // the two `cold` events
  EXPECT_GT(stats.interned_strings, 0u);
  EXPECT_GT(stats.registry_bytes, 0u);

  // Re-registration after eviction: same key, fresh identity.
  ASSERT_TRUE(engine.RecordBatch(cold, {7.0}).ok());
  engine.Tick();
  EXPECT_EQ(engine.metric_count(), 2u);
  EXPECT_EQ(engine.TotalRecorded(cold), 1);
  EXPECT_EQ(WindowCount(engine, cold), 1);
}

// Over-budget engines spend idle metrics before touching active ones, and
// degrade what cannot be evicted. With an impossible budget the whole
// policy chain runs: first tick degrades the (all-active) qlove metrics to
// gk in place; once one goes idle it is evicted while the active one keeps
// serving.
TEST(EngineTest, MemoryBudgetEvictsIdleMetricsFirst) {
  EngineOptions options;
  options.num_shards = 1;
  options.memory_budget_bytes = 1;  // any metric at all is over budget
  TelemetryEngine engine(options);
  const MetricKey hot("rtt_us", {{"state", "hot"}});
  const MetricKey cold("rtt_us", {{"state", "cold"}});
  ASSERT_TRUE(engine.RecordBatch(hot, {1.0}).ok());
  ASSERT_TRUE(engine.RecordBatch(cold, {2.0}).ok());
  engine.Tick();  // nothing idle yet: pressure degrades instead of evicting
  EXPECT_EQ(engine.metric_count(), 2u);
  EXPECT_GE(engine.Stats().degrades, 2);

  ASSERT_TRUE(engine.Record(hot, 3.0).ok());
  engine.Flush();
  engine.Tick();  // cold is now idle and the engine is over budget
  EXPECT_EQ(engine.metric_count(), 1u);
  EXPECT_EQ(GridQuery(engine, cold).status().code(), Status::Code::kNotFound);
  // The degraded replacement started an empty gk metric; only the
  // post-degrade record survives in `hot` (the rest rolled into
  // evicted_events).
  EXPECT_EQ(engine.TotalRecorded(hot), 1);
  const EngineStats stats = engine.Stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_GE(stats.evicted_events, 2);  // 1 from degrade-replace + 1 evicted
}

// Past the per-name cardinality threshold, new registrations degrade one
// step down the exact -> qlove -> gk chain, and an explicit RegisterMetric
// claim for the requested backend still succeeds (the degraded
// configuration is an accepted answer to the request).
TEST(EngineTest, CardinalityThresholdDegradesNewRegistrations) {
  EngineOptions options;
  options.num_shards = 1;
  options.degrade_cardinality_threshold = 4;
  TelemetryEngine engine(options);

  std::vector<MetricKey> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(MetricKey("wide", {{"id", std::to_string(i)}}));
    ASSERT_TRUE(engine.RegisterMetric(keys.back()).ok()) << i;
    ASSERT_TRUE(engine.RecordBatch(keys.back(), {1.0, 2.0, 3.0}).ok());
  }
  engine.Tick();
  EXPECT_EQ(engine.metric_count(), 8u);

  int degraded = 0;
  for (int i = 0; i < 8; ++i) {
    auto answer = GridQuery(engine, keys[i]);
    ASSERT_TRUE(answer.ok()) << i;
    if (answer.ValueOrDie().backend == BackendKind::kGk) ++degraded;
    // Below the threshold nothing degrades.
    if (i < 4) EXPECT_EQ(answer.ValueOrDie().backend, BackendKind::kQlove);
  }
  EXPECT_EQ(degraded, 4);  // registrations 4..7 crossed the threshold
  EXPECT_GE(engine.Stats().degrades, 4);

  // Re-claiming an already-degraded key with the default backend is not a
  // conflict; claiming an unrelated kind still is.
  ASSERT_TRUE(engine.RegisterMetric(keys[7]).ok());
  BackendOptions cmqs;
  cmqs.kind = BackendKind::kCmqs;
  cmqs.epsilon = 0.0005;  // fine enough for the default p99.9
  EXPECT_EQ(engine.RegisterMetric(keys[7], cmqs).code(),
            Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
