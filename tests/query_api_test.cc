// The first-class query layer (engine/query.h): arbitrary-phi quantiles
// with documented error bounds, rank/CDF and aggregate requests,
// key-list and tag-selector targets, and the cross-metric merge paths
// (homogeneous qlove rollups through the paper's estimator chain,
// mixed-kind rollups through weighted-entry lowering). The acceptance
// anchors: an off-grid phi answered within the documented rank-error
// bound against the Exact backend, and a tag-selector rollup over per-host
// metrics matching a single-metric oracle fed the union stream.

#include "engine/query.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "export_util.h"
#include "grid_query.h"
#include "rank_error.h"
#include "wal_util.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::RankError;

constexpr int kShards = 4;
constexpr int64_t kPerShardWindow = 2048;
constexpr int64_t kPerShardPeriod = 256;
constexpr int64_t kPerTick = kShards * kPerShardPeriod;    // 1024
constexpr int64_t kWindow = kShards * kPerShardWindow;     // 8192

EngineOptions MakeOptions(BackendKind kind) {
  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window = WindowSpec(kPerShardWindow, kPerShardPeriod);
  options.default_backend.kind = kind;
  options.default_backend.epsilon = 0.0005;  // gk/cmqs: resolves p99.9
  return options;
}

/// Feeds exactly one full window of `data` (tick per period) and returns
/// the sorted window contents.
std::vector<double> FeedWindow(TelemetryEngine* engine, const MetricKey& key,
                               const std::vector<double>& data) {
  for (size_t offset = 0; offset < data.size();
       offset += static_cast<size_t>(kPerTick)) {
    const size_t n =
        std::min(static_cast<size_t>(kPerTick), data.size() - offset);
    EXPECT_TRUE(engine->RecordBatch(key, data.data() + offset, n).ok());
    engine->Tick();
  }
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// ---------------------------------------------------------------------------
// Arbitrary phi (the acceptance criterion, vs the Exact backend)
// ---------------------------------------------------------------------------

TEST(QueryApiTest, ArbitraryPhiWithinDocumentedBoundOnExactBackend) {
  TelemetryEngine engine(MakeOptions(BackendKind::kExact));
  const MetricKey key("rtt_us", {{"host", "h0"}});
  workload::NetMonGenerator gen(101);
  const std::vector<double> sorted =
      FeedWindow(&engine, key, workload::Materialize(&gen, kWindow));

  // None of these is in EngineOptions::phis; the exact backend must still
  // answer each within its documented rank-error bound (1/N resolution).
  const std::vector<double> ad_hoc = {0.25, 0.42, 0.65, 0.77,
                                      0.95, 0.985, 0.995, 0.9995};
  QuerySpec spec = QuerySpec::ForKey(key);
  for (double phi : ad_hoc) spec.With(QueryRequest::Quantile(phi));
  auto result = engine.Query(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& r = result.ValueOrDie();
  ASSERT_EQ(r.outcomes.size(), ad_hoc.size());
  EXPECT_EQ(r.window_count, kWindow);
  EXPECT_FALSE(r.mixed_backends);

  double previous = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ad_hoc.size(); ++i) {
    const QueryOutcome& outcome = r.outcomes[i];
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.source, core::OutcomeSource::kSketchMerge);
    const double err = RankError(sorted, outcome.value, ad_hoc[i]);
    EXPECT_LE(err, outcome.rank_error_bound)
        << "phi=" << ad_hoc[i] << " estimate=" << outcome.value;
    EXPECT_LE(outcome.rank_error_bound, 2.0 / static_cast<double>(kWindow));
    EXPECT_GE(outcome.value, previous);  // monotone across the request list
    previous = outcome.value;
  }
}

// ---------------------------------------------------------------------------
// Off-grid interpolation bounds on the qlove path (satellite)
// ---------------------------------------------------------------------------

TEST(QueryApiTest, OffGridPhiInterpolationBoundsVsExactOracle) {
  TelemetryEngine engine(MakeOptions(BackendKind::kQlove));
  const MetricKey key("rtt_us");
  workload::NetMonGenerator gen(202);
  const std::vector<double> sorted =
      FeedWindow(&engine, key, workload::Materialize(&gen, kWindow));

  struct Probe {
    double phi;
    double expected_slack;  // documented widening: max dist to grid bracket
    double statistical;     // grid points' own (value-space) slack, in rank
  };
  // Grid: {0.5, 0.9, 0.99, 0.999}. The annotation is the interpolation
  // term; the grid points themselves carry the operator's statistical
  // error (~Level-2 body / few-k tail budgets from the conformance suite),
  // which the assertion adds explicitly.
  const std::vector<Probe> probes = {
      {0.70, 0.20, 0.03},    {0.80, 0.30, 0.03},  {0.95, 0.05, 0.03},
      {0.995, 0.005, 0.01},  {0.9995, 0.0005, 0.01},
  };

  QuerySpec spec = QuerySpec::ForKey(key);
  for (const Probe& probe : probes) {
    spec.With(QueryRequest::Quantile(probe.phi));
  }
  auto result = engine.Query(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& r = result.ValueOrDie();

  double previous = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < probes.size(); ++i) {
    const Probe& probe = probes[i];
    const QueryOutcome& outcome = r.outcomes[i];
    ASSERT_TRUE(outcome.status.ok());
    EXPECT_NEAR(outcome.rank_error_bound, probe.expected_slack, 1e-9)
        << "phi=" << probe.phi;
    const double err = RankError(sorted, outcome.value, probe.phi);
    EXPECT_LE(err, outcome.rank_error_bound + probe.statistical)
        << "phi=" << probe.phi << " estimate=" << outcome.value;
    EXPECT_GE(outcome.value, previous);
    previous = outcome.value;
  }

  // Interior off-grid phis get a finite Theorem-1 value-error annotation
  // (density from grid finite differences).
  EXPECT_TRUE(std::isfinite(r.outcomes[0].value_error_bound));
  EXPECT_GT(r.outcomes[0].value_error_bound, 0.0);

  // On-grid phis carry no interpolation term.
  auto on_grid = engine.Query(QuerySpec::ForKey(key)
                                  .With(QueryRequest::Quantile(0.5))
                                  .With(QueryRequest::Quantile(0.999)));
  ASSERT_TRUE(on_grid.ok());
  EXPECT_EQ(on_grid.ValueOrDie().outcomes[0].rank_error_bound, 0.0);
}

// ---------------------------------------------------------------------------
// Tag-selector fleet rollup (the acceptance criterion, vs a union oracle)
// ---------------------------------------------------------------------------

TEST(QueryApiTest, SelectorRollupMatchesSingleMetricUnionOracle) {
  constexpr int kHosts = 6;
  constexpr int64_t kPerHostPerTick = 256;
  constexpr int kTicks = 8;
  constexpr int64_t kUnion = kHosts * kPerHostPerTick * kTicks;  // 12288

  // Fleet engine: one qlove metric per host.
  EngineOptions fleet_options;
  fleet_options.num_shards = kShards;
  fleet_options.shard_window =
      WindowSpec(kPerHostPerTick * kTicks / kShards, kPerHostPerTick / kShards);
  TelemetryEngine fleet(fleet_options);

  // Oracle engine: a single metric sized to ingest the union stream with
  // the same number of sub-windows.
  EngineOptions union_options;
  union_options.num_shards = kShards;
  union_options.shard_window =
      WindowSpec(kHosts * kPerHostPerTick * kTicks / kShards,
                 kHosts * kPerHostPerTick / kShards);
  TelemetryEngine oracle(union_options);
  const MetricKey union_key("rtt_us_union");

  const MetricKey base("rtt_us", {{"service", "web"}});
  std::vector<std::vector<double>> host_data(kHosts);
  for (int h = 0; h < kHosts; ++h) {
    workload::NetMonGenerator gen(300 + static_cast<uint64_t>(h));
    host_data[h] = workload::Materialize(&gen, kPerHostPerTick * kTicks);
  }

  for (int tick = 0; tick < kTicks; ++tick) {
    for (int h = 0; h < kHosts; ++h) {
      const MetricKey key = base.WithTag("host", "h" + std::to_string(h));
      const double* begin = host_data[h].data() + tick * kPerHostPerTick;
      ASSERT_TRUE(
          fleet.RecordBatch(key, begin, kPerHostPerTick).ok());
      ASSERT_TRUE(
          oracle.RecordBatch(union_key, begin, kPerHostPerTick).ok());
    }
    fleet.Tick();
    oracle.Tick();
  }

  std::vector<double> sorted;
  sorted.reserve(kUnion);
  for (const auto& data : host_data) {
    sorted.insert(sorted.end(), data.begin(), data.end());
  }
  std::sort(sorted.begin(), sorted.end());

  TagSelector selector{"rtt_us", {{"service", "web"}}};
  auto rollup = fleet.Query(QuerySpec::ForSelector(selector)
                                .With(QueryRequest::Quantile(0.5))
                                .With(QueryRequest::Quantile(0.9))
                                .With(QueryRequest::Quantile(0.99))
                                .With(QueryRequest::Count()));
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  const QueryResult& r = rollup.ValueOrDie();
  ASSERT_EQ(r.matched.size(), static_cast<size_t>(kHosts));
  EXPECT_FALSE(r.mixed_backends);  // homogeneous qlove: native merge path
  EXPECT_EQ(r.window_count, kUnion);
  EXPECT_EQ(r.num_shards, kHosts * kShards);
  EXPECT_EQ(r.outcomes[3].value, static_cast<double>(kUnion));
  // matched is canonical-key-sorted.
  for (size_t i = 1; i < r.matched.size(); ++i) {
    EXPECT_LT(r.matched[i - 1].ToString(), r.matched[i].ToString());
  }

  auto oracle_answer = test_util::GridQuery(oracle, union_key);
  ASSERT_TRUE(oracle_answer.ok());
  const QueryResult& o = oracle_answer.ValueOrDie();
  EXPECT_EQ(o.window_count, kUnion);

  const std::vector<double> phis = {0.5, 0.9, 0.99};
  for (size_t i = 0; i < phis.size(); ++i) {
    const double tol = phis[i] >= 0.99 ? 0.01 : 0.03;
    const double rollup_err = RankError(sorted, r.outcomes[i].value, phis[i]);
    const double oracle_err = RankError(sorted, o.outcomes[i].value, phis[i]);
    SCOPED_TRACE("phi=" + std::to_string(phis[i]) +
                 " rollup=" + std::to_string(r.outcomes[i].value) +
                 " oracle=" + std::to_string(o.outcomes[i].value));
    // The rollup must hold the same budget the union-stream oracle holds.
    EXPECT_LE(oracle_err, tol);
    EXPECT_LE(rollup_err, tol);
  }
}

// ---------------------------------------------------------------------------
// Selector matching edge cases (satellite)
// ---------------------------------------------------------------------------

TEST(TagSelectorTest, MatchingEdgeCases) {
  const MetricKey plain("rtt_us", {{"host", "a"}, {"service", "web"}});
  const MetricKey multi("rtt_us", {{"host", "a"}, {"host", "b"}});
  const MetricKey other("err_rate", {{"host", "a"}});

  // Empty selector: wildcard name, no tag requirements -> matches all.
  EXPECT_TRUE(TagSelector{}.Matches(plain));
  EXPECT_TRUE(TagSelector{}.Matches(multi));
  EXPECT_TRUE(TagSelector{}.Matches(other));

  // Name-only selector.
  EXPECT_TRUE((TagSelector{"rtt_us", {}}).Matches(plain));
  EXPECT_FALSE((TagSelector{"rtt_us", {}}).Matches(other));

  // Tag predicate: every selector tag must be present exactly.
  EXPECT_TRUE((TagSelector{"rtt_us", {{"host", "a"}}}).Matches(plain));
  EXPECT_FALSE((TagSelector{"rtt_us", {{"host", "c"}}}).Matches(plain));
  EXPECT_FALSE((TagSelector{"rtt_us", {{"dc", "eu"}}}).Matches(plain));

  // Keys canonicalize duplicate tag names away (last wins), so `multi` is
  // really rtt_us{host=b} and a selector listing the same tag name twice
  // with different values can never match any key.
  EXPECT_TRUE((TagSelector{"rtt_us", {{"host", "b"}}}).Matches(multi));
  EXPECT_FALSE((TagSelector{"rtt_us", {{"host", "a"}}}).Matches(multi));
  const TagSelector both{"rtt_us", {{"host", "a"}, {"host", "b"}}};
  EXPECT_FALSE(both.Matches(multi));
  EXPECT_FALSE(both.Matches(plain));
  // ... while repeating the identical pair is harmless.
  const TagSelector repeated{"rtt_us", {{"host", "a"}, {"host", "a"}}};
  EXPECT_TRUE(repeated.Matches(plain));

  EXPECT_EQ(TagSelector{}.ToString(), "*");
  EXPECT_EQ(both.ToString(), "rtt_us{host=a,host=b}");
}

TEST(QueryApiTest, SelectorTargetEdgeCases) {
  TelemetryEngine engine;
  ASSERT_TRUE(engine.RecordBatch(MetricKey("a", {{"host", "x"}}),
                                 {1.0, 2.0, 3.0})
                  .ok());
  ASSERT_TRUE(engine.RecordBatch(MetricKey("a", {{"host", "y"}}),
                                 {4.0, 5.0})
                  .ok());
  ASSERT_TRUE(engine.RecordBatch(MetricKey("b"), {6.0}).ok());
  engine.Tick();

  // Empty selector matches every registered metric.
  auto all = engine.Query(
      QuerySpec::ForSelector(TagSelector{}).With(QueryRequest::Count()));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.ValueOrDie().matched.size(), 3u);
  EXPECT_EQ(all.ValueOrDie().outcomes[0].value, 6.0);

  // A selector matching zero metrics is NotFound, not a silent empty
  // answer.
  auto none = engine.Query(
      QuerySpec::ForSelector(TagSelector{"nope", {}})
          .With(QueryRequest::Count()));
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), Status::Code::kNotFound);
  auto no_tag = engine.Query(
      QuerySpec::ForSelector(TagSelector{"a", {{"host", "z"}}})
          .With(QueryRequest::Count()));
  EXPECT_FALSE(no_tag.ok());
  EXPECT_EQ(no_tag.status().code(), Status::Code::kNotFound);

  // Name-scoped selector.
  auto a_only = engine.Query(
      QuerySpec::ForSelector(TagSelector{"a", {}}).With(QueryRequest::Count()));
  ASSERT_TRUE(a_only.ok());
  EXPECT_EQ(a_only.ValueOrDie().matched.size(), 2u);
  EXPECT_EQ(a_only.ValueOrDie().outcomes[0].value, 5.0);
}

// ---------------------------------------------------------------------------
// Rank / CDF requests
// ---------------------------------------------------------------------------

TEST(QueryApiTest, RankAnswersCdfExactly) {
  EngineOptions options = MakeOptions(BackendKind::kExact);
  options.num_shards = 2;
  options.shard_window = WindowSpec(1024, 512);
  TelemetryEngine engine(options);
  const MetricKey key("latency_ms");
  std::vector<double> data(1000);
  for (int i = 0; i < 1000; ++i) data[static_cast<size_t>(i)] = i + 1.0;
  ASSERT_TRUE(engine.RecordBatch(key, data).ok());
  engine.Tick();

  auto result = engine.Query(QuerySpec::ForKey(key)
                                 .With(QueryRequest::Rank(500.0))
                                 .With(QueryRequest::Rank(0.0))
                                 .With(QueryRequest::Rank(2000.0)));
  ASSERT_TRUE(result.ok());
  const QueryResult& r = result.ValueOrDie();
  EXPECT_DOUBLE_EQ(r.outcomes[0].value, 0.5);   // 500 of 1000 values <= 500
  EXPECT_DOUBLE_EQ(r.outcomes[1].value, 0.0);
  EXPECT_DOUBLE_EQ(r.outcomes[2].value, 1.0);
  // "What fraction exceeded 500ms?" is 1 - CDF.
  EXPECT_DOUBLE_EQ(1.0 - r.outcomes[0].value, 0.5);
}

TEST(QueryApiTest, RankOnQloveGridWithinAnnotatedBound) {
  TelemetryEngine engine(MakeOptions(BackendKind::kQlove));
  const MetricKey key("rtt_us");
  workload::NetMonGenerator gen(404);
  const std::vector<double> sorted =
      FeedWindow(&engine, key, workload::Materialize(&gen, kWindow));

  // Probe the CDF at the exact p90 and p99 of the window: the answer must
  // land within the annotated grid-resolution bound (plus the grid
  // points' statistical slack).
  for (double phi : {0.9, 0.99}) {
    const double value =
        sorted[static_cast<size_t>(
                   std::ceil(phi * static_cast<double>(kWindow))) -
               1];
    auto result =
        engine.Query(QuerySpec::ForKey(key).With(QueryRequest::Rank(value)));
    ASSERT_TRUE(result.ok());
    const QueryOutcome& outcome = result.ValueOrDie().outcomes[0];
    ASSERT_TRUE(outcome.status.ok());
    EXPECT_TRUE(std::isfinite(outcome.rank_error_bound));
    EXPECT_NEAR(outcome.value, phi, outcome.rank_error_bound + 0.03)
        << "phi=" << phi;
  }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

TEST(QueryApiTest, CountSumMeanOnEntryBackends) {
  EngineOptions options = MakeOptions(BackendKind::kExact);
  options.shard_window = WindowSpec(512, 128);
  TelemetryEngine engine(options);
  const MetricKey key("bytes");
  std::vector<double> data(100);
  for (int i = 0; i < 100; ++i) data[static_cast<size_t>(i)] = i + 1.0;
  ASSERT_TRUE(engine.RecordBatch(key, data).ok());
  engine.Tick();

  auto result = engine.Query(QuerySpec::ForKey(key)
                                 .With(QueryRequest::Count())
                                 .With(QueryRequest::Sum())
                                 .With(QueryRequest::Mean()));
  ASSERT_TRUE(result.ok());
  const QueryResult& r = result.ValueOrDie();
  EXPECT_DOUBLE_EQ(r.outcomes[0].value, 100.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].value, 5050.0);
  EXPECT_DOUBLE_EQ(r.outcomes[2].value, 50.5);
  EXPECT_EQ(r.outcomes[1].value_error_bound, 0.0);  // exact multiplicities
}

TEST(QueryApiTest, SumUnsupportedOnQloveButCountServes) {
  TelemetryEngine engine;  // default qlove backend
  const MetricKey key("rtt_us");
  ASSERT_TRUE(engine.RecordBatch(key, {1.0, 2.0, 3.0}).ok());
  engine.Tick();

  auto result = engine.Query(QuerySpec::ForKey(key)
                                 .With(QueryRequest::Sum())
                                 .With(QueryRequest::Mean())
                                 .With(QueryRequest::Count()));
  ASSERT_TRUE(result.ok());  // the query serves; the requests carry status
  const QueryResult& r = result.ValueOrDie();
  EXPECT_EQ(r.outcomes[0].status.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(r.outcomes[1].status.code(), Status::Code::kFailedPrecondition);
  ASSERT_TRUE(r.outcomes[2].status.ok());
  EXPECT_DOUBLE_EQ(r.outcomes[2].value, 3.0);
}

// ---------------------------------------------------------------------------
// Targets, validation, empty windows
// ---------------------------------------------------------------------------

TEST(QueryApiTest, KeyListTargetPoolsAndDeduplicates) {
  TelemetryEngine engine(MakeOptions(BackendKind::kExact));
  const MetricKey a("a"), b("b");
  ASSERT_TRUE(engine.RecordBatch(a, {1.0, 2.0}).ok());
  ASSERT_TRUE(engine.RecordBatch(b, {3.0, 4.0, 5.0}).ok());
  engine.Tick();

  auto result = engine.Query(
      QuerySpec::ForKeys({a, b, a}).With(QueryRequest::Count()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().matched.size(), 2u);  // `a` listed twice
  EXPECT_EQ(result.ValueOrDie().outcomes[0].value, 5.0);

  auto missing = engine.Query(
      QuerySpec::ForKeys({a, MetricKey("nope")}).With(QueryRequest::Count()));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
}

TEST(QueryApiTest, SpecValidationRejectsMalformedRequests) {
  TelemetryEngine engine;
  const MetricKey key("rtt_us");
  ASSERT_TRUE(engine.Record(key, 1.0).ok());

  EXPECT_EQ(engine.Query(QuerySpec::ForKey(key)).status().code(),
            Status::Code::kInvalidArgument);  // no requests
  EXPECT_EQ(engine.Query(QuerySpec::ForKey(key).With(
                             QueryRequest::Quantile(0.0)))
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.Query(QuerySpec::ForKey(key).With(
                             QueryRequest::Quantile(1.5)))
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine
                .Query(QuerySpec::ForKey(key).With(QueryRequest::Rank(
                    std::numeric_limits<double>::quiet_NaN())))
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.Query(QuerySpec::ForKeys({}).With(QueryRequest::Count()))
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.Query(QuerySpec::ForKey(MetricKey("nope"))
                             .With(QueryRequest::Count()))
                .status()
                .code(),
            Status::Code::kNotFound);
}

TEST(QueryApiTest, EmptyWindowSurfacesPerRequestStatus) {
  TelemetryEngine engine;
  const MetricKey key("idle");
  ASSERT_TRUE(engine.RegisterMetric(key).ok());

  auto result = engine.Query(QuerySpec::ForKey(key)
                                 .With(QueryRequest::Quantile(0.75))
                                 .With(QueryRequest::Rank(1.0))
                                 .With(QueryRequest::Count()));
  ASSERT_TRUE(result.ok());
  const QueryResult& r = result.ValueOrDie();
  EXPECT_EQ(r.window_count, 0);
  EXPECT_EQ(r.outcomes[0].status.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(r.outcomes[1].status.code(), Status::Code::kFailedPrecondition);
  EXPECT_TRUE(r.outcomes[2].status.ok());  // a zero count is a real answer
  EXPECT_EQ(r.outcomes[2].value, 0.0);
}

// ---------------------------------------------------------------------------
// Mixed-kind rollups (weighted-entry lowering)
// ---------------------------------------------------------------------------

TEST(QueryApiTest, MixedBackendSelectorRollupPoolsEveryKind) {
  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window = WindowSpec(512, 64);  // 256/tick, 8 ticks window
  TelemetryEngine engine(options);

  const MetricKey qlove_key("rtt_us", {{"host", "a"}});
  const MetricKey exact_key("rtt_us", {{"host", "b"}});
  BackendOptions exact;
  exact.kind = BackendKind::kExact;
  ASSERT_TRUE(engine.RegisterMetric(qlove_key).ok());
  ASSERT_TRUE(engine.RegisterMetric(exact_key, exact).ok());

  constexpr int64_t kPerHostTick = 256;
  constexpr int kTicks = 8;
  std::vector<double> all;
  workload::NetMonGenerator gen_a(500), gen_b(501);
  for (int tick = 0; tick < kTicks; ++tick) {
    const std::vector<double> a =
        workload::Materialize(&gen_a, kPerHostTick);
    const std::vector<double> b =
        workload::Materialize(&gen_b, kPerHostTick);
    ASSERT_TRUE(engine.RecordBatch(qlove_key, a).ok());
    ASSERT_TRUE(engine.RecordBatch(exact_key, b).ok());
    all.insert(all.end(), a.begin(), a.end());
    all.insert(all.end(), b.begin(), b.end());
    engine.Tick();
  }
  std::sort(all.begin(), all.end());

  auto result = engine.Query(
      QuerySpec::ForSelector(TagSelector{"rtt_us", {}})
          .With(QueryRequest::Quantile(0.99))
          .With(QueryRequest::Quantile(0.5))
          .With(QueryRequest::Count())
          .With(QueryRequest::Sum()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& r = result.ValueOrDie();
  EXPECT_TRUE(r.mixed_backends);
  EXPECT_EQ(r.matched.size(), 2u);
  EXPECT_EQ(r.window_count, static_cast<int64_t>(all.size()));
  EXPECT_EQ(r.outcomes[2].value, static_cast<double>(all.size()));

  // Lowered rollups answer through the weighted merge and say so; the
  // documented bound is grid-coarse (the qlove half resolves its body only
  // at grid gaps), and the tail stays sharp because lowering carries the
  // exact top-k multiplicities.
  EXPECT_EQ(r.outcomes[0].source, core::OutcomeSource::kSketchMerge);
  EXPECT_TRUE(std::isfinite(r.outcomes[0].rank_error_bound));
  const double p99_err = RankError(all, r.outcomes[0].value, 0.99);
  EXPECT_LE(p99_err, r.outcomes[0].rank_error_bound);
  EXPECT_LE(p99_err, 0.05);
  const double p50_err = RankError(all, r.outcomes[1].value, 0.5);
  EXPECT_LE(p50_err, r.outcomes[1].rank_error_bound);

  // A sum over lowered qlove mass would silently inherit the grid's value
  // placement: the request must refuse, not estimate.
  EXPECT_EQ(r.outcomes[3].status.code(), Status::Code::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Homogeneous non-qlove rollups
// ---------------------------------------------------------------------------

TEST(QueryApiTest, HomogeneousGkRollupKeepsEpsilonBound) {
  EngineOptions options = MakeOptions(BackendKind::kGk);
  options.default_backend.epsilon = 0.005;
  options.phis = {0.5, 0.9, 0.99};
  TelemetryEngine engine(options);

  const MetricKey base("rtt_us");
  std::vector<double> all;
  for (int h = 0; h < 4; ++h) {
    workload::NetMonGenerator gen(600 + static_cast<uint64_t>(h));
    const std::vector<double> data = workload::Materialize(&gen, kWindow / 4);
    const MetricKey key = base.WithTag("host", "h" + std::to_string(h));
    for (size_t offset = 0; offset < data.size(); offset += kPerTick / 4) {
      ASSERT_TRUE(engine
                      .RecordBatch(key, data.data() + offset,
                                   static_cast<size_t>(kPerTick / 4))
                      .ok());
    }
    all.insert(all.end(), data.begin(), data.end());
  }
  engine.Tick();
  std::sort(all.begin(), all.end());

  auto result = engine.Query(QuerySpec::ForSelector(TagSelector{"rtt_us", {}})
                                 .With(QueryRequest::Quantile(0.97)));
  ASSERT_TRUE(result.ok());
  const QueryOutcome& outcome = result.ValueOrDie().outcomes[0];
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_FALSE(result.ValueOrDie().mixed_backends);
  // The pooled bound inherits epsilon from the summaries themselves.
  EXPECT_GE(outcome.rank_error_bound, 0.005);
  EXPECT_LE(RankError(all, outcome.value, 0.97),
            outcome.rank_error_bound + 0.01);
}

// ---------------------------------------------------------------------------
// The between-Ticks query cache: reused until a Tick, invalidated by it
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, ResolvedWindowIsCachedBetweenTicksAndDroppedByTick) {
  // White-box at the MetricState seam: Resolved() must hand back the same
  // cached object while no Tick intervenes (this is what flattens Query
  // throughput across shard counts — no per-query shard copies) and a
  // fresh one after CloseSubWindows.
  MetricOptions options;
  options.shard_window = WindowSpec(1024, 256);
  options.phis = {0.5, 0.9, 0.99};
  MetricState state;
  ASSERT_TRUE(state.Initialize(MetricKey("cache"), 2, options).ok());
  workload::NetMonGenerator gen(55);
  const std::vector<double> batch = workload::Materialize(&gen, 512);
  state.shard(0).AddBatch(batch.data(), batch.size());
  state.CloseSubWindows();

  const std::shared_ptr<const ResolvedWindow> first = state.Resolved();
  EXPECT_EQ(first.get(), state.Resolved().get());  // cached, not rebuilt
  EXPECT_EQ(first->view().window_count(), 512);

  state.shard(0).AddBatch(batch.data(), batch.size());
  state.CloseSubWindows();  // Tick: the cache must drop
  const std::shared_ptr<const ResolvedWindow> second = state.Resolved();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(second->view().window_count(), 1024);
  // The old epoch's state stays valid for holders (queries in flight
  // across a concurrent Tick keep evaluating a consistent window).
  EXPECT_EQ(first->view().window_count(), 512);
}

TEST(QueryCacheTest, TickInvalidatesCachedQueryAnswers) {
  // Black-box regression for the shard-scaling cliff fix: a Query after a
  // Tick must serve the new window, not a stale cached evaluation.
  EngineOptions options;
  options.num_shards = 8;  // the cliff was worst at high shard counts
  options.shard_window = WindowSpec(1024, 128);
  options.default_backend.kind = BackendKind::kExact;
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");

  ASSERT_TRUE(engine.RecordBatch(key, std::vector<double>(1024, 10.0)).ok());
  engine.Tick();
  const QuerySpec spec = QuerySpec::ForKey(key)
                             .With(QueryRequest::Count())
                             .With(QueryRequest::Quantile(0.5));
  auto before = engine.Query(spec);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.ValueOrDie().outcomes[0].value, 1024.0);
  EXPECT_EQ(before.ValueOrDie().outcomes[1].value, 10.0);

  // Repeated queries between Ticks serve the identical cached window.
  auto repeat = engine.Query(spec);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.ValueOrDie().outcomes[0].value, 1024.0);

  // New data + Tick: the cached WindowView must not survive.
  ASSERT_TRUE(engine.RecordBatch(key, std::vector<double>(1024, 90.0)).ok());
  engine.Tick();
  auto after = engine.Query(spec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().outcomes[0].value, 2048.0);
  EXPECT_EQ(after.ValueOrDie().outcomes[1].value, 10.0);  // p50 of {10,90}
}

TEST(QueryCacheTest, InflightCountStaysLiveBetweenTicks) {
  // inflight is the one live counter the cache must NOT freeze: backlog
  // accumulates between Ticks and dashboards poll it for staleness.
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = WindowSpec(1024, 256);
  options.default_backend.kind = BackendKind::kExact;
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");
  ASSERT_TRUE(engine.RecordBatch(key, std::vector<double>(1024, 1.0)).ok());
  engine.Tick();

  const QuerySpec spec = QuerySpec::ForKey(key).With(QueryRequest::Count());
  auto first = engine.Query(spec);  // builds the cache
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().inflight_count, 0);

  ASSERT_TRUE(engine.RecordBatch(key, std::vector<double>(300, 2.0)).ok());
  auto second = engine.Query(spec);
  ASSERT_TRUE(second.ok());
  // Window state is cached (Count unchanged) but inflight is re-read.
  EXPECT_EQ(second.ValueOrDie().outcomes[0].value, 1024.0);
  EXPECT_EQ(second.ValueOrDie().inflight_count, 300);

  engine.Tick();
  auto third = engine.Query(spec);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.ValueOrDie().outcomes[0].value, 1324.0);
  EXPECT_EQ(third.ValueOrDie().inflight_count, 0);
}

TEST(QueryCacheTest, CmqsAnswerDoesNotDependOnAnEarlierQuery) {
  // A CMQS window moves between Ticks (its open bucket is window content),
  // so a cache built by an earlier query must not freeze it: the same
  // records give the same Count whether or not a query ran in between.
  EngineOptions options;
  options.num_shards = 1;
  options.shard_window = WindowSpec(4096, 1024);
  options.default_backend.kind = BackendKind::kCmqs;
  options.default_backend.epsilon = 0.0005;
  const MetricKey key("rtt_us");
  const QuerySpec spec = QuerySpec::ForKey(key).With(QueryRequest::Count());
  auto count_after = [&](bool query_between) {
    TelemetryEngine engine(options);
    EXPECT_TRUE(engine.RecordBatch(key, std::vector<double>(1000, 1.0)).ok());
    engine.Tick();
    if (query_between) {
      EXPECT_TRUE(engine.Query(spec).ok());
    }
    EXPECT_TRUE(engine.RecordBatch(key, std::vector<double>(500, 2.0)).ok());
    engine.Flush();
    auto result = engine.Query(spec);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result.ValueOrDie().outcomes[0].value : -1.0;
  };
  const double cold = count_after(false);
  EXPECT_EQ(count_after(true), cold);
  EXPECT_EQ(cold, 1500.0);
}

// ---------------------------------------------------------------------------
// One pool rule on both tiers
// ---------------------------------------------------------------------------

TEST(QueryApiTest, AgentRefusesPoolAcrossDisagreeingGrids) {
  // A WAL-recovered metric keeps the grid it was logged with, so one
  // engine can hold qlove metrics on two grids. Pooling them natively
  // would average one metric's p90 with the other's p95; the agent must
  // refuse exactly as an aggregator fed the same state does.
  test_util::ScopedWalDir dir;
  const MetricKey crashed("lat", {{"host", "x"}});
  const MetricKey live("lat", {{"host", "y"}});
  {
    EngineOptions options = MakeOptions(BackendKind::kQlove);
    options.phis = {0.5, 0.9, 0.99, 0.999};
    TelemetryEngine engine(options);
    ASSERT_TRUE(engine.EnableWal(dir.path()).ok());
    workload::NetMonGenerator gen(71);
    FeedWindow(&engine, crashed, workload::Materialize(&gen, 2 * kPerTick));
  }
  EngineOptions options = MakeOptions(BackendKind::kQlove);
  options.phis = {0.5, 0.95, 0.99, 0.999};
  TelemetryEngine engine(options);
  auto recovered = engine.RecoverFromWal(dir.path());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.ValueOrDie().metrics, 1);
  workload::NetMonGenerator gen(72);
  FeedWindow(&engine, live, workload::Materialize(&gen, kPerTick));

  const QuerySpec spec = QuerySpec::ForSelector(TagSelector{"lat", {}})
                             .With(QueryRequest::Quantile(0.9));
  auto agent = engine.Query(spec);
  EXPECT_EQ(agent.status().code(), Status::Code::kFailedPrecondition);

  AggregatorEngine host;
  ASSERT_TRUE(host.IngestFrame(test_util::FullFrame(engine, "b")).ok());
  auto pooled = host.Query(spec);
  EXPECT_EQ(pooled.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(agent.status().ToString(), pooled.status().ToString());

  // Each metric alone still serves on its own grid.
  EXPECT_TRUE(engine.Query(QuerySpec::ForKey(crashed)
                               .With(QueryRequest::Quantile(0.9)))
                  .ok());
  EXPECT_TRUE(
      engine.Query(QuerySpec::ForKey(live).With(QueryRequest::Quantile(0.9)))
          .ok());
}

class QueryApiParityTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryApiParityTest, AgentAnswersBitIdenticallyToHost) {
  // An agent's queries pool exactly the coalesced export window it ships,
  // whatever its shard count, so a host fed the full frame must answer
  // every target — single keys, same-kind rollups and the mixed name-wide
  // rollup — bit for bit like the agent. The one field that differs by
  // design is num_shards: the agent reports its configured shards, the
  // host one per held summary.
  const int shards = GetParam();
  EngineOptions options;
  options.num_shards = shards;
  options.shard_window = WindowSpec(2048, 256);
  TelemetryEngine engine(options);

  const std::vector<BackendKind> kinds = {BackendKind::kQlove,
                                          BackendKind::kGk, BackendKind::kCmqs,
                                          BackendKind::kExact};
  std::vector<MetricKey> keys;
  for (BackendKind kind : kinds) {
    BackendOptions backend;
    backend.kind = kind;
    backend.epsilon = 0.0005;
    for (const char* host : {"h0", "h1"}) {
      keys.push_back(MetricKey("lat")
                         .WithTag("kind", BackendKindName(kind))
                         .WithTag("host", host));
      ASSERT_TRUE(engine.RegisterMetric(keys.back(), backend).ok());
    }
  }
  for (int tick = 0; tick < 6; ++tick) {
    for (size_t k = 0; k < keys.size(); ++k) {
      workload::NetMonGenerator gen(500 + 10 * k + tick);
      ASSERT_TRUE(
          engine.RecordBatch(keys[k], workload::Materialize(&gen, 256)).ok());
    }
    engine.Tick();
  }
  AggregatorEngine host;
  ASSERT_TRUE(host.IngestFrame(test_util::FullFrame(engine, "agent")).ok());

  std::vector<QuerySpec> targets;
  for (const MetricKey& key : keys) targets.push_back(QuerySpec::ForKey(key));
  for (BackendKind kind : kinds) {
    targets.push_back(QuerySpec::ForSelector(
        TagSelector{"lat", {{"kind", BackendKindName(kind)}}}));
  }
  targets.push_back(QuerySpec::ForSelector(TagSelector{"lat", {}}));

  int outcomes = 0;
  for (QuerySpec& spec : targets) {
    spec.With(QueryRequest::Quantile(0.5))
        .With(QueryRequest::Quantile(0.97))
        .With(QueryRequest::Quantile(0.99))
        .With(QueryRequest::Rank(900.0))
        .With(QueryRequest::Count());
    SCOPED_TRACE(DescribeQuerySpec(spec));
    auto agent = engine.Query(spec);
    auto pooled = host.Query(spec);
    ASSERT_TRUE(agent.ok()) << agent.status().ToString();
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    const QueryResult& a = agent.ValueOrDie();
    const QueryResult& h = pooled.ValueOrDie();
    EXPECT_EQ(a.matched, h.matched);
    EXPECT_EQ(a.backend, h.backend);
    EXPECT_EQ(a.mixed_backends, h.mixed_backends);
    EXPECT_EQ(a.window_count, h.window_count);
    EXPECT_EQ(a.num_summaries, h.num_summaries);
    EXPECT_EQ(a.num_shards, shards * h.num_shards);
    EXPECT_EQ(a.inflight_count, h.inflight_count);
    EXPECT_EQ(a.burst_active, h.burst_active);
    ASSERT_EQ(a.outcomes.size(), h.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(a.outcomes[i].status.ToString(),
                h.outcomes[i].status.ToString());
      EXPECT_EQ(a.outcomes[i].value, h.outcomes[i].value);
      EXPECT_EQ(a.outcomes[i].source, h.outcomes[i].source);
      EXPECT_EQ(a.outcomes[i].rank_error_bound,
                h.outcomes[i].rank_error_bound);
      EXPECT_EQ(a.outcomes[i].value_error_bound,
                h.outcomes[i].value_error_bound);
      ++outcomes;
    }
  }
  EXPECT_EQ(outcomes, 65);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, QueryApiParityTest,
                         ::testing::Values(1, 4, 8),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// The query window's lifetime under concurrent Ticks and Exports
// ---------------------------------------------------------------------------

TEST(AgentQueryRaceTest, QueriesRaceTickAndExport) {
  // A query holds its metric's ResolvedWindow — a copy of the export
  // window — for the whole evaluation, while Tick and Export update the
  // export window under the epoch lock and drop the copy: under TSan every
  // access must be ordered by that lock or by the shared_ptr. Every answer
  // is a whole number of full Ticks (no torn window), and afterwards the
  // agent answers exactly as the host its frames fed.
  constexpr int kShards = 4;
  constexpr int64_t kPeriod = 256;
  constexpr int kTicks = 24;
  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window = WindowSpec(4 * kPeriod, kPeriod);
  TelemetryEngine engine(options);
  const MetricKey keys[2] = {MetricKey("rtt_us", {{"host", "a"}}),
                             MetricKey("rtt_us", {{"host", "b"}})};
  for (const MetricKey& key : keys) {
    ASSERT_TRUE(engine.RegisterMetric(key).ok());
  }
  AggregatorEngine host;
  const int64_t batch = kShards * kPeriod;

  std::atomic<bool> done{false};
  std::thread ticker([&] {
    workload::NetMonGenerator gen(31);
    ExportCursor cursor;
    std::vector<uint8_t> frame;
    for (int tick = 0; tick < kTicks; ++tick) {
      for (const MetricKey& key : keys) {
        EXPECT_TRUE(
            engine.RecordBatch(key, workload::Materialize(&gen, batch)).ok());
      }
      engine.Tick();
      EXPECT_TRUE(engine.Export("agent", &cursor, &frame).ok());
      auto ack = host.IngestFrame(frame);
      EXPECT_TRUE(ack.ok()) << ack.status().ToString();
      if (!ack.ok() || !ack.ValueOrDie().applied) cursor.RequestResync();
    }
    done.store(true);
  });
  const QuerySpec point = QuerySpec::ForKey(keys[0])
                              .With(QueryRequest::Count())
                              .With(QueryRequest::Quantile(0.99))
                              .With(QueryRequest::Rank(800.0));
  const QuerySpec rollup = QuerySpec::ForSelector({"rtt_us", {}})
                               .With(QueryRequest::Count())
                               .With(QueryRequest::Quantile(0.5));
  // No ASSERT before the join: returning early would destroy the ticker
  // unjoined.
  do {
    for (const QuerySpec* spec : {&point, &rollup}) {
      auto result = engine.Query(*spec);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      const QueryResult& r = result.ValueOrDie();
      EXPECT_EQ(r.window_count % batch, 0) << "torn window";
      EXPECT_EQ(r.outcomes[0].value, static_cast<double>(r.window_count));
    }
  } while (!done.load());
  ticker.join();

  auto agent = engine.Query(point);
  auto pooled = host.Query(point);
  ASSERT_TRUE(agent.ok() && pooled.ok());
  EXPECT_EQ(agent.ValueOrDie().window_count, 4 * batch);
  for (size_t i = 0; i < point.requests.size(); ++i) {
    EXPECT_EQ(agent.ValueOrDie().outcomes[i].value,
              pooled.ValueOrDie().outcomes[i].value);
  }
}

}  // namespace
}  // namespace engine
}  // namespace qlove
