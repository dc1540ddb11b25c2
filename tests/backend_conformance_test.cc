// Backend conformance suite: one parameterized fixture run over every
// engine ShardBackend (qlove / gk / cmqs / exact) and one over every
// QuantileOperator policy, asserting the three properties a mergeable
// window summary must provide:
//   1. rank-error tolerance — merged estimates stay within the backend's
//      advertised rank budget against the exact window contents;
//   2. window expiry — data older than the window never leaks into
//      estimates (distribution-shift probe);
//   3. merge-vs-single-stream agreement — a sharded engine's merged answer
//      matches the same backend run unsharded on the same multiset.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/harness.h"
#include "common/rng.h"
#include "core/qlove.h"
#include "engine/backend.h"
#include "engine/engine.h"
#include "grid_query.h"
#include "rank_error.h"
#include "sketch/am.h"
#include "sketch/cmqs.h"
#include "sketch/exact.h"
#include "sketch/moment.h"
#include "sketch/random_sketch.h"
#include "workload/generators.h"

namespace qlove {
namespace {

constexpr int64_t kWindow = 8192;
constexpr int64_t kPeriod = 1024;
const std::vector<double> kPhis = {0.5, 0.9, 0.99};

using test_util::GridQuery;
using test_util::RankError;

// ---------------------------------------------------------------------------
// Engine backends
// ---------------------------------------------------------------------------

struct BackendCase {
  engine::BackendKind kind;
  double body_tol;  ///< Rank-error budget for phi < 0.99.
  double tail_tol;  ///< Rank-error budget for phi >= 0.99.
};

engine::BackendOptions MakeBackendOptions(engine::BackendKind kind) {
  engine::BackendOptions backend;
  backend.kind = kind;
  backend.epsilon = 0.005;  // gk / cmqs rank budget; resolves p99
  return backend;
}

engine::TelemetryEngine MakeEngine(int num_shards) {
  engine::EngineOptions options;
  options.num_shards = num_shards;
  options.shard_window = WindowSpec(kWindow / num_shards, kPeriod / num_shards);
  options.phis = kPhis;
  return engine::TelemetryEngine(options);
}

// Feeds `data` in one-period batches, ticking after each.
void FeedByPeriods(engine::TelemetryEngine* engine,
                   const engine::MetricKey& key,
                   const std::vector<double>& data) {
  for (size_t offset = 0; offset < data.size();
       offset += static_cast<size_t>(kPeriod)) {
    const size_t n =
        std::min(static_cast<size_t>(kPeriod), data.size() - offset);
    ASSERT_TRUE(engine->RecordBatch(key, data.data() + offset, n).ok());
    engine->Tick();
  }
}

class BackendConformanceTest : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BackendConformanceTest, RankErrorWithinTolerance) {
  const BackendCase param = GetParam();
  engine::TelemetryEngine engine = MakeEngine(4);
  const engine::MetricKey key("conformance");
  ASSERT_TRUE(engine.RegisterMetric(key, MakeBackendOptions(param.kind)).ok());

  workload::NetMonGenerator gen(17);
  const std::vector<double> data = workload::Materialize(&gen, kWindow);
  FeedByPeriods(&engine, key, data);

  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  auto answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  const engine::QueryResult& r = answer.ValueOrDie();
  EXPECT_EQ(r.backend, param.kind);
  EXPECT_EQ(r.window_count, kWindow);
  EXPECT_EQ(r.inflight_count, 0);
  ASSERT_EQ(r.outcomes.size(), kPhis.size());

  double previous = -1.0;
  for (size_t i = 0; i < kPhis.size(); ++i) {
    const double tol = kPhis[i] >= 0.99 ? param.tail_tol : param.body_tol;
    const double estimate = r.outcomes[i].value;
    const double err = RankError(sorted, estimate, kPhis[i]);
    EXPECT_LE(err, tol) << "phi=" << kPhis[i] << " estimate=" << estimate;
    EXPECT_GE(estimate, previous);  // monotone in phi
    previous = estimate;
    if (param.kind != engine::BackendKind::kQlove) {
      EXPECT_EQ(r.outcomes[i].source, core::OutcomeSource::kSketchMerge);
    }
  }
}

TEST_P(BackendConformanceTest, WindowExpiryUnderDistributionShift) {
  const BackendCase param = GetParam();
  engine::TelemetryEngine engine = MakeEngine(4);
  const engine::MetricKey key("shift");
  ASSERT_TRUE(engine.RegisterMetric(key, MakeBackendOptions(param.kind)).ok());

  // One full window around 100, then one full window around 1000: after the
  // second window every estimate must reflect the new regime only.
  Rng rng(23);
  std::vector<double> old_regime(kWindow), new_regime(kWindow);
  for (auto& v : old_regime) v = 50.0 + 100.0 * rng.NextDouble();
  for (auto& v : new_regime) v = 1000.0 + 100.0 * rng.NextDouble();
  FeedByPeriods(&engine, key, old_regime);
  FeedByPeriods(&engine, key, new_regime);

  auto answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  const engine::QueryResult& r = answer.ValueOrDie();
  EXPECT_EQ(r.window_count, kWindow) << "expired data still counted";
  for (size_t i = 0; i < kPhis.size(); ++i) {
    // Any leakage of the old regime would drag the estimate toward 150 or
    // below; the smallest new-regime value is 1000.
    EXPECT_GE(r.outcomes[i].value, 900.0) << "phi=" << kPhis[i];
  }
}

TEST_P(BackendConformanceTest, EmptyTicksExpireStarvedWindow) {
  const BackendCase param = GetParam();
  engine::TelemetryEngine engine = MakeEngine(4);
  const engine::MetricKey key("starved");
  ASSERT_TRUE(engine.RegisterMetric(key, MakeBackendOptions(param.kind)).ok());

  workload::NetMonGenerator gen(61);
  FeedByPeriods(&engine, key, workload::Materialize(&gen, kWindow));
  auto answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.ValueOrDie().window_count, kWindow);

  // Time-driven windows slide even with no ingest: after a window's worth
  // of empty Ticks every backend must report an empty window instead of
  // serving stale quantiles as current.
  for (int64_t i = 0; i < kWindow / kPeriod; ++i) engine.Tick();
  answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.ValueOrDie().window_count, 0);
  EXPECT_EQ(answer.ValueOrDie().num_summaries, 0);
}

TEST_P(BackendConformanceTest, TrickleIngestStillExpiresStaleData) {
  const BackendCase param = GetParam();
  engine::TelemetryEngine engine = MakeEngine(4);
  const engine::MetricKey key("trickle");
  ASSERT_TRUE(engine.RegisterMetric(key, MakeBackendOptions(param.kind)).ok());

  // A full window of old-regime data, then a trickle: 4 new-regime samples
  // (one per shard) per Tick for a whole window of Ticks. The trickle must
  // not keep the old regime alive — time slides the window regardless of
  // how few elements arrive (the count-based view alone would retain the
  // old data for thousands of further ticks).
  Rng rng(67);
  std::vector<double> old_regime(kWindow);
  for (auto& v : old_regime) v = 50.0 + 100.0 * rng.NextDouble();
  FeedByPeriods(&engine, key, old_regime);

  const int64_t ticks = kWindow / kPeriod;
  for (int64_t t = 0; t < ticks; ++t) {
    std::vector<double> drip(4);
    for (auto& v : drip) v = 1000.0 + 100.0 * rng.NextDouble();
    ASSERT_TRUE(engine.RecordBatch(key, drip).ok());
    engine.Tick();
  }

  auto answer = GridQuery(engine, key);
  ASSERT_TRUE(answer.ok());
  const engine::QueryResult& r = answer.ValueOrDie();
  EXPECT_EQ(r.window_count, 4 * ticks) << "stale data still counted";
  for (size_t i = 0; i < kPhis.size(); ++i) {
    EXPECT_GE(r.outcomes[i].value, 900.0) << "phi=" << kPhis[i];
  }
}

TEST_P(BackendConformanceTest, QueryRankAgreesWithExactWindowRank) {
  // A Rank request must agree with the exact at-or-below fraction of the
  // window contents within the backend's budget: exactly for Exact,
  // within the epsilon rank budget for the GK family, and within the
  // quantile-grid resolution for QLOVE.
  const BackendCase param = GetParam();
  engine::TelemetryEngine engine = MakeEngine(1);
  const engine::MetricKey key("rank");
  ASSERT_TRUE(engine.RegisterMetric(key, MakeBackendOptions(param.kind)).ok());

  workload::NetMonGenerator gen(73);
  const std::vector<double> data = workload::Materialize(&gen, kWindow);
  FeedByPeriods(&engine, key, data);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  auto rank_of = [&](double probe) {
    auto answer = engine.Query(engine::QuerySpec::ForKey(key).With(
        engine::QueryRequest::Rank(probe)));
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return answer.ok() ? answer.ValueOrDie().outcomes[0].value : -1.0;
  };

  double tol;
  switch (param.kind) {
    case engine::BackendKind::kExact: tol = 0.0; break;
    case engine::BackendKind::kGk:
    case engine::BackendKind::kCmqs: tol = 0.015; break;  // eps + pooling
    default: tol = 0.05; break;  // qlove: grid interpolation resolution
  }
  for (double phi : kPhis) {
    const auto target = static_cast<size_t>(
        std::ceil(phi * static_cast<double>(kWindow)));
    const double probe = sorted[target - 1];
    const auto exact_rank = static_cast<int64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), probe) -
        sorted.begin());
    const double fraction = rank_of(probe);
    const double err = std::abs(fraction - static_cast<double>(exact_rank) /
                                               static_cast<double>(kWindow));
    EXPECT_LE(err, tol) << engine::BackendKindName(param.kind)
                        << " phi=" << phi << " fraction=" << fraction
                        << " exact=" << exact_rank;
  }
  // Probes outside the observed range saturate — exactly for the
  // entry-backed kinds (their entries span the window), within the grid
  // bound for QLOVE (its summaries do not record the window min/max, so a
  // probe just outside the range is indistinguishable from one just
  // inside the outermost grid cell).
  if (param.kind == engine::BackendKind::kQlove) {
    // The budget in whole elements of the window, as a fraction.
    const double slack = std::floor(tol * kWindow) / kWindow;
    EXPECT_GE(rank_of(sorted.back() + 1.0), 1.0 - slack);
    EXPECT_LE(rank_of(sorted.front() - 1.0), slack);
  } else {
    EXPECT_EQ(rank_of(sorted.back() + 1.0), 1.0);
    EXPECT_EQ(rank_of(sorted.front() - 1.0), 0.0);
  }
}

TEST(BackendKindTest, NameParseRoundTrip) {
  for (engine::BackendKind kind :
       {engine::BackendKind::kQlove, engine::BackendKind::kGk,
        engine::BackendKind::kCmqs, engine::BackendKind::kExact}) {
    auto parsed = engine::ParseBackendKind(engine::BackendKindName(kind));
    ASSERT_TRUE(parsed.ok()) << engine::BackendKindName(kind);
    EXPECT_EQ(parsed.ValueOrDie(), kind);
  }
  EXPECT_FALSE(engine::ParseBackendKind("bogus").ok());
  EXPECT_FALSE(engine::ParseBackendKind("").ok());
}

TEST_P(BackendConformanceTest, MergeMatchesSingleStream) {
  const BackendCase param = GetParam();
  const engine::MetricKey key("agreement");

  workload::NetMonGenerator gen(31);
  const std::vector<double> data = workload::Materialize(&gen, kWindow);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  std::vector<std::vector<double>> estimates;  // [sharded?][phi]
  for (int num_shards : {1, 4}) {
    engine::TelemetryEngine engine = MakeEngine(num_shards);
    ASSERT_TRUE(
        engine.RegisterMetric(key, MakeBackendOptions(param.kind)).ok());
    FeedByPeriods(&engine, key, data);
    auto answer = GridQuery(engine, key);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.ValueOrDie().window_count, kWindow);
    std::vector<double>& values = estimates.emplace_back();
    for (const engine::QueryOutcome& outcome : answer.ValueOrDie().outcomes) {
      values.push_back(outcome.value);
    }
  }

  for (size_t i = 0; i < kPhis.size(); ++i) {
    const double tol = kPhis[i] >= 0.99 ? param.tail_tol : param.body_tol;
    const double single_err = RankError(sorted, estimates[0][i], kPhis[i]);
    const double merged_err = RankError(sorted, estimates[1][i], kPhis[i]);
    // The sharded merge must hold the same budget the single stream does —
    // sharding may cost slack within the budget but must not escape it.
    EXPECT_LE(single_err, tol) << "phi=" << kPhis[i];
    EXPECT_LE(merged_err, tol) << "phi=" << kPhis[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformanceTest,
    ::testing::Values(
        // QLOVE: Level-2 body within CLT slack, few-k-corrected tail.
        BackendCase{engine::BackendKind::kQlove, 0.03, 0.01},
        // GK / CMQS: deterministic epsilon budget (0.005) plus merge slack.
        BackendCase{engine::BackendKind::kGk, 0.02, 0.01},
        BackendCase{engine::BackendKind::kCmqs, 0.02, 0.01},
        // Exact: paper-rank answers, zero tolerance.
        BackendCase{engine::BackendKind::kExact, 0.0, 0.0}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return std::string(engine::BackendKindName(info.param.kind));
    });

// ---------------------------------------------------------------------------
// QuantileOperator policies (the stream/ seam the backends wrap)
// ---------------------------------------------------------------------------

// GoogleTest prints the raw bytes of the parameter into the test name, so the
// name is held inline: a `const char*` would put a load address there and
// rename the test on every build and run.
struct OperatorCase {
  char name[8];
  double avg_rank_tol;  ///< Average rank-error budget on netmon.
};

std::unique_ptr<QuantileOperator> MakeOperator(const std::string& name) {
  if (name == "qlove") return std::make_unique<core::QloveOperator>();
  if (name == "exact") return std::make_unique<sketch::ExactOperator>();
  if (name == "cmqs") return std::make_unique<sketch::CmqsOperator>();
  if (name == "am") return std::make_unique<sketch::AmOperator>();
  if (name == "random") return std::make_unique<sketch::RandomSketchOperator>();
  if (name == "moment") return std::make_unique<sketch::MomentOperator>();
  return nullptr;
}

class OperatorConformanceTest : public ::testing::TestWithParam<OperatorCase> {
};

TEST_P(OperatorConformanceTest, RankErrorWithinTolerance) {
  const OperatorCase param = GetParam();
  std::unique_ptr<QuantileOperator> op = MakeOperator(param.name);
  ASSERT_NE(op, nullptr);

  workload::NetMonGenerator gen(47);
  const std::vector<double> data = workload::Materialize(&gen, kWindow * 3);
  const auto result = bench_util::RunAccuracy(
      op.get(), data, WindowSpec(kWindow, kPeriod), kPhis,
      /*with_rank_error=*/true);
  ASSERT_GT(result.evaluations, 0);
  for (double err : result.avg_rank_error) {
    EXPECT_LE(err, param.avg_rank_tol) << op->Name();
  }
  EXPECT_GT(result.observed_space, 0);
}

TEST_P(OperatorConformanceTest, WindowExpiryUnderDistributionShift) {
  const OperatorCase param = GetParam();
  std::unique_ptr<QuantileOperator> op = MakeOperator(param.name);
  ASSERT_NE(op, nullptr);

  Rng rng(53);
  std::vector<double> data;
  data.reserve(static_cast<size_t>(kWindow) * 2);
  for (int64_t i = 0; i < kWindow; ++i) {
    data.push_back(50.0 + 100.0 * rng.NextDouble());
  }
  for (int64_t i = 0; i < kWindow; ++i) {
    data.push_back(1000.0 + 100.0 * rng.NextDouble());
  }

  WindowedQuantileQuery query(WindowSpec(kWindow, kPeriod), kPhis, op.get());
  ASSERT_TRUE(query.Initialize().ok());
  const std::vector<WindowResult> results = query.Run(data);
  ASSERT_FALSE(results.empty());
  const WindowResult& last = results.back();
  for (size_t i = 0; i < kPhis.size(); ++i) {
    // The final window holds only new-regime values (>= 1000); estimates
    // pulled toward the old regime would betray a leaky expiry path.
    EXPECT_GE(last.estimates[i], 900.0)
        << op->Name() << " phi=" << kPhis[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OperatorConformanceTest,
    ::testing::Values(OperatorCase{"qlove", 0.03}, OperatorCase{"exact", 1e-9},
                      OperatorCase{"cmqs", 0.03}, OperatorCase{"am", 0.05},
                      OperatorCase{"random", 0.05},
                      OperatorCase{"moment", 0.05}),
    [](const ::testing::TestParamInfo<OperatorCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace qlove
