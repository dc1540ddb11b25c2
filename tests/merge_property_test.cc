// Randomized property harness for the distributed merge path: the
// correctness contract the fleet deployment rests on is that merging is
// (a) order-insensitive — commutative and associative over sources, (b)
// transparent to serialization — an aggregator answers bit for bit the
// same whether it holds the shipped frame, that frame decoded and
// re-encoded, or a parent tier's copy of its re-export, and (c)
// accuracy-preserving — the fleet-merged answer stays within the
// Theorem-1 rank budget of a union-stream Exact oracle.
//
// Every trial is seeded (the failure message names the seed, so a red run
// reproduces exactly) and failures shrink by halving: the harness re-runs
// the failing predicate on successively halved data slices and reports the
// smallest slice that still fails, which is what you want to debug, not
// the original 10k-element stream.
//
// Iteration budget: kTrials per property, multiplied by 10 under
// -DLONG_PROPERTY_TESTS=ON (the nightly CI configuration).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "export_util.h"
#include "rank_error.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::FullFrame;
using test_util::FullSnapshot;
using test_util::RankError;

#ifdef QLOVE_LONG_PROPERTY_TESTS
constexpr int kTrialMultiplier = 10;
#else
constexpr int kTrialMultiplier = 1;
#endif
constexpr int kTrials = 4 * kTrialMultiplier;

constexpr int kShards = 2;
constexpr int64_t kPerShardWindow = 1024;
constexpr int64_t kPerShardPeriod = 256;
constexpr int64_t kPerTick = kShards * kPerShardPeriod;  // 512
constexpr int64_t kAgentWindow = kShards * kPerShardWindow;  // 2048

const std::vector<BackendKind> kAllKinds = {
    BackendKind::kQlove, BackendKind::kGk, BackendKind::kCmqs,
    BackendKind::kExact};

EngineOptions MakeOptions(BackendKind kind) {
  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window = WindowSpec(kPerShardWindow, kPerShardPeriod);
  options.default_backend.kind = kind;
  options.default_backend.epsilon = 0.0005;
  return options;
}

/// Random-but-seeded stream: the distribution family is picked by
/// \p family_seed and the sample path by \p stream_seed. Fleet trials pass
/// one family per trial with per-agent stream seeds: hosts of one fleet
/// serve similar traffic (the paper's setting, and what Theorem 1's
/// similarly-distributed sub-windows assume); successive trials still
/// explore different distributions.
std::vector<double> MakeStream(uint64_t family_seed, uint64_t stream_seed,
                               int64_t n) {
  Rng rng(family_seed);
  const int pick = static_cast<int>(rng.Next64() % 3);
  std::unique_ptr<workload::Generator> gen;
  switch (pick) {
    case 0:
      gen = std::make_unique<workload::NetMonGenerator>(stream_seed);
      break;
    case 1:
      gen = std::make_unique<workload::ParetoGenerator>(stream_seed);
      break;
    default:
      gen = std::make_unique<workload::SearchGenerator>(stream_seed);
      break;
  }
  return workload::Materialize(gen.get(), n);
}

std::vector<double> MakeStream(uint64_t seed, int64_t n) {
  return MakeStream(seed, seed, n);
}

/// Feeds one agent engine a full window of \p data (tick per period).
void FeedAgent(TelemetryEngine* engine, const MetricKey& key,
               const std::vector<double>& data) {
  for (size_t offset = 0; offset < data.size();
       offset += static_cast<size_t>(kPerTick)) {
    const size_t n =
        std::min(static_cast<size_t>(kPerTick), data.size() - offset);
    ASSERT_TRUE(engine->RecordBatch(key, data.data() + offset, n).ok());
    engine->Tick();
  }
}

/// The probe requests every property evaluates: grid and off-grid
/// quantiles plus a rank/CDF probe and the count.
QuerySpec ProbeSpec(const MetricKey& key, double rank_probe) {
  return QuerySpec::ForKey(key)
      .With(QueryRequest::Quantile(0.5))
      .With(QueryRequest::Quantile(0.9))
      .With(QueryRequest::Quantile(0.97))  // off-grid
      .With(QueryRequest::Quantile(0.99))
      .With(QueryRequest::Quantile(0.999))
      .With(QueryRequest::Rank(rank_probe))
      .With(QueryRequest::Count());
}

std::vector<double> OutcomeValues(const QueryResult& result) {
  std::vector<double> values;
  values.reserve(result.outcomes.size());
  for (const QueryOutcome& outcome : result.outcomes) {
    values.push_back(outcome.value);
  }
  return values;
}

/// Runs \p predicate on progressively halved prefixes of \p data after a
/// failure at full size, and reports the smallest failing size. The
/// predicate must be deterministic in (data, seed).
void ShrinkByHalving(
    const std::vector<double>& data, uint64_t seed,
    const std::function<std::string(const std::vector<double>&)>& predicate) {
  const std::string full = predicate(data);
  if (full.empty()) return;  // property held
  std::vector<double> failing = data;
  std::string failure = full;
  while (failing.size() > static_cast<size_t>(kPerTick)) {
    std::vector<double> half(failing.begin(),
                             failing.begin() + failing.size() / 2);
    const std::string result = predicate(half);
    if (result.empty()) break;  // half passes: previous size is minimal
    failing.swap(half);
    failure = result;
  }
  ADD_FAILURE() << "property failed (seed=" << seed
                << ", shrunk to n=" << failing.size() << "): " << failure;
}

// ---------------------------------------------------------------------------
// Serialize-then-merge == merge-in-process, bit for bit
// ---------------------------------------------------------------------------

TEST(MergePropertyTest, SerializeThenMergeEqualsInProcessMerge) {
  for (BackendKind kind : kAllKinds) {
    for (int trial = 0; trial < kTrials; ++trial) {
      const uint64_t seed = 1000 + static_cast<uint64_t>(trial);
      const std::vector<double> data = MakeStream(seed, kAgentWindow);
      auto predicate =
          [kind](const std::vector<double>& slice) -> std::string {
        TelemetryEngine engine(MakeOptions(kind));
        const MetricKey key("prop");
        FeedAgent(&engine, key, slice);
        const double probe = slice[slice.size() / 2];

        // Three receivers of the same shipped state: the frame itself, the
        // frame decoded and re-encoded, and a cluster tier fed the host
        // tier's re-export. (The agent's own in-process answer differs from
        // these by the shard coalescing's FP reassociation; the fleet
        // rank-budget property below bounds that.)
        const std::vector<uint8_t> frame = FullFrame(engine, "agent-0");
        auto decoded = DecodeFrame(frame);
        if (!decoded.ok()) return "decode failed: " +
                                  decoded.status().ToString();
        const std::vector<uint8_t> reencoded =
            EncodeFrame(decoded.ValueOrDie());
        AggregatorEngine host;
        AggregatorEngine reencoded_host;
        AggregatorEngine cluster;
        std::vector<uint8_t> reexport;
        auto ingested = host.IngestFrame(frame);
        if (!ingested.ok()) return "ingest failed: " +
                                   ingested.status().ToString();
        ingested = reencoded_host.IngestFrame(reencoded);
        if (!ingested.ok()) return "re-encoded ingest failed: " +
                                   ingested.status().ToString();
        ExportCursor reexport_cursor;  // fresh: the full frame
        const Status reexported =
            host.Export("host-0", &reexport_cursor, &reexport);
        if (!reexported.ok()) return "re-export failed: " +
                                     reexported.ToString();
        ingested = cluster.IngestFrame(reexport);
        if (!ingested.ok()) return "cluster ingest failed: " +
                                   ingested.status().ToString();

        auto reference = host.Query(ProbeSpec(key, probe));
        if (!reference.ok()) return "host query failed: " +
                                    reference.status().ToString();
        const std::vector<double> reference_values =
            OutcomeValues(reference.ValueOrDie());
        const std::pair<const char*, const AggregatorEngine*> receivers[] = {
            {"re-encoded", &reencoded_host}, {"cluster", &cluster}};
        for (const auto& [name, receiver] : receivers) {
          auto remote = receiver->Query(ProbeSpec(key, probe));
          if (!remote.ok()) return std::string(name) + " query failed: " +
                                   remote.status().ToString();
          // Identical evaluation over identical summaries: exact equality,
          // not a tolerance — serialization must be invisible.
          const std::vector<double> remote_values =
              OutcomeValues(remote.ValueOrDie());
          for (size_t i = 0; i < reference_values.size(); ++i) {
            if (reference_values[i] != remote_values[i]) {
              return "request " + std::to_string(i) + ": host " +
                     std::to_string(reference_values[i]) + " != " + name +
                     " " + std::to_string(remote_values[i]);
            }
          }
          if (reference.ValueOrDie().window_count !=
              remote.ValueOrDie().window_count) {
            return std::string(name) + " window_count diverged";
          }
        }
        return "";
      };
      ShrinkByHalving(data, seed, predicate);
    }
  }
}

// ---------------------------------------------------------------------------
// Commutativity and associativity over sources
// ---------------------------------------------------------------------------

TEST(MergePropertyTest, MergeIsCommutativeAndAssociativeOverSources) {
  constexpr int kAgents = 4;
  for (BackendKind kind : kAllKinds) {
    for (int trial = 0; trial < kTrials; ++trial) {
      const uint64_t seed = 2000 + static_cast<uint64_t>(trial);
      // One stream, dealt to agents; the predicate re-deals the slice so
      // shrinking stays meaningful.
      const std::vector<double> data =
          MakeStream(seed, kAgents * kAgentWindow);
      auto predicate =
          [kind, seed](const std::vector<double>& slice) -> std::string {
        const MetricKey key("prop");
        const int64_t per_agent =
            std::max<int64_t>(kPerTick,
                              static_cast<int64_t>(slice.size()) / kAgents);
        std::vector<std::vector<uint8_t>> frames;
        for (int agent = 0; agent < kAgents; ++agent) {
          const size_t begin =
              std::min(slice.size(),
                       static_cast<size_t>(agent * per_agent));
          const size_t end =
              std::min(slice.size(),
                       static_cast<size_t>((agent + 1) * per_agent));
          if (begin >= end) continue;
          TelemetryEngine engine(MakeOptions(kind));
          std::vector<double> part(slice.begin() + begin,
                                   slice.begin() + end);
          FeedAgent(&engine, key, part);
          frames.push_back(
              FullFrame(engine, "agent-" + std::to_string(agent)));
        }
        const double probe = slice[slice.size() / 2];

        // Ingest orders: identity, reversed, seed-shuffled. Merging must
        // not care who reported first (commutativity), and re-grouping
        // arrivals across aggregator instances must not change answers
        // (associativity over the pooled multiset).
        std::vector<size_t> order(frames.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::vector<std::vector<size_t>> orders = {order};
        orders.push_back({order.rbegin(), order.rend()});
        Rng rng(seed ^ 0xABCDEF);
        std::vector<size_t> shuffled = order;
        for (size_t i = shuffled.size(); i > 1; --i) {
          std::swap(shuffled[i - 1], shuffled[rng.Next64() % i]);
        }
        orders.push_back(shuffled);

        std::vector<double> reference;
        for (const std::vector<size_t>& ingest_order : orders) {
          AggregatorEngine aggregator;
          for (size_t index : ingest_order) {
            auto ack = aggregator.IngestFrame(frames[index]);
            if (!ack.ok()) return "ingest failed: " + ack.status().ToString();
          }
          auto result = aggregator.Query(ProbeSpec(key, probe));
          if (!result.ok()) return "query failed: " +
                                   result.status().ToString();
          const std::vector<double> values =
              OutcomeValues(result.ValueOrDie());
          if (reference.empty()) {
            reference = values;
          } else if (values != reference) {
            return "ingest order changed the merged answers";
          }
        }
        return "";
      };
      ShrinkByHalving(data, seed, predicate);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet-merged accuracy vs a union-stream Exact oracle
// ---------------------------------------------------------------------------

TEST(MergePropertyTest, FleetMergeStaysWithinTheoremOneRankBudget) {
  constexpr int kAgents = 4;
  // z_{0.025} for the Theorem-1 alpha = 0.05 form.
  constexpr double kZ = 1.959963984540054;
  for (BackendKind kind : kAllKinds) {
    for (int trial = 0; trial < kTrials; ++trial) {
      const uint64_t seed = 3000 + static_cast<uint64_t>(trial);
      const MetricKey key("prop");

      // Agents ingest disjoint streams; the oracle is the sorted union of
      // exactly the data still inside every agent's window.
      std::vector<double> window_union;
      AggregatorEngine aggregator;
      for (int agent = 0; agent < kAgents; ++agent) {
        const std::vector<double> data = MakeStream(
            seed, seed * 10 + static_cast<uint64_t>(agent), kAgentWindow);
        TelemetryEngine engine(MakeOptions(kind));
        FeedAgent(&engine, key, data);
        window_union.insert(window_union.end(), data.begin(), data.end());
        ASSERT_TRUE(aggregator
                        .IngestFrame(FullFrame(
                            engine, "agent-" + std::to_string(agent)))
                        .ok());
      }
      std::sort(window_union.begin(), window_union.end());
      const auto n = static_cast<double>(window_union.size());

      const std::vector<double> phis = {0.5, 0.9, 0.99, 0.999};
      QuerySpec spec = QuerySpec::ForKey(key);
      for (double phi : phis) spec.With(QueryRequest::Quantile(phi));
      auto result = aggregator.Query(spec);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const QueryResult& r = result.ValueOrDie();
      ASSERT_EQ(r.window_count, static_cast<int64_t>(window_union.size()));
      EXPECT_EQ(r.sources_fresh, kAgents);
      EXPECT_EQ(r.sources_stale, 0);

      for (size_t i = 0; i < phis.size(); ++i) {
        const double phi = phis[i];
        const QueryOutcome& outcome = r.outcomes[i];
        ASSERT_TRUE(outcome.status.ok());
        const double err = RankError(window_union, outcome.value, phi);
        // The rank budget: the outcome's own documented deterministic
        // bound (epsilon + 1/N for the sketch kinds, the grid term for
        // qlove) plus, on the qlove path, the Theorem-1 statistical term
        // in rank space — |phi_hat - phi| <= 2 z sqrt(phi(1-phi)/(n m))
        // (the value form times the density). The assertion takes 1.5x
        // the CI half-width (Theorem 1 is a per-check 95% interval and
        // this harness runs dozens of checks) plus a 4/m allowance for
        // the finite-m mean-of-sub-window-quantiles bias the asymptotic
        // statement drops (heavy-tailed trial families sit ~2-3 ranks/m
        // high at p90 with m = 256; the conformance suite bounds the
        // single-stream operator itself). This harness exists to catch
        // *merge* faults, which manifest an order of magnitude above
        // this budget (cf. pooling dissimilar distributions: 10-25x).
        // Entry-backed kinds' bounds are deterministic, so they get no
        // statistical slack at all.
        double budget = outcome.rank_error_bound;
        if (kind == BackendKind::kQlove) {
          budget += 1.5 * 2.0 * kZ * std::sqrt(phi * (1.0 - phi) / n) +
                    4.0 / static_cast<double>(kPerShardPeriod);
        } else {
          budget += 1.0 / n;
        }
        EXPECT_LE(err, budget)
            << BackendKindName(kind) << " phi=" << phi << " seed=" << seed
            << " estimate=" << outcome.value;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregator fleet semantics: staleness, partial-fleet accounting, epochs
// ---------------------------------------------------------------------------

/// Builds one agent's encoded export: \p ticks Ticks of deterministic data
/// under \p kind, reported as \p source.
std::vector<uint8_t> AgentFrame(const std::string& source, BackendKind kind,
                                uint64_t seed, int ticks) {
  TelemetryEngine engine(MakeOptions(kind));
  const MetricKey key("rtt_us", {{"host", source}});
  workload::NetMonGenerator gen(seed);
  for (int tick = 0; tick < ticks; ++tick) {
    EXPECT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, kPerTick)).ok());
    engine.Tick();
  }
  return FullFrame(engine, source);
}

TEST(AggregatorFleetTest, StaleSourceIsExcludedAndAccountedAsPartialFleet) {
  AggregatorEngine aggregator;  // staleness_epochs = 2
  // h0 stops reporting at epoch 4; h1 and h2 advance to epoch 8.
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h0", BackendKind::kExact, 1, 4))
          .ok());
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h1", BackendKind::kExact, 2, 8))
          .ok());
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h2", BackendKind::kExact, 3, 8))
          .ok());
  EXPECT_EQ(aggregator.FleetEpoch(), 8);

  const auto sources = aggregator.Sources();
  ASSERT_EQ(sources.size(), 3u);
  EXPECT_TRUE(sources[0].stale);   // h0: trails by 4 > budget 2
  EXPECT_FALSE(sources[1].stale);
  EXPECT_FALSE(sources[2].stale);

  auto result = aggregator.Query(QuerySpec::ForSelector(TagSelector{"rtt_us",
                                                                    {}})
                                     .With(QueryRequest::Quantile(0.9))
                                     .With(QueryRequest::Count()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& r = result.ValueOrDie();
  EXPECT_EQ(r.sources_fresh, 2);
  EXPECT_EQ(r.sources_stale, 1);
  // Only the fresh sub-fleet serves; h0's window (4 ticks of data, its
  // window holds all 4 x kPerTick elements) is excluded but accounted.
  EXPECT_EQ(r.matched.size(), 2u);
  const QueryOutcome& p90 = r.outcomes[0];
  ASSERT_TRUE(p90.status.ok());
  EXPECT_EQ(p90.source, core::OutcomeSource::kPartialFleet);
  // The widening is the stale share: h0 last held 4 * kPerTick elements
  // against the fresh pool's window_count.
  const double stale_weight = 4.0 * static_cast<double>(kPerTick);
  const double expected =
      stale_weight / (stale_weight + static_cast<double>(r.window_count));
  EXPECT_GT(p90.rank_error_bound, expected - 1e-12);
  // Count outcomes are stamped but not rank-widened.
  EXPECT_EQ(r.outcomes[1].source, core::OutcomeSource::kPartialFleet);
  EXPECT_EQ(r.outcomes[1].value, static_cast<double>(r.window_count));

  // A fully fresh fleet reports clean outcomes again.
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h0", BackendKind::kExact, 1, 8))
          .ok());
  auto fresh = aggregator.Query(
      QuerySpec::ForSelector(TagSelector{"rtt_us", {}})
          .With(QueryRequest::Quantile(0.9)));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.ValueOrDie().sources_stale, 0);
  EXPECT_EQ(fresh.ValueOrDie().outcomes[0].source,
            core::OutcomeSource::kSketchMerge);
}

TEST(AggregatorFleetTest, ReorderedExportCannotRollASourceBackwards) {
  AggregatorEngine aggregator;
  const std::vector<uint8_t> late = AgentFrame("h0", BackendKind::kGk, 5, 6);
  const std::vector<uint8_t> early = AgentFrame("h0", BackendKind::kGk, 5, 4);
  ASSERT_TRUE(aggregator.IngestFrame(late).ok());
  const Status rollback = aggregator.IngestFrame(early).status();
  EXPECT_EQ(rollback.code(), Status::Code::kFailedPrecondition);
  // Same-epoch re-send is idempotent.
  EXPECT_TRUE(aggregator.IngestFrame(late).ok());
  EXPECT_EQ(aggregator.source_count(), 1u);
}

TEST(AggregatorFleetTest, SameKeyAcrossSourcesPoolsIntoOneAnswer) {
  // Two agents report the SAME MetricKey (a service-level metric): the
  // fleet answer covers both populations under one matched key.
  AggregatorEngine aggregator;
  for (int agent = 0; agent < 2; ++agent) {
    TelemetryEngine engine(MakeOptions(BackendKind::kExact));
    const MetricKey key("qps", {{"service", "search"}});
    workload::NetMonGenerator gen(40 + static_cast<uint64_t>(agent));
    for (int tick = 0; tick < 4; ++tick) {
      ASSERT_TRUE(
          engine.RecordBatch(key, workload::Materialize(&gen, kPerTick))
              .ok());
      engine.Tick();
    }
    ASSERT_TRUE(aggregator
                    .IngestFrame(
                        FullFrame(engine, "host-" + std::to_string(agent)))
                    .ok());
  }
  auto result = aggregator.Query(
      QuerySpec::ForKey(MetricKey("qps", {{"service", "search"}}))
          .With(QueryRequest::Count()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().matched.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().sources_fresh, 2);
  EXPECT_EQ(result.ValueOrDie().window_count, 2 * 4 * kPerTick);
}

TEST(AggregatorFleetTest, UnknownTargetsAndGridMismatchesFailLoudly) {
  AggregatorEngine aggregator;
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h0", BackendKind::kQlove, 9, 4))
          .ok());
  EXPECT_EQ(aggregator
                .Query(QuerySpec::ForKey(MetricKey("nope"))
                           .With(QueryRequest::Count()))
                .status()
                .code(),
            Status::Code::kNotFound);

  // A second agent reporting the same key on a different phi grid cannot
  // pool with the first (qlove lowering reads the pool's grid).
  EngineOptions other = MakeOptions(BackendKind::kQlove);
  other.phis = {0.25, 0.75, 0.99};
  TelemetryEngine engine(other);
  const MetricKey key("rtt_us", {{"host", "h0"}});
  workload::NetMonGenerator gen(77);
  for (int tick = 0; tick < 4; ++tick) {
    ASSERT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, kPerTick)).ok());
    engine.Tick();
  }
  ASSERT_TRUE(aggregator.IngestFrame(FullFrame(engine, "h1")).ok());
  const Status mismatch =
      aggregator
          .Query(QuerySpec::ForKey(key).With(QueryRequest::Quantile(0.5)))
          .status();
  EXPECT_EQ(mismatch.code(), Status::Code::kFailedPrecondition);
}

TEST(AggregatorFleetTest, RestartedAndLateJoiningAgentsServeImmediately) {
  // Freshness is reporting recency, not absolute Tick counts: an agent
  // whose engine restarts (epoch counter back to 1) and a host that joins
  // the fleet late must both serve as soon as their frames arrive.
  AggregatorEngine aggregator;
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h0", BackendKind::kExact, 1, 20))
          .ok());
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h1", BackendKind::kExact, 2, 20))
          .ok());
  EXPECT_EQ(aggregator.FleetEpoch(), 20);

  // h0 restarts: epoch regresses 20 -> 4, far beyond the reorder budget.
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h0", BackendKind::kExact, 3, 4))
          .ok());
  // h2 joins late at epoch 4 against a fleet epoch of 20.
  ASSERT_TRUE(
      aggregator.IngestFrame(AgentFrame("h2", BackendKind::kExact, 4, 4))
          .ok());
  for (const auto& source : aggregator.Sources()) {
    EXPECT_FALSE(source.stale) << source.source;
  }
  auto result = aggregator.Query(
      QuerySpec::ForSelector(TagSelector{"rtt_us", {}})
          .With(QueryRequest::Count()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().sources_fresh, 3);
  EXPECT_EQ(result.ValueOrDie().sources_stale, 0);
  EXPECT_EQ(result.ValueOrDie().matched.size(), 3u);
}

TEST(AggregatorFleetTest, MixedGridPoolLowersThroughTheQloveGrid) {
  // A GK metric on one grid plus a qlove metric on another must pool —
  // lowering reads the qlove participants' own grid — no matter which
  // source name sorts first (the refusal is reserved for two *qlove*
  // grids disagreeing, where one of them would be mis-lowered).
  for (const char* gk_source : {"a-first", "z-last"}) {
    AggregatorEngine aggregator;

    EngineOptions gk_options = MakeOptions(BackendKind::kGk);
    gk_options.phis = {0.5, 0.9};  // coarser grid than the qlove agent's
    gk_options.default_backend.epsilon = 0.005;
    TelemetryEngine gk_engine(gk_options);
    const MetricKey gk_key("rtt_us", {{"host", "gk"}});
    workload::NetMonGenerator gk_gen(91);
    for (int tick = 0; tick < 4; ++tick) {
      ASSERT_TRUE(gk_engine
                      .RecordBatch(gk_key,
                                   workload::Materialize(&gk_gen, kPerTick))
                      .ok());
      gk_engine.Tick();
    }
    ASSERT_TRUE(aggregator.IngestFrame(FullFrame(gk_engine, gk_source)).ok());
    ASSERT_TRUE(
        aggregator.IngestFrame(AgentFrame("m", BackendKind::kQlove, 92, 4))
            .ok());

    auto result = aggregator.Query(
        QuerySpec::ForSelector(TagSelector{"rtt_us", {}})
            .With(QueryRequest::Quantile(0.5))
            .With(QueryRequest::Count()));
    ASSERT_TRUE(result.ok())
        << gk_source << ": " << result.status().ToString();
    EXPECT_TRUE(result.ValueOrDie().mixed_backends);
    EXPECT_EQ(result.ValueOrDie().window_count, 2 * 4 * kPerTick);
    EXPECT_TRUE(result.ValueOrDie().outcomes[0].status.ok());
  }
}

TEST(AggregatorFleetTest, RepeatedMetricKeyInOneSnapshotIsRejected) {
  // A frame repeating a key would double-count its population in every
  // query that matches it; IngestFrame enforces the wire contract (metrics
  // in strictly ascending canonical key order) instead.
  TelemetryEngine engine(MakeOptions(BackendKind::kExact));
  const MetricKey key("rtt_us");
  ASSERT_TRUE(
      engine.RecordBatch(key, std::vector<double>(kPerTick, 1.0)).ok());
  engine.Tick();
  WireSnapshot snapshot = FullSnapshot(engine, "h0");
  ASSERT_EQ(snapshot.metrics.size(), 1u);
  snapshot.metrics.push_back(snapshot.metrics[0]);  // duplicate key
  AggregatorEngine aggregator;
  EXPECT_EQ(
      aggregator.IngestFrame(EncodeSnapshotV2(snapshot)).status().code(),
      Status::Code::kInvalidArgument);
}

TEST(AggregatorFleetTest, NegativeEpochFailsDecode) {
  TelemetryEngine engine(MakeOptions(BackendKind::kExact));
  const MetricKey key("rtt_us");
  ASSERT_TRUE(
      engine.RecordBatch(key, std::vector<double>(kPerTick, 1.0)).ok());
  engine.Tick();
  WireSnapshot snapshot = FullSnapshot(engine, "h0");
  snapshot.epoch = -1;  // hostile: would overflow staleness arithmetic
  EXPECT_FALSE(DecodeFrame(EncodeSnapshotV2(snapshot)).ok());
}

TEST(AggregatorFleetTest, CorruptSelfDescriptionIsRejectedAtIngest) {
  TelemetryEngine engine(MakeOptions(BackendKind::kGk));
  const MetricKey key("rtt_us");
  workload::NetMonGenerator gen(5);
  for (int tick = 0; tick < 4; ++tick) {
    ASSERT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, kPerTick)).ok());
    engine.Tick();
  }
  WireSnapshot snapshot = FullSnapshot(engine, "h0");
  ASSERT_FALSE(snapshot.metrics.empty());
  snapshot.metrics[0].options.shard_window.period = 0;  // cannot serve
  AggregatorEngine aggregator;
  EXPECT_EQ(
      aggregator.IngestFrame(EncodeSnapshotV2(snapshot)).status().code(),
      Status::Code::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Delta-sync protocol: lossy delta streams converge to full-frame replay
// ---------------------------------------------------------------------------

/// Runs the delta-sync protocol over \p slice against two aggregators — a
/// lossy one fed Export frames through seeded faults (drops, agent
/// restarts, NAK-driven resyncs) and a reference one fed a full frame
/// every round — and demands the held states end bit-identical.
/// Deterministic in (slice, seed), so it shrinks by halving.
std::string RunDeltaSyncTrial(BackendKind kind, uint64_t seed,
                              const std::vector<double>& slice) {
  Rng faults(seed * 0x9E3779B97F4A7C15ull + 1);
  const MetricKey key_a("prop_a");
  const MetricKey key_b("prop_b", {{"host", "h1"}});
  const std::string source = "agent-0";
  auto engine = std::make_unique<TelemetryEngine>(MakeOptions(kind));
  AggregatorEngine lossy;
  AggregatorEngine reference;
  ExportCursor cursor;
  int64_t epoch_since_restart = 0;

  size_t offset = 0;
  while (offset < slice.size()) {
    const size_t n =
        std::min(static_cast<size_t>(kPerTick), slice.size() - offset);
    const size_t half = n / 2;
    if (!engine->RecordBatch(key_a, slice.data() + offset, half).ok() ||
        !engine->RecordBatch(key_b, slice.data() + offset + half, n - half)
             .ok()) {
      return "record failed";
    }
    engine->Tick();
    offset += n;
    ++epoch_since_restart;

    // The reference aggregator replays every round as a full frame: it is
    // the ground truth the lossy delta stream must reconstruct. A
    // FailedPrecondition is the reorder guard doing its declared job on a
    // post-restart epoch still inside the staleness window — the frame is
    // effectively dropped, and later epochs climb past the window.
    auto ref = reference.IngestFrame(FullFrame(*engine, source));
    if (!ref.ok() &&
        ref.status().code() != Status::Code::kFailedPrecondition) {
      return "reference ingest failed: " + ref.status().ToString();
    }

    std::vector<uint8_t> frame;
    const Status exported = engine->Export(source, &cursor, &frame);
    if (!exported.ok()) return "export failed: " + exported.ToString();

    const uint64_t fault = faults.Next64() % 4;
    if (fault == 1) continue;  // frame dropped in transit, cursor advanced
    if (fault == 3 && epoch_since_restart > 3) {
      // Agent restart: engine state and cursor are gone; the frame never
      // leaves the host.
      engine = std::make_unique<TelemetryEngine>(MakeOptions(kind));
      cursor = ExportCursor();
      epoch_since_restart = 0;
      continue;
    }
    auto ack = lossy.IngestFrame(frame);
    if (!ack.ok()) {
      if (ack.status().code() == Status::Code::kFailedPrecondition) {
        // Reorder guard: a post-restart full resync whose epoch has not
        // yet cleared the held window. The agent just keeps going.
        continue;
      }
      return "lossy ingest failed: " + ack.status().ToString();
    }
    if (ack.ValueOrDie().resync_required) cursor.RequestResync();
  }

  // Settlement: with delivery restored, both aggregators must land on the
  // agent's current state. The agent keeps ticking (as an idle agent
  // does), so post-restart epochs clear the reorder window, and a NAK
  // costs exactly one full-frame round-trip. Both must accept within the
  // same attempt, since each idle tick changes the exported window.
  bool converged = false;
  for (int attempt = 0; attempt < 10 && !converged; ++attempt) {
    if (attempt > 0) engine->Tick();
    bool reference_applied = false;
    auto ref = reference.IngestFrame(FullFrame(*engine, source));
    if (ref.ok()) {
      reference_applied = ref.ValueOrDie().applied;
    } else if (ref.status().code() != Status::Code::kFailedPrecondition) {
      return "settlement reference ingest failed: " + ref.status().ToString();
    }

    std::vector<uint8_t> frame;
    const Status exported = engine->Export(source, &cursor, &frame);
    if (!exported.ok()) return "settlement export failed: " + exported.ToString();
    auto ack = lossy.IngestFrame(frame);
    bool lossy_applied = false;
    if (ack.ok()) {
      lossy_applied = ack.ValueOrDie().applied;
      if (ack.ValueOrDie().resync_required) cursor.RequestResync();
    } else if (ack.status().code() != Status::Code::kFailedPrecondition) {
      return "settlement ingest failed: " + ack.status().ToString();
    }
    converged = reference_applied && lossy_applied;
  }
  if (!converged) return "settlement did not converge";

  auto held_lossy = lossy.SourceSnapshot(source);
  auto held_reference = reference.SourceSnapshot(source);
  if (!held_lossy.ok()) return "lossy aggregator holds no state";
  if (!held_reference.ok()) return "reference aggregator holds no state";
  const std::vector<uint8_t> bytes_lossy =
      EncodeSnapshotV2(held_lossy.ValueOrDie());
  const std::vector<uint8_t> bytes_reference =
      EncodeSnapshotV2(held_reference.ValueOrDie());
  if (bytes_lossy != bytes_reference) {
    return "delta-reconstructed state diverged from full-frame replay (" +
           std::to_string(bytes_lossy.size()) + " vs " +
           std::to_string(bytes_reference.size()) + " encoded bytes)";
  }
  return "";
}

TEST(DeltaSyncPropertyTest, LossyDeltaStreamConvergesToFullReplay) {
  // qlove exercises the sub-window patch path; gk rides kFull metric mode
  // inside delta frames. Both must converge bit-identically.
  for (BackendKind kind : {BackendKind::kQlove, BackendKind::kGk}) {
    for (int trial = 0; trial < 2 * kTrials; ++trial) {
      const uint64_t seed = 9100 + 17 * static_cast<uint64_t>(trial) +
                            (kind == BackendKind::kQlove ? 0 : 1000);
      const std::vector<double> data = MakeStream(seed, 12 * kPerTick);
      auto predicate =
          [kind, seed](const std::vector<double>& slice) -> std::string {
        return RunDeltaSyncTrial(kind, seed, slice);
      };
      ShrinkByHalving(data, seed, predicate);
    }
  }
}

TEST(DeltaSyncPropertyTest, SteadyStateDeltasStayWellUnderFullFrames) {
  // The byte win the protocol exists for: once the receiver holds the
  // window, each round ships only the new sub-windows. The bench pins the
  // absolute numbers; this guards the shape against regression.
  TelemetryEngine engine(MakeOptions(BackendKind::kQlove));
  AggregatorEngine aggregator;
  ExportCursor cursor;
  const MetricKey key("rtt_us");
  workload::NetMonGenerator gen(77);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, kPerTick)).ok());
    engine.Tick();
    std::vector<uint8_t> frame;
    ASSERT_TRUE(engine.Export("agent-0", &cursor, &frame).ok());
    auto ack = aggregator.IngestFrame(frame);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_TRUE(ack.ValueOrDie().applied);
    if (round >= 4) {
      // Steady state: the window is at capacity, every round evicts and
      // emits the same number of sub-windows — the delta ships the new
      // ones where a full frame re-ships the whole live window.
      const size_t full_bytes = FullFrame(engine, "agent-0").size();
      EXPECT_LT(2 * frame.size(), full_bytes)
          << "steady-state delta frame is not well under the full frame "
          << "(round " << round << ")";
    }
  }
  const AggregatorEngine::FleetHealthSnapshot health =
      aggregator.FleetHealth();
  EXPECT_EQ(health.resyncs_requested, 0);
  EXPECT_EQ(health.delta_ingests, 9);
}

// Regression: the cursor's tracking map must follow the live metric set.
// Pre-fix, an evicted metric left two defects — the cursor kept its entry
// forever (one map node per key ever exported, unbounded under churn) and
// the next frame went out as a delta that could never tell the receiver
// to retire the key. The fix prunes the map against each export and
// forces a full frame whenever a tracked key vanishes, so the receiver's
// held state (a wholesale replacement) retires it too.
TEST(DeltaSyncPropertyTest, EvictedMetricForcesFullFrameAndPrunesCursor) {
  EngineOptions options = MakeOptions(BackendKind::kQlove);
  options.idle_eviction_windows = 2;
  TelemetryEngine engine(options);
  AggregatorEngine aggregator;
  ExportCursor cursor;
  const std::string source = "agent-0";
  const MetricKey keep("rtt_us", {{"state", "keep"}});
  const MetricKey churn("rtt_us", {{"state", "churn"}});
  workload::NetMonGenerator gen(91);

  auto ship = [&]() -> bool {
    std::vector<uint8_t> frame;
    EXPECT_TRUE(engine.Export(source, &cursor, &frame).ok());
    auto ack = aggregator.IngestFrame(frame);
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_TRUE(ack.ValueOrDie().applied);
    return !ack.ValueOrDie().resync_required;
  };

  // Round 1: both metrics active; the opening full frame tracks both.
  ASSERT_TRUE(
      engine.RecordBatch(keep, workload::Materialize(&gen, kPerTick)).ok());
  ASSERT_TRUE(
      engine.RecordBatch(churn, workload::Materialize(&gen, kPerTick)).ok());
  engine.Tick();
  ASSERT_TRUE(ship());
  EXPECT_EQ(cursor.tracked_metrics(), 2u);
  {
    auto held = aggregator.SourceSnapshot(source);
    ASSERT_TRUE(held.ok());
    EXPECT_EQ(held.ValueOrDie().metrics.size(), 2u);
  }

  // Rounds 2..4: only `keep` stays active; `churn` crosses the idle
  // horizon and is evicted by the engine.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        engine.RecordBatch(keep, workload::Materialize(&gen, kPerTick)).ok());
    engine.Tick();
    ASSERT_TRUE(ship());
  }
  EXPECT_EQ(engine.metric_count(), 1u);

  // The cursor pruned the evicted key and the receiver retired it.
  EXPECT_EQ(cursor.tracked_metrics(), 1u);
  auto held = aggregator.SourceSnapshot(source);
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held.ValueOrDie().metrics.size(), 1u);
  EXPECT_EQ(held.ValueOrDie().metrics[0].key, keep);
  const AggregatorEngine::FleetHealthSnapshot health =
      aggregator.FleetHealth();
  EXPECT_EQ(health.metrics_retired, 1);
  EXPECT_GT(health.interned_strings, 0u);

  // Steady state after the churn settles: deltas flow again.
  ASSERT_TRUE(
      engine.RecordBatch(keep, workload::Materialize(&gen, kPerTick)).ok());
  engine.Tick();
  ASSERT_TRUE(ship());
  EXPECT_EQ(cursor.tracked_metrics(), 1u);
  EXPECT_GT(aggregator.FleetHealth().delta_ingests, 0);
}

// Regression: sub-window epochs count a metric's own boundaries, not the
// engine's Tick epoch. The cursor used to mark a metric whose window had
// emptied with the export epoch, so a metric registered after the
// engine's first Tick resumed with sub-windows numbered below that mark,
// and they were never shipped: the receiver held the refreshed count over
// no sub-windows at all.
TEST(DeltaSyncPropertyTest, LateMetricResumingAfterAnEmptyWindowConverges) {
  TelemetryEngine engine(MakeOptions(BackendKind::kQlove));
  AggregatorEngine aggregator;
  ExportCursor cursor;
  const std::string source = "agent-0";
  const MetricKey early("rtt_us", {{"state", "early"}});
  const MetricKey late("rtt_us", {{"state", "late"}});
  workload::NetMonGenerator gen(93);
  auto round = [&](bool feed_late, int n) {
    ASSERT_TRUE(
        engine.RecordBatch(early, workload::Materialize(&gen, kPerTick)).ok());
    if (feed_late) {
      ASSERT_TRUE(
          engine.RecordBatch(late, workload::Materialize(&gen, kPerTick)).ok());
    }
    engine.Tick();
    std::vector<uint8_t> frame;
    ASSERT_TRUE(engine.Export(source, &cursor, &frame).ok());
    auto ack = aggregator.IngestFrame(frame);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_TRUE(ack.ValueOrDie().applied);
    auto held = aggregator.SourceSnapshot(source);
    ASSERT_TRUE(held.ok());
    EXPECT_EQ(EncodeSnapshotV2(held.ValueOrDie()), FullFrame(engine, source))
        << "delta stream diverged from the full frame in round " << n;
  };
  int n = 0;
  for (int i = 0; i < 6; ++i) round(false, n++);
  round(true, n++);  // `late` registers at engine epoch 7: sub-window 1
  // Idle past the window (four sub-windows): `late` ships empty.
  for (int i = 0; i < 6; ++i) round(false, n++);
  for (int i = 0; i < 3; ++i) round(true, n++);
  EXPECT_EQ(aggregator.FleetHealth().resyncs_requested, 0);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
