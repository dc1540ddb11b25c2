// Ring-buffered shard ingest must be OBSERVABLY IDENTICAL to the
// pre-refactor mutex path: same values, same order per shard, same backend
// state. The oracle here is a bare ShardBackend driven exactly the way the
// old Shard::AddBatchStrided drove it (raw values, per-stripe AddStrided
// under a lock); the shard under test routes the same stripes through
// batch quantization + the MPSC ring + dense drains. Summaries must match
// structurally (BackendSummary::operator==) and their wire encodings byte
// for byte — the same bar the distributed tier's golden fixtures hold.
//
// The multi-writer stress half exercises what a single-threaded oracle
// cannot: concurrent publishes racing Tick/Snapshot drains. There the
// invariant is losslessness (the exact backend's pooled window is a
// multiset equal to the union of everything the writers flushed) plus
// torn-state freedom under every shard/ring-size combination.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/backend.h"
#include "engine/engine.h"
#include "engine/shard.h"
#include "engine/wire.h"
#include "export_util.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

BackendOptions MakeBackend(BackendKind kind) {
  BackendOptions backend;
  backend.kind = kind;
  backend.epsilon = 0.005;
  return backend;
}

std::vector<double> MakeValues(size_t n, uint64_t seed) {
  workload::NetMonGenerator gen(seed);
  std::vector<double> values = workload::Materialize(&gen, n);
  // Sprinkle corrupt telemetry: the acceptance filter must behave
  // identically on both paths.
  for (size_t i = 7; i < values.size(); i += 97) {
    values[i] = std::numeric_limits<double>::quiet_NaN();
  }
  for (size_t i = 41; i < values.size(); i += 131) {
    values[i] = std::numeric_limits<double>::infinity();
  }
  // Finite on arrival but quantizes past the double range to +Inf: both
  // ingest paths must drop it (QloveOperator::TryAdd's post-quantization
  // acceptance check).
  for (size_t i = 83; i < values.size(); i += 211) {
    values[i] = std::numeric_limits<double>::max();
  }
  return values;
}

std::vector<uint8_t> EncodeOne(const BackendSummary& summary,
                               const MetricOptions& options) {
  WireSnapshot snapshot;
  snapshot.source = "equivalence";
  snapshot.epoch = 1;
  WireMetricSummary metric;
  metric.key = MetricKey("rtt_us");
  metric.options = options;
  metric.shards.push_back(summary);
  snapshot.metrics.push_back(std::move(metric));
  return EncodeSnapshotV2(snapshot);
}

class RingIngestEquivalenceTest
    : public ::testing::TestWithParam<BackendKind> {};

TEST_P(RingIngestEquivalenceTest, ByteIdenticalToDirectBackendIngest) {
  const BackendKind kind = GetParam();
  const WindowSpec spec(2048, 256);
  const std::vector<double> phis = {0.5, 0.9, 0.99, 0.999};
  MetricOptions options;
  options.shard_window = spec;
  options.phis = phis;
  options.backend = MakeBackend(kind);

  // Oracle: the pre-ring ingest path — raw strided adds straight into a
  // backend, exactly what Shard::AddBatchStrided did under its mutex.
  auto oracle_built = CreateShardBackend(options.backend, spec, phis);
  ASSERT_TRUE(oracle_built.ok()) << oracle_built.status().ToString();
  std::unique_ptr<ShardBackend> oracle = oracle_built.TakeValue();

  // Under test: the ring-fed shard, deliberately with a tiny ring so the
  // full-ring drain-and-retry path runs many times inside one batch.
  Shard shard;
  ASSERT_TRUE(shard.Initialize(options.backend, spec, phis,
                               /*ring_capacity=*/64)
                  .ok());

  const std::vector<double> values = MakeValues(10000, 11 + uint64_t(kind));
  constexpr size_t kStride = 4;  // exercise the strided (dealt) publish
  for (size_t start = 0; start < values.size(); start += 1000) {
    const size_t n = std::min<size_t>(1000, values.size() - start);
    for (size_t s = 0; s < kStride; ++s) {
      oracle->AddStrided(values.data() + start, n, s, kStride);
      shard.AddBatchStrided(values.data() + start, n, s, kStride);
    }
    if (start % 2000 == 0) {
      oracle->Tick();
      shard.CloseSubWindow();
    }
    // Mid-stream snapshots must agree too (they force drains).
    if (start % 3000 == 0) {
      BackendSummary mid_oracle;
      oracle->SummaryInto(&mid_oracle);
      BackendSummary mid_ring;
      shard.SnapshotInto(&mid_ring);
      EXPECT_EQ(mid_ring, mid_oracle);
    }
  }
  oracle->Tick();
  shard.CloseSubWindow();

  const BackendSummary oracle_summary = oracle->Summary();
  BackendSummary ring_summary;
  shard.SnapshotInto(&ring_summary);
  EXPECT_EQ(ring_summary, oracle_summary);
  EXPECT_EQ(shard.InflightCount(), oracle->InflightCount());

  // Byte-for-byte on the wire: what an agent would ship is unchanged by
  // the ingest rewrite.
  EXPECT_EQ(EncodeOne(ring_summary, options),
            EncodeOne(oracle_summary, options));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RingIngestEquivalenceTest,
                         ::testing::Values(BackendKind::kQlove,
                                           BackendKind::kGk,
                                           BackendKind::kCmqs,
                                           BackendKind::kExact),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// Multi-writer stress: concurrent Record/RecordBatch racing a Tick driver,
// over the exact backend so the final pooled window is checkable as a
// multiset against everything the writers flushed — losslessness, not just
// absence of crashes. Tiny rings force constant full-ring contention;
// several shard counts cover the single-consumer drain racing many
// claimers.
TEST(RingIngestStressTest, ConcurrentWritersAndTicksLoseNothing) {
  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 20000;
  for (int num_shards : {1, 3, 8}) {
    EngineOptions options;
    options.num_shards = num_shards;
    // Window deep in epochs (65536 sub-windows) so the capped ticker below
    // can never age live data out of the window mid-run.
    options.shard_window = WindowSpec(1 << 26, 1 << 10);
    options.default_backend.kind = BackendKind::kExact;
    options.thread_buffer_capacity = 64;
    options.shard_ring_capacity = 128;  // tiny: constant high-water drains
    TelemetryEngine engine(options);
    const MetricKey key("stress");

    std::map<double, int64_t> expected;
    std::vector<std::vector<double>> per_writer;
    for (int w = 0; w < kWriters; ++w) {
      workload::NetMonGenerator gen(100 + static_cast<uint64_t>(w));
      per_writer.push_back(workload::Materialize(&gen, kPerWriter));
      for (double v : per_writer.back()) ++expected[v];
    }

    std::atomic<bool> done{false};
    std::thread ticker([&] {
      // Hammer the Tick/drain path while writers publish — capped well
      // under the window's 65536 epochs so no live value can expire.
      int ticks = 0;
      while (!done.load(std::memory_order_relaxed)) {
        if (ticks < 10000) {
          engine.Tick();
          ++ticks;
        }
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const std::vector<double>& mine = per_writer[static_cast<size_t>(w)];
        // Alternate the two ingest surfaces.
        for (size_t i = 0; i < mine.size();) {
          if ((i / 512) % 2 == 0) {
            const size_t n = std::min<size_t>(512, mine.size() - i);
            ASSERT_TRUE(engine.RecordBatch(key, mine.data() + i, n).ok());
            i += n;
          } else {
            ASSERT_TRUE(engine.Record(key, mine[i]).ok());
            ++i;
          }
        }
        engine.Flush();
      });
    }
    for (std::thread& w : writers) w.join();
    done.store(true, std::memory_order_relaxed);
    ticker.join();
    engine.Tick();  // final boundary: everything published becomes window

    EXPECT_EQ(engine.TotalRecorded(key), kWriters * kPerWriter)
        << num_shards << " shards";

    // The exact backend pools raw multiplicities: the merged window must
    // be the precise multiset union of every writer's stream.
    auto result = engine.Query(
        QuerySpec::ForKey(key).With(QueryRequest::Count()));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.ValueOrDie().outcomes[0].value,
              static_cast<double>(kWriters * kPerWriter));

    std::map<double, int64_t> merged;
    WireSnapshot exported = test_util::FullSnapshot(engine, "stress");
    ASSERT_EQ(exported.metrics.size(), 1u);
    for (const BackendSummary& shard : exported.metrics[0].shards) {
      for (const auto& [value, weight] : shard.entries) {
        merged[value] += weight;
      }
    }
    EXPECT_EQ(merged, expected) << num_shards << " shards";
  }
}

// The high-water mechanism must make published values reach the backend
// without any Tick: a publish that crosses half the ring volunteers a
// drain, so InflightCount alone (no boundary) reflects the backlog moving
// into the backend rather than the ring jamming.
TEST(RingIngestStressTest, HighWaterDrainsWithoutTick) {
  const WindowSpec spec(8192, 1024);
  const std::vector<double> phis = {0.5, 0.99};
  Shard shard;
  ASSERT_TRUE(shard.Initialize(MakeBackend(BackendKind::kQlove), spec, phis,
                               /*ring_capacity=*/256)
                  .ok());
  std::vector<double> batch(10000, 42.0);
  shard.PublishPreQuantizedStrided(batch.data(), batch.size(), 0, 1);
  // 10000 values through a 256-slot ring: publishes must have drained en
  // route (the ring alone cannot hold them), and none may be lost.
  EXPECT_EQ(shard.InflightCount(), 10000);
  shard.CloseSubWindow();
  EXPECT_EQ(shard.InflightCount(), 0);
  EXPECT_EQ(shard.TotalAdded(), 10000);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
