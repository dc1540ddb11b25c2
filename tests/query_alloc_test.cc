// Allocation accounting for the read hot path. The query window cache
// (ResolvedWindow: one copy of the export window per window update) and
// the precomputed WindowView evaluation state exist so that serving
// dashboards does not churn the allocator; this suite pins those
// properties down by counting global operator new calls:
//
//  - WindowView::Evaluate on a cached window performs ZERO allocations
//    (quantile on- and off-grid, rank/CDF, count — both the qlove grid
//    path and the entry-backed path);
//  - whole TelemetryEngine::Query calls settle to a small, CONSTANT
//    per-query allocation count (the QueryResult's own vectors), i.e. the
//    evaluator itself contributes nothing once cached;
//  - steady-state Tick -> query cycles settle to a constant allocation
//    count too (each Tick copies one window of a stable shape);
//  - agent and aggregator Exports write frames straight from the held
//    windows, so their allocations do not grow with window depth.
//
// The counter lives in a replaced global operator new that forwards to
// malloc, so it composes with ASan/LSan interceptors (the ASan CI job runs
// this suite).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "export_util.h"
#include "workload/generators.h"

namespace {

std::atomic<int64_t> g_news{0};

}  // namespace

// Counting forwarding allocator for the WHOLE test binary (the count is
// only read inside this suite). Deliberately minimal: count, then defer to
// malloc, so sanitizer runtimes still see every allocation.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) -
                                         1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the sanitizer runtime, their blocks would come back through the
// free-based deletes below as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qlove {
namespace engine {
namespace {

int64_t CountNews(const std::function<void()>& body) {
  const int64_t before = g_news.load(std::memory_order_relaxed);
  body();
  return g_news.load(std::memory_order_relaxed) - before;
}

void FillEngine(TelemetryEngine* engine, const MetricKey& key,
                int ticks = 6) {
  workload::NetMonGenerator gen(7);
  const std::vector<double> batch = workload::Materialize(&gen, 4096);
  for (int t = 0; t < ticks; ++t) {
    ASSERT_TRUE(engine->RecordBatch(key, batch).ok());
    engine->Tick();
  }
}

class QueryAllocTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(QueryAllocTest, CachedWindowEvaluateIsAllocationFree) {
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = WindowSpec(8192, 2048);
  options.default_backend.kind = GetParam();
  options.default_backend.epsilon = 0.005;
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");
  ASSERT_TRUE(engine.RegisterMetric(key).ok());
  FillEngine(&engine, key);

  // Resolve the cache once; Evaluate afterwards must not touch the heap.
  auto warm = engine.Query(QuerySpec::ForKey(key)
                               .With(QueryRequest::Quantile(0.9)));
  ASSERT_TRUE(warm.ok());

  // White-box: grab the cached view exactly as Query does.
  // (Reaching through the public engine surface keeps the cache warm.)
  const QueryRequest requests[] = {
      QueryRequest::Quantile(0.9),    // on-grid
      QueryRequest::Quantile(0.73),   // off-grid, interpolation only
      QueryRequest::Rank(500.0),      // CDF walk over precomputed grids
      QueryRequest::Count(),
  };
  for (const QueryRequest& request : requests) {
    auto spec = QuerySpec::ForKey(key);
    spec.requests.push_back(request);
    auto first = engine.Query(spec);
    ASSERT_TRUE(first.ok());
  }

  // Now the real assertion at the evaluator seam: a cached WindowView
  // evaluates with zero allocations.
  auto resolved_probe = engine.Query(
      QuerySpec::ForKey(key).With(QueryRequest::Count()));
  ASSERT_TRUE(resolved_probe.ok());
  // Build an equivalent view directly over exported state to probe
  // Evaluate in isolation (summaries + options outlive the view).
  WireSnapshot exported = test_util::FullSnapshot(engine, "alloc-probe");
  ASSERT_EQ(exported.metrics.size(), 1u);
  const MetricOptions& metric_options = exported.metrics[0].options;
  const WindowView view(exported.metrics[0].shards, metric_options);
  QueryOutcome sink;
  for (const QueryRequest& request : requests) {
    const int64_t news = CountNews([&] { sink = view.Evaluate(request); });
    EXPECT_EQ(news, 0) << "request kind "
                       << QueryRequestKindName(request.kind)
                       << " allocated on the cached path";
    ASSERT_TRUE(sink.status.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, QueryAllocTest,
                         ::testing::Values(BackendKind::kQlove,
                                           BackendKind::kExact),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(QueryAllocTest2, WholeQueryCallSettlesToConstantAllocations) {
  EngineOptions options;
  options.num_shards = 8;
  options.shard_window = WindowSpec(8192, 2048);
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");
  ASSERT_TRUE(engine.RegisterMetric(key).ok());
  FillEngine(&engine, key);

  const QuerySpec spec = QuerySpec::ForKey(key)
                             .With(QueryRequest::Quantile(0.97))
                             .With(QueryRequest::Rank(500.0));
  // Warm: first query builds the epoch's cache; a few more settle any
  // lazy library state.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(engine.Query(spec).ok());

  auto run_batch = [&] {
    return CountNews([&] {
      for (int i = 0; i < 50; ++i) {
        auto result = engine.Query(spec);
        ASSERT_TRUE(result.ok());
      }
    });
  };
  const int64_t first = run_batch();
  const int64_t second = run_batch();
  EXPECT_EQ(first, second) << "per-query allocations are not steady-state";
  // The remaining per-query cost is the QueryResult's own vectors (a
  // handful of small allocations), not per-shard or per-summary work: 8
  // shards must not mean 8x the allocations.
  EXPECT_LE(second, 50 * 16) << "cached-window Query allocates too much";
}

TEST(QueryAllocTest2, IntrospectionHotPathCountersAllocateNothing) {
  // The self-metrics hooks ride the ingest hot path (OnFlush at every
  // buffer flush, OnDrain/RecordStage at every ring drain): once the TLS
  // buffer, the shard rings, and the preallocated stage-sample buffers
  // reach steady state, a full record -> flush -> drain cycle must not
  // touch the heap at all. (With introspection switched off the same
  // holds trivially; this test pins the enabled layer to the same bar.)
  EngineOptions options;
  options.num_shards = 4;
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");
  ASSERT_TRUE(engine.RegisterMetric(key).ok());

  const size_t burst = 2 * options.thread_buffer_capacity;
  auto record_burst = [&] {
    for (size_t i = 0; i < burst; ++i) {
      ASSERT_TRUE(engine.Record(key, static_cast<double>(i % 997)).ok());
    }
    engine.Flush();
  };
  // Warm: TLS buffer allocated, rings sized, stage buffers preallocated
  // at construction, internal `__qlove/` metrics registered by the Ticks.
  for (int round = 0; round < 6; ++round) {
    record_burst();
    engine.Tick();
  }

  const int64_t news = CountNews(record_burst);
  EXPECT_EQ(news, 0) << "instrumented record/flush/drain path allocated";
}

TEST(QueryAllocTest2, RegistryLookupIsAllocationFree) {
  // The Record-path registry lookup (MetricRegistry::Find behind
  // TotalRecorded) is lock-free AND allocation-free: it probes an atomic
  // open-addressing table and locks a weak_ptr whose control block
  // already exists. With a pre-built key — ids interned at construction —
  // a lookup burst must not touch the heap at all. (The lock-free claim
  // is exercised by the TSan CardinalityConcurrencyTest; this pins the
  // allocation half.)
  EngineOptions options;
  options.num_shards = 1;
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us", {{"dc", "eu-1"}, {"service", "search"}});
  const MetricKey missing("rtt_us", {{"dc", "eu-1"}, {"service", "nope"}});
  ASSERT_TRUE(engine.RegisterMetric(key).ok());
  for (int i = 0; i < 4; ++i) (void)engine.TotalRecorded(key);  // warm

  const int64_t news = CountNews([&] {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(engine.TotalRecorded(key), 0);
      ASSERT_EQ(engine.TotalRecorded(missing), 0);  // miss path too
    }
  });
  EXPECT_EQ(news, 0) << "registry lookup allocated";
}

TEST(QueryAllocTest2, TickRebuildRecyclesSummaryBuffers) {
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = WindowSpec(8192, 2048);
  // This test compares exact allocation counts across Tick rounds. The
  // self-metrics sketches ingest timing samples whose *values* vary run
  // to run, so their internal node allocations are not round-stable —
  // measure the user path alone (the instrumented hot path has its own
  // zero-allocation test above).
  options.introspection = false;
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");
  ASSERT_TRUE(engine.RegisterMetric(key).ok());
  workload::NetMonGenerator gen(9);
  const std::vector<double> batch = workload::Materialize(&gen, 4096);
  const QuerySpec spec =
      QuerySpec::ForKey(key).With(QueryRequest::Quantile(0.99));

  auto cycle = [&] {
    ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
    engine.Tick();
    ASSERT_TRUE(engine.Query(spec).ok());
  };
  // Saturate the window (4 sub-windows) and let every buffer reach its
  // steady-state shape.
  for (int i = 0; i < 12; ++i) cycle();

  const int64_t first = CountNews([&] { for (int i = 0; i < 8; ++i) cycle(); });
  const int64_t second = CountNews([&] { for (int i = 0; i < 8; ++i) cycle(); });
  // Identical work, identical shapes: the per-Tick window copy and its
  // evaluator must hold the allocation count flat across rounds (no
  // per-Tick growth). A few allocations of slack absorb deque block
  // boundaries drifting across the rounds.
  EXPECT_LE(std::abs(first - second), 8)
      << "first=" << first << " second=" << second;
}

/// Allocations of steady-state exports — the agent's and its host
/// aggregator's re-export, both deltas through warm cursors — over
/// \p ticks Ticks, with every metric's window \p depth sub-windows deep.
struct ExportAllocations {
  int64_t agent = 0;
  int64_t aggregator = 0;
};

ExportAllocations CountExportAllocations(int64_t depth, int ticks) {
  constexpr int64_t kPeriod = 1024;
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = WindowSpec(depth * kPeriod, kPeriod);
  options.introspection = false;
  TelemetryEngine engine(options);
  AggregatorOptions host_options;
  host_options.introspection = false;
  AggregatorEngine host(host_options);
  std::vector<MetricKey> keys;
  for (int k = 0; k < 8; ++k) {
    keys.push_back(MetricKey("rtt_us", {{"host", std::to_string(k)}}));
  }
  workload::NetMonGenerator gen(10);
  const std::vector<double> batch =
      workload::Materialize(&gen, options.num_shards * kPeriod);
  ExportCursor agent_cursor;
  ExportCursor host_cursor;
  std::vector<uint8_t> agent_frame;
  std::vector<uint8_t> host_frame;
  ExportAllocations counted;
  // Fill every window to its depth (and a little past it, so sub-windows
  // expire too), then count.
  for (int t = 0; t < depth + 4 + ticks; ++t) {
    for (const MetricKey& key : keys) {
      EXPECT_TRUE(engine.RecordBatch(key, batch).ok());
    }
    engine.Tick();
    const bool count = t >= depth + 4;
    const int64_t agent = CountNews([&] {
      EXPECT_TRUE(engine.Export("agent", &agent_cursor, &agent_frame).ok());
    });
    auto ack = host.IngestFrame(agent_frame);
    EXPECT_TRUE(ack.ok() && ack.ValueOrDie().applied);
    const int64_t aggregator = CountNews([&] {
      EXPECT_TRUE(host.Export("host", &host_cursor, &host_frame).ok());
    });
    if (count) {
      counted.agent += agent;
      counted.aggregator += aggregator;
    }
  }
  for (const WireMetricSummary& metric :
       test_util::FullSnapshot(engine, "agent").metrics) {
    EXPECT_EQ(static_cast<int64_t>(metric.shards.at(0).subwindows.size()),
              depth);
  }
  return counted;
}

TEST(QueryAllocTest2, ExportAllocationsDoNotGrowWithWindowDepth) {
  // Exports write each frame straight from the windows the exporters
  // hold — the agent's export windows, the aggregator's held summaries —
  // so their allocations follow the metric count and the sub-windows a
  // delta ships, never how many sub-windows each window holds.
  constexpr int kTicks = 6;
  const ExportAllocations shallow = CountExportAllocations(4, kTicks);
  const ExportAllocations deep = CountExportAllocations(16, kTicks);
  EXPECT_EQ(deep.agent, shallow.agent)
      << "agent Export allocations grew with window depth";
  EXPECT_EQ(deep.aggregator, shallow.aggregator)
      << "aggregator Export allocations grew with window depth";
}

}  // namespace
}  // namespace engine
}  // namespace qlove
