// Multi-threaded ingest throughput of the sharded TelemetryEngine, swept
// over sketch backends (qlove / gk / cmqs / exact) x {1,2,4,8} shards x
// writer-thread counts, for both the buffered Record path (per-thread
// buffers, batch quantization, shard-ring publish) and the direct
// RecordBatch path. Ring-buffered shards should scale ingest until either
// the writer count or the core count runs out; the 1-shard row is the
// serialized baseline every extra shard is measured against, and the
// backend axis shows what each sketch family's ingest path costs.
//
// Besides the human-readable table, the sweep is emitted as machine-
// readable JSON (BENCH_engine.json in the working directory) so the perf
// trajectory can accumulate across commits. The JSON always carries the
// full backend x shards x threads sweep: narrowing flags (--backend=K,
// --threads=N) mark the artifact "partial": true and the bench exits
// nonzero, so a truncated artifact can never be mistaken for a full
// trajectory (the regression this guards against: a checked-in
// BENCH_engine.json that silently held only one backend's rows).
//
// Reading the exact rows: the Exact backend's Add is a raw buffer append —
// its tree maintenance happens at Tick, so the batch path (which only
// Ticks after the clock stops) reports the append rate, not the full
// sketch cost. The buffered rows, whose ticker thread fires mid-run, carry
// the tree cost.
//
//   $ ./bench_engine_throughput [--events=N] [--seed=S] [--backend=K]
//                               [--threads=N]
//
// --backend restricts the sweep to one kind (qlove / gk / cmqs / exact)
// and --threads to one writer count; the default sweeps all four backends
// at 1 and 4 writers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_util/harness.h"
#include "common/timer.h"
#include "engine/aggregator.h"
#include "engine/backend.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/generators.h"

namespace qlove {
namespace bench {
namespace {

constexpr size_t kBatchSize = 512;

/// The full sweep axes; narrowing any of them marks the run partial.
const std::vector<int> kThreadSweep = {1, 4};
const std::vector<int> kShardSweep = {1, 2, 4, 8};

struct RunResult {
  engine::BackendKind backend = engine::BackendKind::kQlove;
  int num_shards = 0;
  int threads = 0;
  double buffered_mops = 0.0;
  double batch_mops = 0.0;
  /// Read-path rate: ad-hoc Query calls (off-grid quantile + rank/CDF per
  /// call) against the full ingested window, in thousands per second.
  double query_kqps = 0.0;
  /// Encoded full-frame size of this configuration's window state, per
  /// metric (engine/wire.h): what one agent ships on first contact or
  /// resync. Exports are shard-coalesced, so this does not scale with the
  /// shard count.
  size_t wire_bytes_per_metric = 0;
  /// Steady-state delta-sync frame size per metric: after the initial
  /// full sync, each round ships only the sub-windows the receiver has
  /// not seen (one Tick's worth here) plus refreshed scalars.
  size_t wire_bytes_per_metric_delta = 0;
  /// Distributed-tier rate: AggregatorEngine::IngestFrame (decode,
  /// validate, swap) of a 4-agent fleet's full frames plus one fleet Query
  /// per round, in thousands of agent snapshots merged per second.
  double merge_kqps = 0.0;
  /// Transport-tier rate: the same full window state shipped through the
  /// real stack — AgentClient produce + framed send over loopback TCP,
  /// server epoll read + IngestFrame + ack, client ack parse — in
  /// thousands of acked frames per second. Each round trip is one
  /// agent-tick delivery, so this bounds the per-aggregator fan-in.
  double net_frames_kqps = 0.0;
};

engine::BackendOptions MakeBackend(engine::BackendKind kind) {
  engine::BackendOptions backend;
  backend.kind = kind;
  backend.epsilon = 0.001;  // gk / cmqs: fine enough for p99.9
  return backend;
}

/// One buffered-Record run: per-thread writers through the TLS-buffer hot
/// path with a 5ms time-driven ticker, returning M op/s. Shared between
/// the sweep (RunOnce) and the introspection-overhead gate, so both
/// measure the identical path.
double RunBufferedRecord(const engine::EngineOptions& options,
                         const engine::MetricKey& key,
                         const engine::BackendOptions& backend,
                         const std::vector<std::vector<double>>& data,
                         int num_threads) {
  engine::TelemetryEngine engine(options);
  const Status registered = engine.RegisterMetric(key, backend);
  if (!registered.ok()) {
    std::fprintf(stderr, "FATAL: RegisterMetric(%s) failed: %s\n",
                 engine::BackendKindName(backend.kind),
                 registered.ToString().c_str());
    std::exit(1);
  }
  const int64_t total =
      static_cast<int64_t>(data[0].size()) * num_threads;
  Stopwatch watch;
  watch.Start();
  std::vector<std::thread> writers;
  for (int t = 0; t < num_threads; ++t) {
    writers.emplace_back([&, t] {
      const std::vector<double>& values = data[static_cast<size_t>(t)];
      for (double v : values) {
        (void)engine.Record(key, v);
      }
      engine.Flush();
    });
  }
  std::atomic<bool> done{false};
  std::thread ticker([&] {
    // Time-driven ticks (the engine's intended usage). Polling ingest
    // counters here would acquire every shard mutex per poll and distort
    // the throughput being measured.
    while (!done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      engine.Tick();
    }
  });
  for (std::thread& w : writers) w.join();
  // Stop the clock before ticker shutdown (residual 5ms sleep) and the
  // final Tick, which would skew small runs.
  const double elapsed = watch.ElapsedSeconds();
  done.store(true, std::memory_order_relaxed);
  ticker.join();
  engine.Tick();
  return MillionEventsPerSecond(static_cast<uint64_t>(total), elapsed);
}

/// The acceptance gate for the self-metrics layer: best-of-5 interleaved
/// on/off pairs of the buffered Record path (qlove, 8 shards — the most
/// instrumented configuration: per-flush counters, per-drain timers,
/// quantize timing), as percent of record_mops lost with introspection on.
/// Interleaving the pairs makes thermal / frequency drift hit both sides
/// equally; best-of filters scheduler noise.
// Times the buffered record -> flush -> drain path with ONE writer and NO
// concurrent ticker: the hook cost being gated is per-event work in the
// writer path (counter bumps amortized over each flushed buffer, stage
// timers around each drain), and the ring-full path turns the writer into
// a drain helper, so the whole instrumented cycle still executes. Any
// second thread (writers or a time-driven ticker) adds scheduler noise
// several times larger than the <2% signal on oversubscribed CI runners.
double TimeSingleWriterRecordPath(const engine::EngineOptions& options,
                                  const engine::MetricKey& key,
                                  const engine::BackendOptions& backend,
                                  const std::vector<double>& values) {
  // Layout shim: with introspection ON the engine preallocates the stage
  // sample buffers (kStageCount vectors of kStageSampleCapacity doubles)
  // BEFORE the shard rings are registered, so the rings land ~224KB
  // higher in the heap than in the OFF config. On some runs that
  // placement difference alone swings throughput by several percent
  // (page/THP lottery), which this A/B measurement would misread as hook
  // cost. Mimic the same pre-ring footprint in the OFF runs so both
  // configs' rings get identical placement.
  std::vector<std::vector<double>> layout_shim;
  if (!options.introspection) {
    layout_shim.resize(engine::kStageCount);
    for (std::vector<double>& pad : layout_shim) {
      pad.reserve(engine::Introspection::kStageSampleCapacity);
    }
  }
  engine::TelemetryEngine engine(options);
  const Status registered = engine.RegisterMetric(key, backend);
  if (!registered.ok()) {
    std::fprintf(stderr, "FATAL: RegisterMetric(%s) failed: %s\n",
                 engine::BackendKindName(backend.kind),
                 registered.ToString().c_str());
    std::exit(1);
  }
  // Warm: TLS buffer allocated, rings sized, sub-windows populated.
  for (size_t i = 0; i < values.size() / 8; ++i) {
    (void)engine.Record(key, values[i]);
  }
  engine.Flush();
  engine.Tick();
  Stopwatch watch;
  watch.Start();
  for (double v : values) {
    (void)engine.Record(key, v);
  }
  engine.Flush();
  const double elapsed = watch.ElapsedSeconds();
  engine.Tick();
  return MillionEventsPerSecond(static_cast<uint64_t>(values.size()),
                                elapsed);
}

double MeasureIntrospectionOverheadPct(
    const std::vector<std::vector<double>>& data) {
  engine::EngineOptions with_introspection;
  with_introspection.num_shards = 8;
  with_introspection.shard_window = WindowSpec(8192, 1024);
  engine::EngineOptions without = with_introspection;
  without.introspection = false;
  const engine::MetricKey key("rtt_us", {{"bench", "introspection"}});
  const engine::BackendOptions backend =
      MakeBackend(engine::BackendKind::kQlove);
  // Best-of over interleaved on/off runs: timing noise on shared runners
  // is heavy-tailed and strictly additive (runs get slower, never faster),
  // so the best run of each config approximates its noise-free cost, and
  // interleaving many short runs packs both configs into the same drift
  // window. 25 rounds holds typical repeat measurements within +/-1-2% on
  // a noisy 1-core container; the checked-in ceiling the checker gates
  // against is set above that noise floor (see bench/BENCH_baseline.json).
  double best_on = 0.0;
  double best_off = 0.0;
  for (int round = 0; round < 25; ++round) {
    best_on = std::max(best_on,
                       TimeSingleWriterRecordPath(with_introspection, key,
                                                  backend, data[0]));
    best_off = std::max(
        best_off, TimeSingleWriterRecordPath(without, key, backend, data[0]));
  }
  return best_off > 0.0 ? (best_off - best_on) / best_off * 100.0 : 0.0;
}

// The WAL-overhead cadence. Production agents tick on a wall-clock
// cadence (~1/s) while the engine ingests 10K-1M samples/s across its
// metrics, so the WAL's per-tick cost (one delta encode, one append, one
// fdatasync under every_tick) amortizes over hundreds of thousands of
// records — and the WAL cost is per ENGINE tick, not per metric. The
// bench must pin that ratio explicitly rather than derive it from
// --events: a wall-clock-compressed run with a few thousand records per
// tick would measure fdatasync latency (milliseconds on CI-grade disks)
// against microseconds of recording and report 90%+ "overhead" that no
// real deployment sees. 500K records/tick sits at the top of the
// production band; the ratio is capped below by the run's data size so a
// tiny --events smoke stays fast (its percentage is meaningless and the
// gate only sees full runs). An architectural regression — an fsync
// sneaking onto the per-record path, the delta encode going O(history) —
// still costs 10x+ the ceiling at this cadence.
constexpr int kWalTicksPerRun = 2;
constexpr size_t kWalRecordsPerTick = 500000;

/// Times the Record+Tick pipeline (million events/sec, cycling over
/// \p values) with the WAL either enabled (every_tick fsync into
/// \p wal_dir) or off (empty dir).
double TimeWalRecordTickPath(const engine::EngineOptions& options,
                             const engine::MetricKey& key,
                             const engine::BackendOptions& backend,
                             const std::vector<double>& values,
                             const std::string& wal_dir) {
  engine::TelemetryEngine engine(options);
  const Status registered = engine.RegisterMetric(key, backend);
  if (!registered.ok()) {
    std::fprintf(stderr, "FATAL: RegisterMetric(%s) failed: %s\n",
                 engine::BackendKindName(backend.kind),
                 registered.ToString().c_str());
    std::exit(1);
  }
  if (!wal_dir.empty()) {
    engine::WalOptions wal_options;
    wal_options.fsync = engine::WalFsyncPolicy::kEveryTick;
    const Status enabled = engine.EnableWal(wal_dir, wal_options);
    if (!enabled.ok()) {
      std::fprintf(stderr, "FATAL: EnableWal(%s) failed: %s\n",
                   wal_dir.c_str(), enabled.ToString().c_str());
      std::exit(1);
    }
  }
  // Warm: TLS buffer allocated, rings sized, first segment opened (the
  // WAL's segment-create + checkpoint cost is startup, not steady state).
  for (size_t i = 0; i < values.size() / 8; ++i) {
    (void)engine.Record(key, values[i]);
  }
  engine.Flush();
  engine.Tick();
  const size_t per_tick =
      std::min(kWalRecordsPerTick, values.size() * 64);
  Stopwatch watch;
  watch.Start();
  size_t cursor = 0;
  for (int tick = 0; tick < kWalTicksPerRun; ++tick) {
    for (size_t i = 0; i < per_tick; ++i) {
      (void)engine.Record(key, values[cursor]);
      if (++cursor == values.size()) cursor = 0;
    }
    engine.Flush();
    engine.Tick();
  }
  const double elapsed = watch.ElapsedSeconds();
  return MillionEventsPerSecond(
      static_cast<uint64_t>(per_tick) * kWalTicksPerRun, elapsed);
}

double MeasureWalOverheadPct(const std::vector<std::vector<double>>& data) {
  engine::EngineOptions options;
  options.num_shards = 8;
  options.shard_window = WindowSpec(8192, 1024);
  const engine::MetricKey key("rtt_us", {{"bench", "wal"}});
  const engine::BackendOptions backend =
      MakeBackend(engine::BackendKind::kQlove);
  char dir_template[] = "/tmp/qlove_bench_wal_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "FATAL: mkdtemp failed for the WAL bench\n");
    std::exit(1);
  }
  // Same best-of-interleaved differencing as the introspection gate (see
  // MeasureIntrospectionOverheadPct): additive heavy-tailed noise means
  // each config's best run approximates its noise-free cost — for the ON
  // config that includes picking the rounds whose fdatasyncs ran at disk
  // best-case, which is the right comparison for a steady-state cost. 10
  // rounds (not 25): each run is ~1M records, so the signal per round is
  // larger. The WAL directory is reused across rounds — the writer never
  // appends to a prior incarnation's segments and retention prunes them,
  // so steady state, not an ever-growing directory, is what gets timed.
  double best_on = 0.0;
  double best_off = 0.0;
  for (int round = 0; round < 10; ++round) {
    best_on = std::max(
        best_on, TimeWalRecordTickPath(options, key, backend, data[0], dir));
    best_off = std::max(
        best_off, TimeWalRecordTickPath(options, key, backend, data[0], ""));
  }
  const auto segments = engine::ListWalSegments(dir);
  if (segments.ok()) {
    for (const std::string& path : segments.ValueOrDie()) {
      std::remove(path.c_str());
    }
  }
  std::remove(dir);
  return best_off > 0.0 ? (best_off - best_on) / best_off * 100.0 : 0.0;
}

RunResult RunOnce(engine::BackendKind kind, int num_shards, int num_threads,
                  const std::vector<std::vector<double>>& data) {
  engine::EngineOptions options;
  options.num_shards = num_shards;
  options.shard_window = WindowSpec(8192, 1024);
  const engine::MetricKey key("rtt_us", {{"bench", "throughput"}});
  const engine::BackendOptions backend = MakeBackend(kind);

  const int64_t per_thread = static_cast<int64_t>(data[0].size());
  const int64_t total = per_thread * num_threads;
  RunResult result;
  result.backend = kind;
  result.num_shards = num_shards;
  result.threads = num_threads;

  // A registration failure must poison the run loudly, not emit 0.00 rows
  // into the JSON the perf trajectory accumulates.
  auto require_registered = [&](const Status& status) {
    if (status.ok()) return;
    std::fprintf(stderr, "FATAL: RegisterMetric(%s) failed: %s\n",
                 engine::BackendKindName(kind), status.ToString().c_str());
    std::exit(1);
  };

  result.buffered_mops =
      RunBufferedRecord(options, key, backend, data, num_threads);

  {  // Direct RecordBatch path.
    engine::TelemetryEngine engine(options);
    require_registered(engine.RegisterMetric(key, backend));
    Stopwatch watch;
    watch.Start();
    std::vector<std::thread> writers;
    for (int t = 0; t < num_threads; ++t) {
      writers.emplace_back([&, t] {
        const std::vector<double>& values = data[static_cast<size_t>(t)];
        for (size_t i = 0; i < values.size(); i += kBatchSize) {
          const size_t n = std::min(kBatchSize, values.size() - i);
          (void)engine.RecordBatch(key, values.data() + i, n);
        }
      });
    }
    for (std::thread& w : writers) w.join();
    const double elapsed = watch.ElapsedSeconds();
    engine.Tick();
    result.batch_mops =
        MillionEventsPerSecond(static_cast<uint64_t>(total), elapsed);

    // Read path over the ingested window: each Query carries an off-grid
    // quantile (p97: grid interpolation / entry rank walk) and a rank/CDF
    // request, the ad-hoc shapes the query layer adds over Snapshot.
    constexpr int kQueries = 500;
    const double threshold = data[0][data[0].size() / 2];
    const engine::QuerySpec spec =
        engine::QuerySpec::ForKey(key)
            .With(engine::QueryRequest::Quantile(0.97))
            .With(engine::QueryRequest::Rank(threshold));
    Stopwatch query_watch;
    query_watch.Start();
    for (int q = 0; q < kQueries; ++q) {
      auto answer = engine.Query(spec);
      if (!answer.ok()) {
        std::fprintf(stderr, "FATAL: Query(%s) failed: %s\n",
                     engine::BackendKindName(kind),
                     answer.status().ToString().c_str());
        std::exit(1);
      }
    }
    const double query_elapsed = query_watch.ElapsedSeconds();
    result.query_kqps =
        query_elapsed > 0.0 ? kQueries / query_elapsed / 1e3 : 0.0;

    // Wire + fleet-merge phase: the distributed tier's cost. Each
    // simulated agent ships the same window state as one full frame under
    // its own source name; each round ingests the 4-agent fleet's frames
    // and runs one fleet query.
    constexpr int kAgents = 4;
    constexpr int kMergeRounds = 100;
    std::vector<std::vector<uint8_t>> frames(kAgents);
    for (int a = 0; a < kAgents; ++a) {
      engine::ExportCursor cursor;  // fresh cursor: a full frame
      const Status exported_frame =
          engine.Export("agent-" + std::to_string(a), &cursor, &frames[a]);
      if (!exported_frame.ok()) {
        std::fprintf(stderr, "FATAL: export(%s) failed: %s\n",
                     engine::BackendKindName(kind),
                     exported_frame.ToString().c_str());
        std::exit(1);
      }
    }
    // A few milliseconds of work per pass, so one preemption would move a
    // single timing by several x: the phase runs kMergeRepeats passes and
    // reports the median pass.
    constexpr int kMergeRepeats = 5;
    engine::AggregatorEngine aggregator;
    std::vector<double> merge_rates;
    for (int repeat = 0; repeat < kMergeRepeats; ++repeat) {
      Stopwatch merge_watch;
      merge_watch.Start();
      for (int round = 0; round < kMergeRounds; ++round) {
        for (const std::vector<uint8_t>& frame : frames) {
          auto ingested = aggregator.IngestFrame(frame);
          if (!ingested.ok()) {
            std::fprintf(stderr, "FATAL: fleet ingest(%s) failed: %s\n",
                         engine::BackendKindName(kind),
                         ingested.status().ToString().c_str());
            std::exit(1);
          }
        }
        auto fleet = aggregator.Query(spec);
        if (!fleet.ok()) {
          std::fprintf(stderr, "FATAL: fleet query(%s) failed: %s\n",
                       engine::BackendKindName(kind),
                       fleet.status().ToString().c_str());
          std::exit(1);
        }
      }
      const double merge_elapsed = merge_watch.ElapsedSeconds();
      merge_rates.push_back(
          merge_elapsed > 0.0
              ? kMergeRounds * kAgents / merge_elapsed / 1e3
              : 0.0);
    }
    std::nth_element(merge_rates.begin(),
                     merge_rates.begin() + kMergeRepeats / 2,
                     merge_rates.end());
    result.merge_kqps = merge_rates[kMergeRepeats / 2];
    auto held = aggregator.SourceSnapshot("agent-0");
    if (!held.ok()) {
      std::fprintf(stderr, "FATAL: held state(%s) missing: %s\n",
                   engine::BackendKindName(kind),
                   held.status().ToString().c_str());
      std::exit(1);
    }
    const engine::WireSnapshot exported = held.TakeValue();
    if (!exported.metrics.empty()) {
      result.wire_bytes_per_metric =
          frames[0].size() / exported.metrics.size();
    }

    // Steady-state delta-sync size: first export through the cursor is a
    // full frame, then each round records one batch, ticks, and ships
    // only the unseen sub-windows. The last round is the steady state —
    // the window has rolled past its depth, so every round retires as
    // many sub-windows as it adds.
    if (!exported.metrics.empty()) {
      constexpr int kDeltaRounds = 8;
      engine::ExportCursor cursor;
      engine::AggregatorEngine delta_sink;
      std::vector<uint8_t> delta_frame;
      for (int round = 0; round < kDeltaRounds; ++round) {
        const size_t base = (round * kBatchSize) % data[0].size();
        const size_t n = std::min(kBatchSize, data[0].size() - base);
        (void)engine.RecordBatch(key, data[0].data() + base, n);
        engine.Tick();
        const Status sent = engine.Export("agent-0", &cursor, &delta_frame);
        if (!sent.ok()) {
          std::fprintf(stderr, "FATAL: delta export(%s) failed: %s\n",
                       engine::BackendKindName(kind),
                       sent.ToString().c_str());
          std::exit(1);
        }
        auto ack =
            delta_sink.IngestFrame(delta_frame.data(), delta_frame.size());
        if (!ack.ok()) {
          std::fprintf(stderr, "FATAL: delta ingest(%s) failed: %s\n",
                       engine::BackendKindName(kind),
                       ack.status().ToString().c_str());
          std::exit(1);
        }
        if (ack.ValueOrDie().resync_required) cursor.RequestResync();
      }
      result.wire_bytes_per_metric_delta =
          delta_frame.size() / exported.metrics.size();
    }

    // Loopback transport phase: full frames through a real AggregatorServer
    // on an ephemeral 127.0.0.1 port, delivered by the real AgentClient
    // (HELLO auth, framed send, ingest, ack). The first delivery — connect
    // plus authentication — runs outside the clock; the timed loop is the
    // steady-state delivery round trip.
    if (!exported.metrics.empty()) {
      constexpr int kNetRounds = 200;
      engine::AggregatorEngine net_sink;
      net::ServerOptions server_options;
      server_options.auth_token = "bench-token";
      net::AggregatorServer server(&net_sink, server_options);
      const Status serving = server.Start();
      if (!serving.ok()) {
        std::fprintf(stderr, "FATAL: transport bench server(%s): %s\n",
                     engine::BackendKindName(kind),
                     serving.ToString().c_str());
        std::exit(1);
      }
      net::ClientOptions client_options;
      client_options.port = server.port();
      client_options.auth_token = "bench-token";
      client_options.source = "bench-agent";
      engine::WireSnapshot net_snapshot = exported;
      net_snapshot.source = "bench-agent";
      net::AgentClient client(
          client_options,
          [net_snapshot](const std::string&, bool,
                         std::vector<uint8_t>* out) mutable {
            net_snapshot.epoch += 1;  // each frame advances, so each applies
            engine::EncodeSnapshotV2(net_snapshot, out);
            return Status::OK();
          });
      auto require_delivered = [&](const Status& status) {
        if (status.ok()) return;
        std::fprintf(stderr, "FATAL: transport bench delivery(%s): %s\n",
                     engine::BackendKindName(kind),
                     status.ToString().c_str());
        std::exit(1);
      };
      require_delivered(client.DeliverOnce());  // connect + HELLO, untimed
      Stopwatch net_watch;
      net_watch.Start();
      for (int round = 0; round < kNetRounds; ++round) {
        require_delivered(client.DeliverOnce());
      }
      const double net_elapsed = net_watch.ElapsedSeconds();
      result.net_frames_kqps =
          net_elapsed > 0.0 ? kNetRounds / net_elapsed / 1e3 : 0.0;
    }
  }
  return result;
}

/// One cardinality-sweep row: lifecycle throughput at \p keys live
/// metrics under a budgeted, eviction-enabled engine (the configuration a
/// high-cardinality fleet agent actually runs).
struct CardinalityResult {
  int64_t keys = 0;
  double register_kqps = 0.0;  ///< Cold GetOrCreate rate, K keys/s.
  double record_mops = 0.0;    ///< RecordBatch across the key space, M op/s.
  double query_kqps = 0.0;     ///< Keyed Query sampling the space, K q/s.
  size_t live_metrics = 0;     ///< Registered survivors after the run.
  int64_t evictions = 0;
  int64_t degrades = 0;
  size_t registry_bytes = 0;
  size_t interned_strings = 0;
};

/// Register -> record -> query over \p num_keys distinct metric keys with
/// the high-cardinality policy on: 256 MiB budget, 4-window idle horizon,
/// degrade past 200k same-name registrations. Periodic Ticks during every
/// phase keep the accounting and eviction machinery in the measured path
/// (that is the point: the sweep prices the lifecycle, not a registry
/// microbenchmark with maintenance switched off).
CardinalityResult RunCardinality(int64_t num_keys, uint64_t seed) {
  engine::EngineOptions options;
  options.num_shards = 1;
  options.shard_ring_capacity = 16;
  options.memory_budget_bytes = 256ull << 20;
  options.idle_eviction_windows = 4;
  options.degrade_cardinality_threshold = 200000;
  engine::TelemetryEngine engine(options);

  static const char* kDcs[] = {"us-2", "eu-1", "ap-3", "sa-4"};
  std::vector<engine::MetricKey> keys;
  keys.reserve(static_cast<size_t>(num_keys));
  for (int64_t i = 0; i < num_keys; ++i) {
    keys.push_back(engine::MetricKey(
        "fleet_rtt_us",
        {{"host", "h" + std::to_string(i)}, {"dc", kDcs[i & 3]}}));
  }

  const int64_t tick_stride = std::max<int64_t>(num_keys / 8, 1);
  CardinalityResult result;
  result.keys = num_keys;

  Stopwatch watch;
  watch.Start();
  for (int64_t i = 0; i < num_keys; ++i) {
    const Status status = engine.RegisterMetric(keys[i]);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL: cardinality register failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    if ((i + 1) % tick_stride == 0) engine.Tick();
  }
  double elapsed = watch.ElapsedSeconds();
  result.register_kqps =
      elapsed > 0.0 ? static_cast<double>(num_keys) / elapsed / 1e3 : 0.0;

  // Record: every key gets kPerKey events per round; evicted keys
  // re-register through the Record path, which is exactly what a
  // returning fleet key costs in production.
  constexpr int kRounds = 2;
  constexpr int kPerKey = 4;
  workload::NetMonGenerator gen(seed);
  const std::vector<double> batch = workload::Materialize(&gen, kPerKey);
  watch.Start();
  for (int round = 0; round < kRounds; ++round) {
    for (int64_t i = 0; i < num_keys; ++i) {
      const Status status =
          engine.RecordBatch(keys[i], batch.data(), batch.size());
      if (!status.ok()) {
        std::fprintf(stderr, "FATAL: cardinality record failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      if ((i + 1) % tick_stride == 0) engine.Tick();
    }
    engine.Tick();
  }
  elapsed = watch.ElapsedSeconds();
  const int64_t events = static_cast<int64_t>(kRounds) * kPerKey * num_keys;
  result.record_mops =
      elapsed > 0.0 ? static_cast<double>(events) / elapsed / 1e6 : 0.0;

  // Query: sample the key space; NotFound for an evicted key is a valid
  // (and priced) answer in a churning space.
  constexpr int64_t kQueries = 10000;
  const int64_t stride = std::max<int64_t>(num_keys / kQueries, 1);
  watch.Start();
  int64_t asked = 0;
  for (int64_t i = 0; i < num_keys && asked < kQueries; i += stride, ++asked) {
    auto answer = engine.Query(engine::QuerySpec::ForKey(keys[i]).With(
        engine::QueryRequest::Quantile(0.99)));
    (void)answer.ok();
  }
  elapsed = watch.ElapsedSeconds();
  result.query_kqps =
      elapsed > 0.0 ? static_cast<double>(asked) / elapsed / 1e3 : 0.0;

  const engine::EngineStats stats = engine.Stats();
  result.live_metrics = engine.metric_count();
  result.evictions = stats.evictions;
  result.degrades = stats.degrades;
  result.registry_bytes = stats.registry_bytes;
  result.interned_strings = stats.interned_strings;
  return result;
}

void WriteJson(const std::vector<RunResult>& results,
               const std::vector<CardinalityResult>& cardinality,
               int64_t events, uint64_t seed, bool partial,
               double introspection_pct, double wal_pct) {
  const char* path = "BENCH_engine.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: could not write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"engine_throughput\",\n"
               "  \"events\": %lld,\n"
               "  \"seed\": %llu,\n  \"hardware_threads\": %u,\n"
               "  \"partial\": %s,\n"
               "  \"introspection_overhead_pct\": %.2f,\n"
               "  \"wal_overhead_pct\": %.2f,\n"
               "  \"results\": [\n",
               static_cast<long long>(events),
               static_cast<unsigned long long>(seed),
               std::thread::hardware_concurrency(),
               partial ? "true" : "false", introspection_pct, wal_pct);
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(out,
                 "    {\"backend\": \"%s\", \"shards\": %d, \"threads\": %d, "
                 "\"record_mops\": %.3f, \"batch_mops\": %.3f, "
                 "\"query_kqps\": %.3f, \"wire_bytes_per_metric\": %zu, "
                 "\"wire_bytes_per_metric_delta\": %zu, "
                 "\"merge_kqps\": %.3f, \"net_frames_kqps\": %.3f}%s\n",
                 engine::BackendKindName(r.backend), r.num_shards, r.threads,
                 r.buffered_mops, r.batch_mops, r.query_kqps,
                 r.wire_bytes_per_metric, r.wire_bytes_per_metric_delta,
                 r.merge_kqps, r.net_frames_kqps,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"cardinality\": [\n");
  for (size_t i = 0; i < cardinality.size(); ++i) {
    const CardinalityResult& c = cardinality[i];
    std::fprintf(out,
                 "    {\"keys\": %lld, \"register_kqps\": %.3f, "
                 "\"record_mops\": %.3f, \"query_kqps\": %.3f, "
                 "\"live_metrics\": %zu, \"evictions\": %lld, "
                 "\"degrades\": %lld, \"registry_bytes\": %zu, "
                 "\"interned_strings\": %zu}%s\n",
                 static_cast<long long>(c.keys), c.register_kqps,
                 c.record_mops, c.query_kqps, c.live_metrics,
                 static_cast<long long>(c.evictions),
                 static_cast<long long>(c.degrades), c.registry_bytes,
                 c.interned_strings, i + 1 < cardinality.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s%s\n", path,
              partial ? " (PARTIAL sweep — exit nonzero)" : "");
}

int Main(int argc, char** argv) {
  bench_util::BenchArgs args = bench_util::BenchArgs::Parse(argc, argv);

  // Sweep every backend and thread count unless --backend=K / --threads=N
  // narrow it; narrowed runs are marked partial in the JSON and exit
  // nonzero so a truncated artifact cannot pass for a full trajectory.
  std::vector<engine::BackendKind> kinds = {
      engine::BackendKind::kQlove, engine::BackendKind::kGk,
      engine::BackendKind::kCmqs, engine::BackendKind::kExact};
  std::vector<int> thread_counts = kThreadSweep;
  bool partial = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string backend_prefix = "--backend=";
    const std::string threads_prefix = "--threads=";
    if (arg.rfind(backend_prefix, 0) == 0) {
      auto kind = engine::ParseBackendKind(arg.substr(backend_prefix.size()));
      if (!kind.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", kind.status().ToString().c_str());
        return 1;
      }
      kinds = {kind.ValueOrDie()};
      partial = true;
    } else if (arg.rfind(threads_prefix, 0) == 0) {
      const int threads = std::atoi(arg.c_str() + threads_prefix.size());
      if (threads <= 0) {
        std::fprintf(stderr, "FATAL: bad --threads value: %s\n", arg.c_str());
        return 1;
      }
      thread_counts = {threads};
      partial = partial || thread_counts != kThreadSweep;
    }
  }

  const int max_threads =
      *std::max_element(thread_counts.begin(), thread_counts.end());
  const int64_t per_thread =
      (args.events > 0 ? args.events : 1000000) / max_threads;
  PrintHeader("Engine ingest throughput",
              "new subsystem (not in paper): sharded multi-backend engine",
              per_thread * max_threads, args.seed);

  std::vector<std::vector<double>> data;
  for (int t = 0; t < max_threads; ++t) {
    workload::NetMonGenerator gen(args.seed + static_cast<uint64_t>(t));
    data.push_back(workload::Materialize(&gen, per_thread));
  }

  std::vector<RunResult> results;
  for (engine::BackendKind kind : kinds) {
    for (int threads : thread_counts) {
      std::printf("\nbackend: %s, writer threads: %d\n",
                  engine::BackendKindName(kind), threads);
      std::printf("%-8s %18s %18s %10s %14s %12s %12s %14s %12s\n",
                  "shards", "Record (M op/s)", "Batch (M op/s)", "speedup",
                  "Query (K q/s)", "Wire (B/met)", "delta (B)",
                  "Merge (K s/s)", "Net (K f/s)");
      double baseline = 0.0;
      for (int shards : kShardSweep) {
        const RunResult r = RunOnce(kind, shards, threads, data);
        if (shards == kShardSweep.front()) baseline = r.batch_mops;
        std::printf(
            "%-8d %18.2f %18.2f %9.2fx %14.1f %12zu %12zu %14.1f %12.1f\n",
            shards, r.buffered_mops, r.batch_mops,
            baseline > 0.0 ? r.batch_mops / baseline : 0.0, r.query_kqps,
            r.wire_bytes_per_metric, r.wire_bytes_per_metric_delta,
            r.merge_kqps, r.net_frames_kqps);
        results.push_back(r);
      }
    }
  }
  std::printf("\nNote: speedup is bounded by hardware threads; on a "
              "single-core host the win is contention relief only.\n");

  // Cardinality sweep: lifecycle throughput at 1k / 100k / 1M live keys
  // with the budget + idle-eviction + degrade policy enabled (floors at
  // 100k are gated by tools/check_bench_regression.py).
  std::printf("\ncardinality sweep (budget=256MiB, idle_horizon=4, "
              "degrade@200k):\n");
  std::printf("%-10s %16s %16s %14s %12s %10s %10s %14s %12s\n", "keys",
              "Register (K/s)", "Record (M op/s)", "Query (K q/s)", "live",
              "evicted", "degraded", "registry (B)", "interned");
  std::vector<CardinalityResult> cardinality;
  for (const int64_t num_keys : {int64_t{1000}, int64_t{100000},
                                 int64_t{1000000}}) {
    const CardinalityResult c = RunCardinality(num_keys, args.seed);
    std::printf("%-10lld %16.1f %16.2f %14.1f %12zu %10lld %10lld %14zu "
                "%12zu\n",
                static_cast<long long>(c.keys), c.register_kqps,
                c.record_mops, c.query_kqps, c.live_metrics,
                static_cast<long long>(c.evictions),
                static_cast<long long>(c.degrades), c.registry_bytes,
                c.interned_strings);
    cardinality.push_back(c);
  }

  // The self-metrics acceptance gate: the instrumented buffered Record
  // path must stay within 2% of the uninstrumented one
  // (tools/check_bench_regression.py enforces the ceiling in CI).
  std::printf("\nmeasuring introspection overhead (buffered Record, qlove, "
              "8 shards, best-of-5 interleaved on/off)...\n");
  const double introspection_pct = MeasureIntrospectionOverheadPct(data);
  std::printf("introspection_overhead_pct: %.2f\n", introspection_pct);

  // The crash-log acceptance gate: the Record+Tick pipeline with an
  // every_tick-fsync WAL must stay within 5% of the WAL-off pipeline
  // (tools/check_bench_regression.py enforces the ceiling in CI).
  std::printf("measuring wal overhead (Record+Tick at 500K records/tick, "
              "qlove, 8 shards, every_tick fsync, best-of-10 interleaved "
              "on/off)...\n");
  const double wal_pct = MeasureWalOverheadPct(data);
  std::printf("wal_overhead_pct: %.2f\n", wal_pct);

  WriteJson(results, cardinality, per_thread * max_threads, args.seed,
            partial, introspection_pct, wal_pct);
  // A narrowed sweep must not be mistaken downstream for a full artifact.
  return partial ? 2 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace qlove

int main(int argc, char** argv) { return qlove::bench::Main(argc, argv); }
