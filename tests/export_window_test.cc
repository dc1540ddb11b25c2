// Copyright 2026 The QLOVE Reproduction Authors
// The metric's coalesced export window (MetricState::VisitExportWindow) is
// kept across exports and brought up to date at most once per sub-window
// boundary. The oracle every case checks, after each boundary and between
// boundaries: the window equals CoalesceShardSummaries over every shard's
// Shard::SnapshotInto (plus the restore overlay while it serves) — what a
// full re-coalesce on every export would ship — field by field.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/coalesce.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "engine/wal.h"
#include "engine/wire.h"
#include "export_util.h"
#include "wal_util.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::ScopedWalDir;

constexpr int64_t kPeriod = 256;   // per-shard elements per sub-window
constexpr int64_t kSubWindows = 4;

MetricOptions Options(BackendKind kind) {
  MetricOptions options;
  options.shard_window = WindowSpec(kSubWindows * kPeriod, kPeriod);
  options.phis = {0.5, 0.9, 0.99, 0.999};
  options.backend.kind = kind;
  options.backend.epsilon = 0.0005;
  return options;
}

/// \p state's export window as an export reads it, with the live
/// in-flight count in place of the window's own.
BackendSummary Exported(const MetricState& state) {
  BackendSummary window;
  state.VisitExportWindow([&](const BackendSummary& kept, int64_t inflight) {
    window = kept;
    window.inflight = inflight;
  });
  return window;
}

/// A shard view with no window content (its in-flight count is not
/// window content): dropped next to a serving restore overlay.
bool HasNoWindowContent(const BackendSummary& view) {
  return view.count == 0 && !view.burst_active && view.subwindows.empty() &&
         view.entries.empty();
}

/// The oracle: every shard's summary coalesced, with \p overlay (when
/// non-null) standing in for the restored window. `inflight` sums every
/// shard, dropped or not.
BackendSummary Recoalesced(const MetricState& state,
                           const BackendSummary* overlay = nullptr) {
  std::vector<BackendSummary> views;
  int64_t inflight = 0;
  for (size_t s = 0; s < state.num_shards(); ++s) {
    BackendSummary view;
    state.shard(s).SnapshotInto(&view);
    inflight += view.inflight;
    if (overlay != nullptr && HasNoWindowContent(view)) continue;
    views.push_back(std::move(view));
  }
  if (overlay != nullptr) views.push_back(*overlay);
  BackendSummary coalesced = CoalesceShardSummaries(views);
  coalesced.inflight = inflight;
  return coalesced;
}

void ExpectSameWindow(const BackendSummary& want, const BackendSummary& got,
                      const std::string& where) {
  EXPECT_EQ(got.kind, want.kind) << where;
  EXPECT_EQ(got.count, want.count) << where;
  EXPECT_EQ(got.inflight, want.inflight) << where;
  EXPECT_EQ(got.burst_active, want.burst_active) << where;
  EXPECT_EQ(got.rank_error, want.rank_error) << where;
  EXPECT_EQ(got.semantics, want.semantics) << where;
  EXPECT_EQ(got.entries, want.entries) << where;
  ASSERT_EQ(got.subwindows.size(), want.subwindows.size()) << where;
  for (size_t i = 0; i < want.subwindows.size(); ++i) {
    const core::SubWindowSummary& g = got.subwindows[i];
    const core::SubWindowSummary& w = want.subwindows[i];
    EXPECT_EQ(g.epoch, w.epoch) << where << ", sub-window " << i;
    EXPECT_EQ(g.count, w.count) << where << ", sub-window " << i;
    EXPECT_EQ(g.bursty, w.bursty) << where << ", sub-window " << i;
    EXPECT_EQ(g.quantiles, w.quantiles) << where << ", sub-window " << i;
    EXPECT_EQ(g.tails, w.tails) << where << ", sub-window " << i;
  }
  EXPECT_TRUE(got == want) << where;
}

/// One boundary's worth of values for shard \p s at \p tick: uneven
/// across shards, none at all for a starved shard, and a level shift on
/// every seventh tick.
std::vector<double> Batch(workload::Generator* gen, int tick, size_t s,
                          bool starve) {
  if (starve && (tick + static_cast<int>(s)) % 3 == 0) return {};
  const int64_t n = kPeriod / 2 + (tick * 37 + static_cast<int64_t>(s) * 53) %
                                      (kPeriod / 2);
  std::vector<double> values = workload::Materialize(gen, n);
  if (tick % 7 == 5) {
    for (double& v : values) v *= 20.0;
  }
  return values;
}

void Feed(MetricState* state, workload::Generator* gen, int tick,
          bool starve) {
  for (size_t s = 0; s < state->num_shards(); ++s) {
    const std::vector<double> values = Batch(gen, tick, s, starve);
    state->shard(s).AddBatch(values.data(), values.size());
  }
}

using KindAndShards = std::tuple<BackendKind, int>;

class ExportWindowTest : public ::testing::TestWithParam<KindAndShards> {};

TEST_P(ExportWindowTest, MatchesFullRecoalesceAtAndBetweenBoundaries) {
  const auto [kind, shards] = GetParam();
  MetricState state;
  ASSERT_TRUE(
      state.Initialize(MetricKey("rtt_us"), shards, Options(kind)).ok());
  workload::NetMonGenerator gen(31 + static_cast<uint64_t>(shards));
  for (int tick = 0; tick < 20; ++tick) {
    Feed(&state, &gen, tick, /*starve=*/tick >= 4);
    state.CloseSubWindows();
    // Exports skip some boundaries: one, and then more than a whole
    // window's worth, so updates span several epochs at once.
    const bool exported = tick != 3 && (tick < 10 || tick > 14);
    if (!exported) continue;
    const std::string at = "tick " + std::to_string(tick);
    const BackendSummary window = Exported(state);
    ExpectSameWindow(Recoalesced(state), window, at + " after the boundary");
    ExpectSameWindow(Recoalesced(state), Exported(state),
                     at + " exported again");
    // Records without a Tick: only `inflight` may move (and, for CMQS,
    // the open bucket inside `entries`).
    const std::vector<double> extra = workload::Materialize(&gen, 40);
    state.shard(static_cast<size_t>(tick) % state.num_shards())
        .AddBatch(extra.data(), extra.size());
    ExpectSameWindow(Recoalesced(state), Exported(state),
                     at + " between boundaries");
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndShards, ExportWindowTest,
    ::testing::Combine(::testing::Values(BackendKind::kQlove, BackendKind::kGk,
                                         BackendKind::kCmqs,
                                         BackendKind::kExact),
                       ::testing::Values(1, 4, 8)),
    [](const ::testing::TestParamInfo<KindAndShards>& info) {
      return std::string(BackendKindName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "shards";
    });

TEST(ExportWindowStateTest, BurstFlagIsTheOrOfTheWindowsSubWindows) {
  // Sub-windows large enough for the burst detector's tail samples: a
  // level shift flags its sub-window, the window's flag stays up while
  // that sub-window is in the window and drops once it expires.
  constexpr int64_t kLargePeriod = 4096;
  MetricOptions options = Options(BackendKind::kQlove);
  options.shard_window = WindowSpec(kSubWindows * kLargePeriod, kLargePeriod);
  MetricState state;
  ASSERT_TRUE(state.Initialize(MetricKey("burst"), 4, options).ok());
  workload::UniformGenerator gen(40);
  constexpr int kBurstTick = 3;
  std::vector<bool> flags;
  for (int tick = 0; tick < 10; ++tick) {
    for (size_t s = 0; s < state.num_shards(); ++s) {
      std::vector<double> values = workload::Materialize(&gen, kLargePeriod);
      if (tick == kBurstTick) {
        for (double& v : values) v *= 20.0;
      }
      state.shard(s).AddBatch(values.data(), values.size());
    }
    state.CloseSubWindows();
    const BackendSummary window = Exported(state);
    ExpectSameWindow(Recoalesced(state), window,
                     "tick " + std::to_string(tick));
    flags.push_back(window.burst_active);
  }
  for (int tick = 0; tick < 10; ++tick) {
    const bool in_window =
        tick >= kBurstTick && tick < kBurstTick + kSubWindows;
    EXPECT_EQ(flags[static_cast<size_t>(tick)], in_window) << "tick " << tick;
  }
}

TEST(ExportWindowStateTest, FirstExportLongAfterRegistration) {
  // Late starts: one metric sees many boundaries with data before its
  // first export (the window is built from scratch, after expiries), the
  // other sees empty boundaries first and data only later.
  for (const bool empty_first : {false, true}) {
    MetricState state;
    ASSERT_TRUE(
        state.Initialize(MetricKey("late"), 4, Options(BackendKind::kQlove))
            .ok());
    workload::NetMonGenerator gen(41);
    for (int tick = 0; tick < 9; ++tick) {
      if (!empty_first) Feed(&state, &gen, tick, /*starve=*/false);
      state.CloseSubWindows();
      if (empty_first) {
        EXPECT_TRUE(Exported(state).subwindows.empty());
      }
    }
    for (int tick = 9; tick < 15; ++tick) {
      Feed(&state, &gen, tick, /*starve=*/false);
      state.CloseSubWindows();
      ExpectSameWindow(Recoalesced(state), Exported(state),
                       std::string(empty_first ? "empty first" : "fed first") +
                           ", tick " + std::to_string(tick));
    }
  }
}

TEST(ExportWindowStateTest, InflightIsReadLiveBeforeAnyBoundary) {
  MetricState state;
  ASSERT_TRUE(
      state.Initialize(MetricKey("fresh"), 4, Options(BackendKind::kQlove))
          .ok());
  workload::NetMonGenerator gen(42);
  const std::vector<double> values = workload::Materialize(&gen, 100);
  state.shard(1).AddBatch(values.data(), values.size());
  BackendSummary window = Exported(state);
  EXPECT_EQ(window.inflight, 100);
  EXPECT_TRUE(window.subwindows.empty());
  state.shard(2).AddBatch(values.data(), 30);
  window = Exported(state);
  EXPECT_EQ(window.inflight, 130);
  ExpectSameWindow(Recoalesced(state), window, "before any boundary");
}

/// The window a restored engine would install: a full frame of a source
/// engine with the same metric configuration, replayed from its WAL
/// exactly as TelemetryEngine::RecoverFromWal replays it.
struct Recovered {
  MetricOptions options;
  BackendSummary summary;
  int64_t epoch = 0;
};

Recovered RecoverThroughWal(BackendKind kind) {
  ScopedWalDir dir;
  EngineOptions options;
  options.num_shards = 2;
  options.shard_window = Options(kind).shard_window;
  options.phis = Options(kind).phis;
  options.default_backend = Options(kind).backend;
  const MetricKey key("rtt_us");
  {
    TelemetryEngine source(options);
    WalOptions wal_options;
    wal_options.fsync = WalFsyncPolicy::kOs;
    EXPECT_TRUE(source.EnableWal(dir.path(), wal_options).ok());
    workload::NetMonGenerator gen(43);
    for (int tick = 0; tick < 6; ++tick) {
      EXPECT_TRUE(
          source.RecordBatch(key, workload::Materialize(&gen, 2 * kPeriod))
              .ok());
      source.Tick();
    }
    EXPECT_TRUE(source.FlushWal().ok());
  }
  AggregatorOptions replay_options;
  replay_options.introspection = false;
  AggregatorEngine replayer(replay_options);
  auto replay = ReplayWal(dir.path(), [&](const uint8_t* data, size_t size) {
    auto ack = replayer.IngestFrame(data, size);
    return ack.ok() ? Status::OK() : ack.status();
  });
  EXPECT_TRUE(replay.ok());
  auto held = replayer.SourceSnapshot("wal");
  EXPECT_TRUE(held.ok());
  Recovered recovered;
  if (!held.ok() || held.ValueOrDie().metrics.size() != 1) return recovered;
  const WireMetricSummary& metric = held.ValueOrDie().metrics[0];
  recovered.options = metric.options;
  recovered.summary = metric.shards.at(0);
  recovered.epoch = held.ValueOrDie().epoch;
  return recovered;
}

class ExportWindowRestoreTest : public ::testing::TestWithParam<BackendKind> {
};

TEST_P(ExportWindowRestoreTest, RestoreOverlayAgesOutOfTheWindow) {
  const BackendKind kind = GetParam();
  const Recovered recovered = RecoverThroughWal(kind);
  ASSERT_EQ(recovered.epoch, 6);
  MetricState state;
  ASSERT_TRUE(state.Initialize(MetricKey("rtt_us"), 4, recovered.options).ok());
  state.RestoreSummary(recovered.summary, recovered.epoch);
  ASSERT_TRUE(state.HasRestoreOverlay());

  // The oracle's overlay ages on the documented schedule: qlove
  // sub-windows leave once their epoch falls out of the window (the flag
  // is the OR of what remains), entry payloads after kSubWindows
  // boundaries.
  BackendSummary overlay = recovered.summary;
  overlay.inflight = 0;
  auto aged = [&](int closes) -> const BackendSummary* {
    if (kind != BackendKind::kQlove) {
      return closes < kSubWindows ? &overlay : nullptr;
    }
    auto& subs = overlay.subwindows;
    const int64_t horizon = recovered.epoch + closes - kSubWindows;
    while (!subs.empty() && subs.front().epoch <= horizon) {
      subs.erase(subs.begin());
    }
    overlay.burst_active = false;
    for (const core::SubWindowSummary& sub : subs) {
      overlay.burst_active = overlay.burst_active || sub.bursty;
    }
    return subs.empty() ? nullptr : &overlay;
  };

  ExpectSameWindow(Recoalesced(state, aged(0)), Exported(state),
                   "right after the restore");
  workload::NetMonGenerator gen(44);
  bool aged_out = false;
  for (int close = 1; close <= 8; ++close) {
    // Boundary 2 passes with every shard starved.
    if (close != 2) Feed(&state, &gen, close, /*starve=*/true);
    state.CloseSubWindows();
    const BackendSummary* serving = aged(close);
    EXPECT_EQ(state.HasRestoreOverlay(), serving != nullptr)
        << "boundary " << close;
    aged_out = aged_out || serving == nullptr;
    ExpectSameWindow(Recoalesced(state, serving), Exported(state),
                     "boundary " + std::to_string(close) + " after restore");
  }
  EXPECT_TRUE(aged_out);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ExportWindowRestoreTest,
    ::testing::Values(BackendKind::kQlove, BackendKind::kGk,
                      BackendKind::kCmqs, BackendKind::kExact),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendKindName(info.param));
    });

TEST(ExportWindowStateTest, DegradeReplacementStartsItsOwnWindow) {
  MetricRegistry registry;
  const MetricKey key("rtt_us");
  auto created =
      registry.GetOrCreate(key, 4, Options(BackendKind::kExact));
  ASSERT_TRUE(created.ok());
  std::shared_ptr<MetricState> old_state = created.ValueOrDie();
  workload::NetMonGenerator gen(45);
  for (int tick = 0; tick < 3; ++tick) {
    Feed(old_state.get(), &gen, tick, /*starve=*/false);
    old_state->CloseSubWindows();
    ExpectSameWindow(Recoalesced(*old_state), Exported(*old_state),
                     "exact, tick " + std::to_string(tick));
  }
  const BackendSummary old_window = Exported(*old_state);

  auto replaced = registry.Replace(key, 4, Options(BackendKind::kQlove));
  ASSERT_TRUE(replaced.ok());
  std::shared_ptr<MetricState> fresh = replaced.ValueOrDie();
  ASSERT_EQ(registry.Find(key), fresh);
  EXPECT_EQ(Exported(*fresh).kind, BackendKind::kQlove);
  EXPECT_TRUE(Exported(*fresh).subwindows.empty());
  EXPECT_EQ(fresh->ExportWindowBytes(), 0u);
  for (int tick = 3; tick < 9; ++tick) {
    Feed(fresh.get(), &gen, tick, /*starve=*/false);
    fresh->CloseSubWindows();
    ExpectSameWindow(Recoalesced(*fresh), Exported(*fresh),
                     "qlove replacement, tick " + std::to_string(tick));
  }
  // The retired state's window is its own, untouched by the newcomer.
  EXPECT_TRUE(Exported(*old_state) == old_window);
}

TEST(ExportWindowStateTest, RetainedWindowCountsAgainstMemory) {
  MetricState state;
  ASSERT_TRUE(
      state.Initialize(MetricKey("mem"), 4, Options(BackendKind::kQlove))
          .ok());
  workload::NetMonGenerator gen(46);
  for (int tick = 0; tick < 6; ++tick) {
    Feed(&state, &gen, tick, /*starve=*/false);
    state.CloseSubWindows();
  }
  const size_t before = state.ApproxMemoryBytes();
  EXPECT_EQ(state.ExportWindowBytes(), 0u);  // never exported: nothing held
  const BackendSummary window = Exported(state);
  const size_t window_bytes =
      static_cast<size_t>(window.SpaceVariables()) * 8;
  ASSERT_GT(window_bytes, 0u);
  EXPECT_EQ(state.ExportWindowBytes(), window_bytes);
  EXPECT_EQ(state.ApproxMemoryBytes(), before + window_bytes);
  // The next boundary refreshes the shard side and keeps the window's
  // bytes until the next export updates it.
  Feed(&state, &gen, 6, /*starve=*/false);
  state.CloseSubWindows();
  EXPECT_EQ(state.ExportWindowBytes(), window_bytes);
  const BackendSummary next = Exported(state);
  EXPECT_EQ(state.ExportWindowBytes(),
            static_cast<size_t>(next.SpaceVariables()) * 8);
}

TEST(ExportWindowEngineTest, StatsGrowByTheWindowAfterTheFirstExport) {
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = Options(BackendKind::kQlove).shard_window;
  options.phis = Options(BackendKind::kQlove).phis;
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us");
  workload::NetMonGenerator gen(47);
  for (int tick = 0; tick < 5; ++tick) {
    ASSERT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, 4 * kPeriod)).ok());
    engine.Tick();
  }
  auto footprint = [&engine, &key](const EngineStats& stats) {
    for (const MetricFootprint& metric : stats.metrics) {
      if (metric.key == key) return metric;
    }
    ADD_FAILURE() << "no footprint for " << key.ToString();
    return MetricFootprint();
  };
  // Stats answers its stage percentiles by querying the `__qlove/` stage
  // metrics, and a query builds its metric's export window: take the
  // baseline after one Stats call has built those, so it moves by the
  // user metric's window alone.
  (void)engine.Stats();
  const EngineStats before = engine.Stats();
  EXPECT_EQ(footprint(before).export_window_bytes, 0);

  const WireSnapshot exported = test_util::FullSnapshot(engine, "agent");
  ASSERT_EQ(exported.metrics.size(), 1u);
  const int64_t window_bytes =
      exported.metrics[0].shards.at(0).SpaceVariables() * 8;
  ASSERT_GT(window_bytes, 0);
  const EngineStats after = engine.Stats();
  EXPECT_EQ(footprint(after).export_window_bytes, window_bytes);
  EXPECT_EQ(footprint(after).memory_bytes,
            footprint(before).memory_bytes + window_bytes);
  EXPECT_EQ(after.total_memory_bytes,
            before.total_memory_bytes + window_bytes);
  EXPECT_NE(EngineStatsToJson(after).find("\"export_window_bytes\": " +
                                            std::to_string(window_bytes)),
            std::string::npos);
}

TEST(ExportWindowEngineTest, WalRecordsAndWireFramesAreByteIdentical) {
  // Both exports copy the same window: with the wire cursor resynced
  // whenever the WAL cut a checkpoint, every WAL record equals the wire
  // frame exported right after that Tick, and every checkpoint equals a
  // fresh cursor's full frame. One qlove metric registers late (on its
  // first Record, five Ticks in), so its sub-window epochs trail the
  // engine's.
  ScopedWalDir dir;
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = Options(BackendKind::kQlove).shard_window;
  options.phis = Options(BackendKind::kQlove).phis;
  TelemetryEngine engine(options);
  const BackendKind kinds[] = {BackendKind::kQlove, BackendKind::kGk,
                               BackendKind::kCmqs, BackendKind::kExact};
  std::vector<MetricKey> keys;
  for (BackendKind kind : kinds) {
    keys.push_back(MetricKey("rtt_us", {{"backend", BackendKindName(kind)}}));
    ASSERT_TRUE(engine.RegisterMetric(keys.back(), Options(kind).backend).ok());
  }
  WalOptions wal_options;
  wal_options.fsync = WalFsyncPolicy::kOs;
  wal_options.checkpoint_every_n_ticks = 3;
  ASSERT_TRUE(engine.EnableWal(dir.path(), wal_options).ok());

  workload::NetMonGenerator gen(48);
  ExportCursor cursor;
  std::vector<std::vector<uint8_t>> wire;
  std::vector<std::vector<uint8_t>> full;
  std::vector<bool> checkpoint;
  int64_t checkpoints = 0;
  const MetricKey late("rtt_us", {{"backend", "late"}});
  for (int tick = 0; tick < 14; ++tick) {
    if (tick == 5) keys.push_back(late);
    for (const MetricKey& key : keys) {
      ASSERT_TRUE(
          engine.RecordBatch(key, workload::Materialize(&gen, 3 * kPeriod))
              .ok());
    }
    engine.Tick();
    const int64_t now = engine.Stats().wal_checkpoints;
    checkpoint.push_back(now > checkpoints);
    checkpoints = now;
    if (checkpoint.back()) cursor.RequestResync();
    std::vector<uint8_t> frame;
    ASSERT_TRUE(engine.Export("wal", &cursor, &frame).ok());
    wire.push_back(std::move(frame));
    full.push_back(test_util::FullFrame(engine, "wal"));
  }
  ASSERT_GE(checkpoints, 4);
  auto last = DecodeFrame(full.back());
  ASSERT_TRUE(last.ok());
  const WireFrame& snapshot = last.ValueOrDie();
  EXPECT_EQ(snapshot.epoch, 14);
  ASSERT_EQ(snapshot.metrics.size(), keys.size());
  for (const WireMetricDelta& metric : snapshot.metrics) {
    if (!(metric.key == late)) continue;
    // Nine Ticks since its registration: the metric's own epochs.
    ASSERT_FALSE(metric.shards.at(0).subwindows.empty());
    EXPECT_EQ(metric.shards[0].subwindows.back().epoch, 9);
  }

  std::vector<std::vector<uint8_t>> records;
  auto replay = ReplayWal(dir.path(), [&records](const uint8_t* data,
                                                 size_t size) {
    records.emplace_back(data, data + size);
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(records.size(), wire.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], wire[i]) << "tick " << i;
    if (checkpoint[i]) {
      EXPECT_EQ(records[i], full[i]) << "tick " << i;
    }
  }
}

TEST(ExportWindowEngineTest, ExportTickAndRecordRunConcurrently) {
  // Export, Tick and Record race on one engine; every frame applies at a
  // host, and once the threads stop the host's copy equals a full export.
  EngineOptions options;
  options.num_shards = 4;
  options.shard_window = Options(BackendKind::kQlove).shard_window;
  options.phis = Options(BackendKind::kQlove).phis;
  TelemetryEngine engine(options);
  const MetricKey keys[] = {MetricKey("rtt_us", {{"host", "a"}}),
                            MetricKey("rtt_us", {{"host", "b"}})};
  ASSERT_TRUE(engine.RegisterMetric(keys[1], Options(BackendKind::kGk).backend)
                  .ok());
  constexpr int kTicks = 40;
  std::atomic<bool> ticking{true};
  std::thread writer([&] {
    workload::NetMonGenerator gen(49);
    while (ticking.load()) {
      for (const MetricKey& key : keys) {
        EXPECT_TRUE(engine.RecordBatch(key, workload::Materialize(&gen, 64))
                        .ok());
      }
      engine.Flush();
    }
    engine.Flush();
  });
  AggregatorEngine host;
  ExportCursor cursor;
  std::thread exporter([&] {
    std::vector<uint8_t> frame;
    while (ticking.load()) {
      EXPECT_TRUE(engine.Export("agent", &cursor, &frame).ok());
      auto ack = host.IngestFrame(frame);
      EXPECT_TRUE(ack.ok() && ack.ValueOrDie().applied);
    }
  });
  for (int tick = 0; tick < kTicks; ++tick) {
    engine.Tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticking.store(false);
  writer.join();
  exporter.join();

  engine.Tick();
  std::vector<uint8_t> frame;
  ASSERT_TRUE(engine.Export("agent", &cursor, &frame).ok());
  auto ack = host.IngestFrame(frame);
  ASSERT_TRUE(ack.ok() && ack.ValueOrDie().applied);
  auto held = host.SourceSnapshot("agent");
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(EncodeSnapshotV2(held.ValueOrDie()),
            test_util::FullFrame(engine, "agent"));
}

}  // namespace
}  // namespace engine
}  // namespace qlove
