// Copyright 2026 The QLOVE Reproduction Authors
// One encode per Tick: with a WAL enabled, an agent ships the bytes of the
// Tick's WAL record (under a fresh header naming the export's source)
// whenever the export cursor holds the state that record was diffed
// against, and encodes otherwise. Each case runs a twin engine fed the
// same values with its WAL off — it never holds a kept frame, so its
// exports are the encode every frame must reproduce — and checks that a
// host fed the frames holds exactly a full export after each one.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/introspection.h"
#include "engine/wal.h"
#include "engine/wire.h"
#include "export_util.h"
#include "wal_util.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::ScopedWalDir;

constexpr int64_t kPeriod = 256;  // per-shard elements per sub-window
constexpr int kCheckpointEvery = 4;
constexpr char kSource[] = "agent-7";

EngineOptions AgentOptions() {
  EngineOptions options;
  options.num_shards = 2;
  options.shard_window = WindowSpec(4 * kPeriod, kPeriod);
  options.phis = {0.5, 0.9, 0.99, 0.999};
  return options;
}

BackendOptions Backend(BackendKind kind) {
  BackendOptions backend;
  backend.kind = kind;
  backend.epsilon = 0.0005;
  return backend;
}

/// \p frame as EncodeFrame writes it with the sync token zeroed and the
/// `__qlove/` self-metrics dropped: frames of twin engines (whose tokens
/// and timing sketches differ) compare equal exactly when they carry the
/// same user-metric content.
std::vector<uint8_t> Normalized(const std::vector<uint8_t>& frame) {
  auto decoded = DecodeFrame(frame);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return {};
  WireFrame normalized = decoded.TakeValue();
  normalized.sync_token = 0;
  std::erase_if(normalized.metrics, [](const WireMetricDelta& metric) {
    return IsReservedMetricName(metric.key.name());
  });
  return EncodeFrame(normalized);
}

/// The delta WAL \p record with its header's source replaced by
/// \p source: what the agent ships from the record's bytes.
std::vector<uint8_t> Reheadered(const std::vector<uint8_t>& record,
                                std::string_view source) {
  auto decoded = DecodeFrame(record);
  EXPECT_TRUE(decoded.ok() && decoded.ValueOrDie().is_delta);
  if (!decoded.ok()) return {};
  const WireFrame& frame = decoded.ValueOrDie();
  std::vector<uint8_t> wal_header;
  FrameWriter(&wal_header)
      .DeltaHeader("wal", frame.sync_token, frame.epoch, frame.base_epoch,
                   frame.metrics.size());
  EXPECT_TRUE(wal_header.size() <= record.size() &&
              std::equal(wal_header.begin(), wal_header.end(),
                         record.begin()));
  std::vector<uint8_t> out;
  FrameWriter(&out).DeltaHeader(source, frame.sync_token, frame.epoch,
                                frame.base_epoch, frame.metrics.size());
  out.insert(out.end(),
             record.begin() + static_cast<std::ptrdiff_t>(wal_header.size()),
             record.end());
  return out;
}

int64_t FramesReused(const TelemetryEngine& engine) {
  return engine.Stats().counters.frames_reused;
}

class TickFrameTest : public ::testing::Test {
 protected:
  /// Builds the WAL-on engine and its WAL-off twin over one key per
  /// backend kind.
  void Build(const EngineOptions& options = AgentOptions()) {
    engine_ = std::make_unique<TelemetryEngine>(options);
    twin_ = std::make_unique<TelemetryEngine>(options);
    const BackendKind kinds[] = {BackendKind::kQlove, BackendKind::kGk,
                                 BackendKind::kCmqs, BackendKind::kExact};
    for (BackendKind kind : kinds) {
      keys_.push_back(MetricKey("rtt_us", {{"backend", BackendKindName(kind)}}));
      ASSERT_TRUE(engine_->RegisterMetric(keys_.back(), Backend(kind)).ok());
      ASSERT_TRUE(twin_->RegisterMetric(keys_.back(), Backend(kind)).ok());
    }
    WalOptions wal_options;
    wal_options.fsync = WalFsyncPolicy::kOs;
    wal_options.checkpoint_every_n_ticks = kCheckpointEvery;
    ASSERT_TRUE(engine_->EnableWal(dir_.path(), wal_options).ok());
  }

  /// The same values into \p key on both engines.
  void Feed(const MetricKey& key, int64_t count) {
    const std::vector<double> values = workload::Materialize(&gen_, count);
    ASSERT_TRUE(engine_->RecordBatch(key, values).ok());
    ASSERT_TRUE(twin_->RecordBatch(key, values).ok());
  }

  /// One sub-window of values into every key, then a Tick on both
  /// engines. Returns whether the WAL cut a checkpoint.
  bool Tick() {
    for (const MetricKey& key : keys_) Feed(key, 3 * kPeriod);
    const int64_t before = engine_->Stats().wal_checkpoints;
    engine_->Tick();
    twin_->Tick();
    return engine_->Stats().wal_checkpoints > before;
  }

  /// Exports through both cursors with \p options; the engine's frame
  /// must carry the twin's content and leave the host holding a full
  /// export. Returns whether the engine shipped its kept Tick frame.
  bool Export(const ExportOptions& options = {}) {
    const int64_t before = FramesReused(*engine_);
    std::vector<uint8_t> twin_frame;
    EXPECT_TRUE(engine_->Export(kSource, &cursor_, &frame_, options).ok());
    EXPECT_TRUE(twin_->Export(kSource, &twin_cursor_, &twin_frame, options)
                    .ok());
    EXPECT_EQ(Normalized(frame_), Normalized(twin_frame));
    auto ack = host_.IngestFrame(frame_);
    EXPECT_TRUE(ack.ok() && ack.ValueOrDie().applied)
        << (ack.ok() ? "NAKed" : ack.status().ToString());
    auto held = host_.SourceSnapshot(kSource);
    EXPECT_TRUE(held.ok()) << held.status().ToString();
    if (held.ok()) {
      EXPECT_EQ(EncodeSnapshotV2(held.ValueOrDie()),
                test_util::FullFrame(*engine_, kSource, options));
    }
    return FramesReused(*engine_) > before;
  }

  /// Ticks and exports until the steady state: past the first checkpoint,
  /// one export after every Tick, the last one shipped from the kept
  /// frame.
  void Steady() {
    Tick();
    EXPECT_FALSE(Export());  // a fresh cursor: full frame
    Tick();
    EXPECT_TRUE(Export());
  }

  bool IsDelta() const {
    auto decoded = DecodeFrame(frame_);
    return decoded.ok() && decoded.ValueOrDie().is_delta;
  }

  ScopedWalDir dir_;
  std::unique_ptr<TelemetryEngine> engine_;
  std::unique_ptr<TelemetryEngine> twin_;
  std::vector<MetricKey> keys_;
  workload::NetMonGenerator gen_{61};
  ExportCursor cursor_;
  ExportCursor twin_cursor_;
  std::vector<uint8_t> frame_;
  AggregatorEngine host_;
};

TEST_F(TickFrameTest, SteadyStateFramesAreTheWalRecordsReheadered) {
  // Past the first checkpoint, every frame exported right after a
  // non-checkpoint Tick is that Tick's WAL record under the export's own
  // source; a checkpoint Tick's record is a full frame, so its export
  // encodes a delta of its own.
  Build();
  std::vector<std::vector<uint8_t>> wire;
  std::vector<bool> checkpoint;
  int64_t expected_reuses = 0;
  for (int tick = 0; tick < 13; ++tick) {
    checkpoint.push_back(Tick());
    const bool reused = Export();
    const bool shareable = tick > 0 && !checkpoint.back();
    EXPECT_EQ(reused, shareable) << "tick " << tick;
    expected_reuses += shareable ? 1 : 0;
    wire.push_back(frame_);
  }
  EXPECT_EQ(FramesReused(*engine_), expected_reuses);
  EXPECT_GE(expected_reuses, 9);
  EXPECT_EQ(FramesReused(*twin_), 0);  // WAL off: nothing is kept
  EXPECT_NE(EngineStatsToJson(engine_->Stats())
                .find("\"frames_reused\": " + std::to_string(expected_reuses)),
            std::string::npos);

  std::vector<std::vector<uint8_t>> records;
  auto replay = ReplayWal(dir_.path(), [&records](const uint8_t* data,
                                                  size_t size) {
    records.emplace_back(data, data + size);
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(records.size(), wire.size());
  for (size_t i = 1; i < records.size(); ++i) {
    if (checkpoint[i]) continue;
    EXPECT_EQ(wire[i], Reheadered(records[i], kSource)) << "tick " << i;
  }
}

TEST_F(TickFrameTest, FreshCursorEncodes) {
  Build();
  Steady();
  Tick();
  cursor_ = ExportCursor();
  twin_cursor_ = ExportCursor();
  EXPECT_FALSE(Export());
  EXPECT_FALSE(IsDelta());
  // The full frame stamps the cursor: the next Tick's frame ships again.
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, ResyncedCursorEncodes) {
  // A NAK (or a reconnect) resyncs the cursor: the next frame is full.
  Build();
  Steady();
  Tick();
  cursor_.RequestResync();
  twin_cursor_.RequestResync();
  EXPECT_FALSE(Export());
  EXPECT_FALSE(IsDelta());
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, SkippedTickEncodes) {
  // The kept frame is diffed against the previous Tick's state; a cursor
  // that did not export after that Tick sits further back.
  Build();
  Steady();
  Tick();  // no export after this one
  Tick();
  EXPECT_FALSE(Export());
  EXPECT_TRUE(IsDelta());
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, SecondExportOfATickEncodes) {
  Build();
  Steady();
  Tick();
  EXPECT_TRUE(Export());
  EXPECT_FALSE(Export());  // the cursor already holds this Tick
  EXPECT_TRUE(IsDelta());
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, CheckpointTickEncodes) {
  // A checkpoint record is a full frame; the wire still wants a delta.
  Build();
  Steady();
  int checkpoints = 0;
  for (int tick = 0; tick < 2 * kCheckpointEvery + 2; ++tick) {
    const bool checkpoint = Tick();
    EXPECT_EQ(Export(), !checkpoint) << "tick " << tick;
    EXPECT_TRUE(IsDelta());
    checkpoints += checkpoint ? 1 : 0;
  }
  EXPECT_GE(checkpoints, 2);
}

TEST_F(TickFrameTest, SelfMetricsEncode) {
  // The Tick's record never carries the `__qlove/` self-metrics.
  Build();
  Steady();
  ExportOptions with_self;
  with_self.include_self_metrics = true;
  Tick();
  EXPECT_FALSE(Export(with_self));
  // Leaving them out again drops tracked metrics: a full frame.
  Tick();
  EXPECT_FALSE(Export());
  EXPECT_FALSE(IsDelta());
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, RegistrationSinceTheTickEncodes) {
  Build();
  Steady();
  Tick();
  const MetricKey late("rtt_us", {{"backend", "late"}});
  ASSERT_TRUE(engine_->RegisterMetric(late).ok());
  ASSERT_TRUE(twin_->RegisterMetric(late).ok());
  EXPECT_FALSE(Export());
  EXPECT_TRUE(IsDelta());
  // From its first Tick on the new metric rides the kept frame too.
  keys_.push_back(late);
  Tick();
  EXPECT_TRUE(Export());
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, EvictionAtTheTickEncodes) {
  // An idle metric evicted at a Tick vanishes from its record, which makes
  // the record a full frame; the export encodes a full frame of its own.
  EngineOptions options = AgentOptions();
  options.idle_eviction_windows = 2;
  Build(options);
  const MetricKey idle("rtt_us", {{"backend", "idle"}});
  keys_.push_back(idle);
  Steady();
  keys_.pop_back();  // no more values for it
  Tick();
  EXPECT_TRUE(Export());
  const int64_t evictions = engine_->Stats().evictions;
  Tick();
  ASSERT_EQ(engine_->Stats().evictions, evictions + 1);
  ASSERT_EQ(twin_->Stats().evictions, evictions + 1);
  EXPECT_FALSE(Export());
  EXPECT_FALSE(IsDelta());
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, CmqsValuesSinceTheTickEncode) {
  // A CMQS window's open bucket is window content: values flushed after
  // the Tick moved it past the kept frame.
  Build();
  Steady();
  Tick();
  Feed(keys_[2], kPeriod);
  EXPECT_FALSE(Export());
  EXPECT_TRUE(IsDelta());
  Tick();
  EXPECT_TRUE(Export());
}

TEST_F(TickFrameTest, WalOffNeverShipsAKeptFrame) {
  Build();
  for (int tick = 0; tick < 4; ++tick) {
    Tick();
    Export();
  }
  EXPECT_EQ(FramesReused(*twin_), 0);
  EXPECT_GT(FramesReused(*engine_), 0);
}

TEST_F(TickFrameTest, ShippedInflightIsAsOfTheTick) {
  // Values flushed between the Tick and the export are not in the shipped
  // record's in-flight counts (the Tick had not seen them); the next frame
  // carries them as window content. Only the qlove key gets any, so the
  // kept frame stays shippable.
  Build();
  Steady();
  Tick();
  const MetricKey& qlove = keys_[0];
  const std::vector<double> late = workload::Materialize(&gen_, 100);
  ASSERT_TRUE(engine_->RecordBatch(qlove, late).ok());
  const int64_t before = FramesReused(*engine_);
  ASSERT_TRUE(engine_->Export(kSource, &cursor_, &frame_).ok());
  EXPECT_EQ(FramesReused(*engine_), before + 1);
  auto shipped = DecodeFrame(frame_);
  ASSERT_TRUE(shipped.ok());
  const WireFrame& frame = shipped.ValueOrDie();
  ASSERT_TRUE(frame.is_delta);
  bool found = false;
  for (const WireMetricDelta& metric : frame.metrics) {
    if (!(metric.key == qlove)) continue;
    found = true;
    ASSERT_EQ(metric.mode, WireDeltaMode::kQloveDelta);
    EXPECT_EQ(metric.inflight, 0);
  }
  EXPECT_TRUE(found);
  // A fresh encode reads the backlog live.
  auto live = DecodeFrame(test_util::FullFrame(*engine_, kSource));
  ASSERT_TRUE(live.ok());
  for (const WireMetricDelta& metric : live.ValueOrDie().metrics) {
    if (metric.key == qlove) {
      EXPECT_EQ(metric.shards.at(0).inflight,
                static_cast<int64_t>(late.size()));
    }
  }
}

TEST(TickFrameRaceTest, ExportRacesTickAndRecordOverTheKeptFrame) {
  // Export ships the kept frame while Ticks replace it and a writer
  // flushes values: under TSan every access must be ordered. The exporter
  // exports once after each Tick; every other Tick the ticking thread
  // goes straight on to the next one, racing that export. Every frame
  // applies at a host, and once the threads stop the host holds a full
  // export. The loop runs until some exports shipped the kept frame (or a
  // generous Tick budget ran out).
  ScopedWalDir dir;
  TelemetryEngine engine(AgentOptions());
  const MetricKey keys[] = {MetricKey("rtt_us", {{"host", "a"}}),
                            MetricKey("rtt_us", {{"host", "b"}})};
  ASSERT_TRUE(engine.RegisterMetric(keys[1], Backend(BackendKind::kGk)).ok());
  WalOptions wal_options;
  wal_options.fsync = WalFsyncPolicy::kOs;
  wal_options.checkpoint_every_n_ticks = kCheckpointEvery;
  ASSERT_TRUE(engine.EnableWal(dir.path(), wal_options).ok());

  std::atomic<bool> running{true};
  std::atomic<int64_t> ticks_done{0};
  AggregatorEngine host;
  ExportCursor cursor;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    workload::NetMonGenerator gen(62);
    while (running.load()) {
      for (const MetricKey& key : keys) {
        EXPECT_TRUE(engine.RecordBatch(key, workload::Materialize(&gen, 64))
                        .ok());
        EXPECT_TRUE(engine.Record(key, 500.0).ok());
      }
      engine.Flush();
    }
    engine.Flush();
  });
  threads.emplace_back([&] {
    std::vector<uint8_t> frame;
    int64_t exported_after = 0;
    while (running.load()) {
      if (ticks_done.load() == exported_after) {
        std::this_thread::yield();
        continue;
      }
      exported_after = ticks_done.load();
      const Status exported = engine.Export("agent", &cursor, &frame);
      EXPECT_TRUE(exported.ok()) << exported.ToString();
      if (!exported.ok()) break;
      auto ack = host.IngestFrame(frame);
      EXPECT_TRUE(ack.ok() && ack.ValueOrDie().applied);
      if (!ack.ok() || !ack.ValueOrDie().applied) cursor.RequestResync();
    }
  });
  int64_t reused = 0;
  for (int tick = 0; tick < 400 && (tick < 20 || reused < 3); ++tick) {
    engine.Tick();
    ticks_done.fetch_add(1);
    if (tick % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    reused = engine.Stats().counters.frames_reused;
  }
  running.store(false);
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(reused, 0);

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
