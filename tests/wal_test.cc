// The durability seam (engine/wal.h): segment framing, rotation and
// retention, torn-tail and byte-flip hostility (every prefix truncation,
// every byte flipped — mirroring wire_roundtrip_test.cc's fuzz posture),
// the ENOSPC fault seam flipping the engine into counted non-durable
// degraded mode and healing at the next clean checkpoint, and full
// replay recovery: a restarted TelemetryEngine / AggregatorEngine must
// resume with exactly its last durable state (bit-identical re-encoded
// exports), rejecting corrupt and foreign-token records record by record.

#include "engine/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "export_util.h"
#include "grid_query.h"
#include "wal_util.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::ScopedWalDir;

WalOptions TestWalOptions() {
  WalOptions options;
  options.fsync = WalFsyncPolicy::kOs;  // unit tests don't need the platters
  return options;
}

EngineOptions TestEngineOptions(BackendKind kind = BackendKind::kQlove) {
  EngineOptions options;
  // One shard: recovery restores a coalesced per-metric summary, and the
  // bit-identity assertions below require export bytes that do not depend
  // on how records happened to spread across shards.
  options.num_shards = 1;
  options.shard_window = WindowSpec(512, 128);
  options.default_backend.kind = kind;
  options.default_backend.epsilon = 0.0005;
  return options;
}

/// Re-encoded bytes with source/sync_token pinned, so two engines' exports
/// compare on state alone (the token is a per-incarnation random).
std::vector<uint8_t> NormalizedExport(const TelemetryEngine& engine) {
  WireSnapshot snapshot = test_util::FullSnapshot(engine, "normalized");
  snapshot.sync_token = 0;
  return EncodeSnapshotV2(snapshot);
}

void DriveTicks(TelemetryEngine* engine, const MetricKey& key, uint64_t seed,
                int ticks, int per_tick = 128) {
  workload::NetMonGenerator gen(seed);
  for (int t = 0; t < ticks; ++t) {
    ASSERT_TRUE(
        engine->RecordBatch(key, workload::Materialize(&gen, per_tick)).ok());
    engine->Flush();  // everything in this tick's WAL record, nothing inflight
    engine->Tick();
  }
}

// ---------------------------------------------------------------------------
// Writer mechanics
// ---------------------------------------------------------------------------

TEST(WalWriterTest, SegmentMustStartWithCheckpoint) {
  ScopedWalDir dir;
  auto writer = WalWriter::Open(dir.path(), TestWalOptions());
  ASSERT_TRUE(writer.ok());
  auto& wal = *writer.ValueOrDie();
  EXPECT_TRUE(wal.ShouldCheckpoint());  // no open segment yet

  const uint8_t payload[] = {1, 2, 3, 4};
  const Status non_checkpoint =
      wal.Append(payload, sizeof(payload), /*is_checkpoint=*/false);
  EXPECT_EQ(non_checkpoint.code(), Status::Code::kFailedPrecondition);

  ASSERT_TRUE(wal.Append(payload, sizeof(payload), /*is_checkpoint=*/true).ok());
  EXPECT_FALSE(wal.ShouldCheckpoint());
  ASSERT_TRUE(
      wal.Append(payload, sizeof(payload), /*is_checkpoint=*/false).ok());
  EXPECT_EQ(wal.stats().records, 2);
  EXPECT_EQ(wal.stats().checkpoints, 1);
  EXPECT_EQ(wal.stats().segments_created, 1);
  EXPECT_TRUE(wal.Sync().ok());
  EXPECT_TRUE(wal.Close().ok());
}

TEST(WalWriterTest, RotationPrunesToRetentionBudget) {
  ScopedWalDir dir;
  WalOptions options = TestWalOptions();
  options.segment_target_bytes = 4096;  // the validated minimum: rotate fast
  options.max_segments = 2;
  auto writer = WalWriter::Open(dir.path(), options);
  ASSERT_TRUE(writer.ok());
  auto& wal = *writer.ValueOrDie();

  std::vector<uint8_t> payload(1024, 0xAB);
  for (int i = 0; i < 40; ++i) {
    const bool checkpoint = wal.ShouldCheckpoint();
    if (checkpoint) ASSERT_TRUE(wal.BeginSegment().ok());
    ASSERT_TRUE(wal.Append(payload.data(), payload.size(), checkpoint).ok());
  }
  EXPECT_GT(wal.stats().segments_created, 2);
  EXPECT_GT(wal.stats().segments_pruned, 0);
  EXPECT_LE(wal.stats().live_segments, 2);

  auto on_disk = ListWalSegments(dir.path());
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(static_cast<int64_t>(on_disk.ValueOrDie().size()),
            wal.stats().live_segments);
}

TEST(WalWriterTest, NewIncarnationNeverAppendsToOldSegments) {
  ScopedWalDir dir;
  std::vector<uint8_t> payload(16, 0x11);
  int64_t first_seq;
  {
    auto writer = WalWriter::Open(dir.path(), TestWalOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.ValueOrDie()->Append(payload.data(), payload.size(), true).ok());
    first_seq = writer.ValueOrDie()->stats().open_segment_seq;
  }
  auto writer = WalWriter::Open(dir.path(), TestWalOptions());
  ASSERT_TRUE(writer.ok());
  auto& wal = *writer.ValueOrDie();
  EXPECT_TRUE(wal.ShouldCheckpoint());  // fresh writer: no open segment
  ASSERT_TRUE(wal.Append(payload.data(), payload.size(), true).ok());
  EXPECT_GT(wal.stats().open_segment_seq, first_seq);
  EXPECT_EQ(wal.stats().live_segments, 2);
}

TEST(WalWriterTest, ReplayRoundTripsPayloads) {
  ScopedWalDir dir;
  std::vector<std::vector<uint8_t>> written;
  {
    auto writer = WalWriter::Open(dir.path(), TestWalOptions());
    ASSERT_TRUE(writer.ok());
    auto& wal = *writer.ValueOrDie();
    std::mt19937_64 rng(7);
    for (int i = 0; i < 10; ++i) {
      std::vector<uint8_t> payload(1 + (rng() % 100));
      for (auto& byte : payload) byte = static_cast<uint8_t>(rng());
      ASSERT_TRUE(
          wal.Append(payload.data(), payload.size(), /*is_checkpoint=*/i == 0)
              .ok());
      written.push_back(std::move(payload));
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  std::vector<std::vector<uint8_t>> read;
  auto replay = ReplayWal(dir.path(), [&](const uint8_t* data, size_t size) {
    read.emplace_back(data, data + size);
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.ValueOrDie().records_applied, 10);
  EXPECT_EQ(replay.ValueOrDie().records_corrupt, 0);
  EXPECT_EQ(replay.ValueOrDie().truncated_tails, 0);
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) EXPECT_EQ(read[i], written[i]);
}

TEST(WalWriterTest, MissingDirectoryReplaysNothing) {
  auto replay = ReplayWal("/tmp/qlove_wal_does_not_exist_xyzzy",
                          [](const uint8_t*, size_t) { return Status::OK(); });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.ValueOrDie().segments_scanned, 0);
  EXPECT_EQ(replay.ValueOrDie().records_applied, 0);
}

TEST(WalFsyncPolicyTest, NamesRoundTrip) {
  for (WalFsyncPolicy policy :
       {WalFsyncPolicy::kEveryRecord, WalFsyncPolicy::kEveryTick,
        WalFsyncPolicy::kOs}) {
    auto parsed = ParseWalFsyncPolicy(WalFsyncPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.ValueOrDie(), policy);
  }
  EXPECT_FALSE(ParseWalFsyncPolicy("sometimes").ok());
  EXPECT_FALSE(ParseWalFsyncPolicy("").ok());
}

// ---------------------------------------------------------------------------
// Hostile bytes: every truncation point, every byte flipped
// ---------------------------------------------------------------------------

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {  // fwrite's buffer must be non-null even for 0 bytes
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// One segment holding a checkpoint + two delta records of real engine
/// frames (the exact bytes recovery feeds to IngestFrame).
std::vector<uint8_t> BuildSegmentBytes(ScopedWalDir* dir) {
  TelemetryEngine engine(TestEngineOptions());
  WalOptions options = TestWalOptions();
  EXPECT_TRUE(engine.EnableWal(dir->path(), options).ok());
  const MetricKey key("rtt_us", {{"host", "h0"}});
  TelemetryEngine* raw = &engine;
  DriveTicks(raw, key, /*seed=*/11, /*ticks=*/3);
  EXPECT_TRUE(engine.FlushWal().ok());
  auto segments = ListWalSegments(dir->path());
  EXPECT_TRUE(segments.ok());
  EXPECT_EQ(segments.ValueOrDie().size(), 1u);
  return ReadFile(segments.ValueOrDie().front());
}

/// The framed payloads of \p segment, plus each record's END offset (the
/// clean truncation points), parsed with the documented layout.
std::vector<std::vector<uint8_t>> ParseSegment(
    const std::vector<uint8_t>& segment, std::vector<size_t>* boundaries) {
  std::vector<std::vector<uint8_t>> payloads;
  size_t pos = sizeof(kWalSegmentMagic);
  boundaries->push_back(pos);  // magic alone is a clean (empty) segment
  while (pos + kWalRecordHeaderBytes <= segment.size()) {
    uint32_t len;
    std::memcpy(&len, segment.data() + pos, 4);
    if (pos + kWalRecordHeaderBytes + len > segment.size()) break;
    const uint8_t* payload = segment.data() + pos + kWalRecordHeaderBytes;
    payloads.emplace_back(payload, payload + len);
    pos += kWalRecordHeaderBytes + len;
    boundaries->push_back(pos);
  }
  return payloads;
}

TEST(WalHostileTest, EveryPrefixTruncationIsHarmless) {
  ScopedWalDir build_dir;
  const std::vector<uint8_t> segment = BuildSegmentBytes(&build_dir);
  ASSERT_GT(segment.size(), sizeof(kWalSegmentMagic));
  std::vector<size_t> boundaries;
  const std::vector<std::vector<uint8_t>> records =
      ParseSegment(segment, &boundaries);
  ASSERT_EQ(records.size(), 3u);  // checkpoint + two delta ticks

  for (size_t cut = 0; cut <= segment.size(); ++cut) {
    ScopedWalDir dir;
    WriteFile(dir.path() + "/wal-00000000.qwal",
              std::vector<uint8_t>(segment.begin(), segment.begin() + cut));
    std::vector<std::vector<uint8_t>> applied;
    auto replay = ReplayWal(dir.path(), [&](const uint8_t* data, size_t size) {
      applied.emplace_back(data, data + size);
      return Status::OK();
    });
    // Truncation is the crash model: never an error, never UB, and what
    // survives is exactly the records fully on disk before the cut.
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    size_t expect = 0;
    while (expect + 1 < boundaries.size() && boundaries[expect + 1] <= cut) {
      ++expect;
    }
    ASSERT_EQ(applied.size(), expect) << "cut=" << cut;
    for (size_t i = 0; i < applied.size(); ++i) {
      EXPECT_EQ(applied[i], records[i]) << "cut=" << cut << " record=" << i;
    }
    const bool at_boundary = cut == segment.size() ||
                             (cut >= sizeof(kWalSegmentMagic) &&
                              boundaries[expect] == cut);
    if (!at_boundary) {
      EXPECT_GE(replay.ValueOrDie().truncated_tails +
                    replay.ValueOrDie().records_corrupt,
                1)
          << "cut=" << cut;
    }
  }
}

TEST(WalHostileTest, EveryByteFlipNeverCrashesReplay) {
  ScopedWalDir build_dir;
  const std::vector<uint8_t> segment = BuildSegmentBytes(&build_dir);
  std::vector<size_t> boundaries;
  const std::vector<std::vector<uint8_t>> records =
      ParseSegment(segment, &boundaries);
  ASSERT_EQ(records.size(), 3u);

  for (size_t i = 0; i < segment.size(); ++i) {
    ScopedWalDir dir;
    std::vector<uint8_t> mutated = segment;
    mutated[i] ^= 0xFF;
    WriteFile(dir.path() + "/wal-00000000.qwal", mutated);
    // A flip in record framing (or the magic) must be caught by the CRC /
    // magic / length checks; a flip inside a payload fails that record's
    // CRC. Either way: no crash, no error from replay itself, and every
    // payload the sink DOES see is byte-identical to an original record.
    std::vector<std::vector<uint8_t>> applied;
    auto replay = ReplayWal(dir.path(), [&](const uint8_t* data, size_t size) {
      applied.emplace_back(data, data + size);
      return Status::OK();
    });
    ASSERT_TRUE(replay.ok()) << "flip=" << i;
    ASSERT_LE(applied.size(), records.size()) << "flip=" << i;
    for (size_t r = 0; r < applied.size(); ++r) {
      EXPECT_EQ(applied[r], records[r])
          << "flipped byte " << i << " surfaced a corrupt record " << r;
    }
    EXPECT_LT(applied.size(), records.size())
        << "flipped byte " << i << " went entirely undetected";
  }
}

TEST(WalHostileTest, SinkRejectionSkipsRecordByRecord) {
  ScopedWalDir dir;
  {
    auto writer = WalWriter::Open(dir.path(), TestWalOptions());
    ASSERT_TRUE(writer.ok());
    auto& wal = *writer.ValueOrDie();
    for (int i = 0; i < 5; ++i) {
      const uint8_t payload = static_cast<uint8_t>(i);
      ASSERT_TRUE(wal.Append(&payload, 1, /*is_checkpoint=*/i == 0).ok());
    }
    ASSERT_TRUE(wal.Close().ok());
  }
  std::vector<int> accepted;
  auto replay = ReplayWal(dir.path(), [&](const uint8_t* data, size_t) {
    if (*data % 2 == 1) return Status::InvalidArgument("odd frame");
    accepted.push_back(*data);
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.ValueOrDie().records_applied, 3);
  EXPECT_EQ(replay.ValueOrDie().records_rejected, 2);
  EXPECT_EQ(accepted, (std::vector<int>{0, 2, 4}));
}

// ---------------------------------------------------------------------------
// Engine integration: degraded mode, recovery, foreign records
// ---------------------------------------------------------------------------

TEST(EngineWalTest, EnospcSeamDegradesThenHeals) {
  ScopedWalDir dir;
  TelemetryEngine engine(TestEngineOptions());
  WalOptions options = TestWalOptions();
  options.checkpoint_every_n_ticks = 4;
  ASSERT_TRUE(engine.EnableWal(dir.path(), options).ok());
  ASSERT_TRUE(engine.wal_enabled());
  EXPECT_FALSE(engine.EnableWal(dir.path(), options).ok());  // already on

  const MetricKey key("rtt_us", {{"host", "h0"}});
  DriveTicks(&engine, key, /*seed=*/3, /*ticks=*/2);
  EXPECT_FALSE(engine.wal_degraded());

  engine.set_wal_testing_fail_appends(2);  // the "disk" fails twice
  DriveTicks(&engine, key, /*seed=*/4, /*ticks=*/2);
  EXPECT_TRUE(engine.wal_degraded());
  EngineStats degraded = engine.Stats();
  EXPECT_TRUE(degraded.wal_enabled);
  EXPECT_TRUE(degraded.wal_degraded);
  EXPECT_EQ(degraded.wal_append_failures, 2);

  // The next Tick's append succeeds; degraded mode forces it to be a
  // checkpoint, which heals the flag and restores full recoverability.
  DriveTicks(&engine, key, /*seed=*/5, /*ticks=*/1);
  EXPECT_FALSE(engine.wal_degraded());
  EngineStats healed = engine.Stats();
  EXPECT_FALSE(healed.wal_degraded);
  EXPECT_GE(healed.wal_checkpoints, 2);

  // And what survives on disk recovers to exactly the live engine's state.
  ASSERT_TRUE(engine.FlushWal().ok());
  TelemetryEngine recovered(TestEngineOptions());
  auto info = recovered.RecoverFromWal(dir.path());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().epoch, engine.TickEpochs());
  EXPECT_EQ(NormalizedExport(recovered), NormalizedExport(engine));
}

// Regression: WAL records are encoded through the unmetered internal
// path. They used to go through the public export call, so an agent with
// a WAL and no network peer reported exports, wire bytes and wire_encode
// latency for frames that never left the host.
TEST(EngineWalTest, WalRecordsAreNotMeteredAsExports) {
  ScopedWalDir dir;
  TelemetryEngine engine(TestEngineOptions());
  ASSERT_TRUE(engine.EnableWal(dir.path(), TestWalOptions()).ok());
  DriveTicks(&engine, MetricKey("rtt_us", {}), /*seed=*/3, /*ticks=*/5);

  EngineStats stats = engine.Stats();
  ASSERT_TRUE(stats.enabled);
  EXPECT_EQ(stats.wal_records, 5);
  EXPECT_EQ(stats.counters.exports, 0);
  EXPECT_EQ(stats.counters.wire_bytes_encoded, 0);
  EXPECT_EQ(stats.counters.delta_exports, 0);
  EXPECT_EQ(stats.counters.wire_bytes_delta, 0);
  for (const StageStats& stage : stats.stages) {
    if (stage.stage == Stage::kWireEncode) {
      EXPECT_EQ(stage.samples, 0);
    }
  }

  ExportCursor cursor;
  std::vector<uint8_t> frame;
  ASSERT_TRUE(engine.Export("host-a", &cursor, &frame).ok());
  stats = engine.Stats();
  EXPECT_EQ(stats.counters.exports, 1);
  EXPECT_EQ(stats.counters.wire_bytes_encoded,
            static_cast<int64_t>(frame.size()));
  EXPECT_EQ(stats.counters.delta_exports, 0);
  EXPECT_EQ(stats.counters.wire_bytes_delta, 0);
}

TEST(EngineWalTest, RecoverRoundTripsQloveAndGk) {
  for (BackendKind kind : {BackendKind::kQlove, BackendKind::kGk}) {
    SCOPED_TRACE(BackendKindName(kind));
    ScopedWalDir dir;
    TelemetryEngine engine(TestEngineOptions(kind));
    ASSERT_TRUE(engine.EnableWal(dir.path(), TestWalOptions()).ok());
    const MetricKey key("rtt_us", {{"host", "h0"}, {"service", "netmon"}});
    const MetricKey key2("qps", {{"host", "h0"}});
    workload::NetMonGenerator gen(21);
    for (int t = 0; t < 9; ++t) {  // crosses sub-window expiry (4 subs)
      ASSERT_TRUE(
          engine.RecordBatch(key, workload::Materialize(&gen, 160)).ok());
      ASSERT_TRUE(
          engine.RecordBatch(key2, workload::Materialize(&gen, 40)).ok());
      engine.Flush();
      engine.Tick();
    }
    ASSERT_TRUE(engine.FlushWal().ok());

    TelemetryEngine recovered(TestEngineOptions(kind));
    auto info = recovered.RecoverFromWal(dir.path());
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.ValueOrDie().epoch, 9);
    EXPECT_EQ(info.ValueOrDie().metrics, 2);
    EXPECT_GT(info.ValueOrDie().replay.records_applied, 0);
    EXPECT_EQ(info.ValueOrDie().replay.records_rejected, 0);
    EXPECT_EQ(recovered.TickEpochs(), 9);
    EXPECT_EQ(NormalizedExport(recovered), NormalizedExport(engine));
    EngineStats stats = recovered.Stats();
    EXPECT_EQ(stats.wal_recovered_epoch, 9);
    EXPECT_EQ(stats.wal_recovered_metrics, 2);

    // The recovered window keeps aging correctly under new traffic.
    // qlove stays BIT-identical in lockstep (sub-windows are grouped by
    // epoch, and the restore overlay ages out on the same schedule the
    // live window expires); gk is path-dependent (one sketch that saw
    // everything vs. a frozen summary merged with a fresh sketch), so it
    // gets semantic assertions: same totals, quantiles within the
    // documented rank-error budget of each other.
    workload::NetMonGenerator gen_live(33);
    workload::NetMonGenerator gen_back(33);
    for (int t = 0; t < 6; ++t) {
      ASSERT_TRUE(
          engine.RecordBatch(key, workload::Materialize(&gen_live, 160)).ok());
      ASSERT_TRUE(
          recovered.RecordBatch(key, workload::Materialize(&gen_back, 160))
              .ok());
      engine.Flush();
      recovered.Flush();
      engine.Tick();
      recovered.Tick();
      if (kind == BackendKind::kQlove) {
        EXPECT_EQ(NormalizedExport(recovered), NormalizedExport(engine))
            << "diverged at post-recovery tick " << t;
      }
    }
    auto live_answer = test_util::GridQuery(engine, key);
    auto back_answer = test_util::GridQuery(recovered, key);
    ASSERT_TRUE(live_answer.ok());
    ASSERT_TRUE(back_answer.ok());
    EXPECT_EQ(back_answer.ValueOrDie().window_count,
              live_answer.ValueOrDie().window_count);
    ASSERT_EQ(back_answer.ValueOrDie().outcomes.size(),
              live_answer.ValueOrDie().outcomes.size());
    for (size_t q = 0; q < live_answer.ValueOrDie().outcomes.size(); ++q) {
      const double live_value = live_answer.ValueOrDie().outcomes[q].value;
      const double back_value = back_answer.ValueOrDie().outcomes[q].value;
      const double scale = std::max(std::abs(live_value), 1.0);
      EXPECT_NEAR(back_value, live_value, 0.05 * scale)
          << BackendKindName(kind) << " phi index " << q;
    }
  }
}

TEST(EngineWalTest, RecoverRequiresFreshEngine) {
  ScopedWalDir dir;
  {
    TelemetryEngine engine(TestEngineOptions());
    ASSERT_TRUE(engine.EnableWal(dir.path(), TestWalOptions()).ok());
    DriveTicks(&engine, MetricKey("rtt_us", {}), 1, 2);
    ASSERT_TRUE(engine.FlushWal().ok());
  }
  {
    TelemetryEngine engine(TestEngineOptions());
    ASSERT_TRUE(engine.EnableWal(dir.path(), TestWalOptions()).ok());
    EXPECT_EQ(engine.RecoverFromWal(dir.path()).status().code(),
              Status::Code::kFailedPrecondition);  // WAL already enabled
  }
  {
    TelemetryEngine engine(TestEngineOptions());
    engine.Tick();
    EXPECT_EQ(engine.RecoverFromWal(dir.path()).status().code(),
              Status::Code::kFailedPrecondition);  // not at epoch 0
  }
}

TEST(EngineWalTest, RecoverFromEmptyOrMissingDirIsFreshStart) {
  TelemetryEngine engine(TestEngineOptions());
  auto info = engine.RecoverFromWal("/tmp/qlove_wal_never_written_xyzzy");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().epoch, 0);
  EXPECT_EQ(info.ValueOrDie().metrics, 0);
  EXPECT_EQ(engine.TickEpochs(), 0);
}

TEST(EngineWalTest, ForeignTokenRecordIsRejectedNotFatal) {
  ScopedWalDir dir;
  TelemetryEngine engine(TestEngineOptions());
  ASSERT_TRUE(engine.EnableWal(dir.path(), TestWalOptions()).ok());
  const MetricKey key("rtt_us", {{"host", "h0"}});
  DriveTicks(&engine, key, /*seed=*/8, /*ticks=*/3);
  ASSERT_TRUE(engine.FlushWal().ok());

  // A delta frame from a DIFFERENT engine incarnation (fresh sync token),
  // hand-framed onto the tail of the segment — the shape a reused WAL
  // directory could produce. Its token cannot match the replayed state's,
  // so recovery must skip it and keep the original engine's state.
  TelemetryEngine foreign(TestEngineOptions());
  ExportCursor cursor;
  std::vector<uint8_t> frame;
  DriveTicks(&foreign, key, /*seed=*/9, /*ticks=*/1);
  ASSERT_TRUE(foreign.Export("wal", &cursor, &frame).ok());  // full
  DriveTicks(&foreign, key, /*seed=*/10, /*ticks=*/1);
  ASSERT_TRUE(foreign.Export("wal", &cursor, &frame).ok());  // delta

  auto segments = ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments.ValueOrDie().empty());
  {
    const std::string& last = segments.ValueOrDie().back();
    FILE* f = std::fopen(last.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t len = static_cast<uint32_t>(frame.size());
    const uint32_t crc = Crc32c(frame.data(), frame.size());
    uint8_t header[kWalRecordHeaderBytes];
    std::memcpy(header, &len, 4);
    std::memcpy(header + 4, &crc, 4);
    ASSERT_EQ(std::fwrite(header, 1, sizeof(header), f), sizeof(header));
    ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
    std::fclose(f);
  }

  TelemetryEngine recovered(TestEngineOptions());
  auto info = recovered.RecoverFromWal(dir.path());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().replay.records_rejected, 1);
  EXPECT_EQ(info.ValueOrDie().epoch, 3);
  EXPECT_EQ(NormalizedExport(recovered), NormalizedExport(engine));
}

// ---------------------------------------------------------------------------
// Aggregator integration
// ---------------------------------------------------------------------------

TEST(AggregatorWalTest, RecoverRestoresHeldSources) {
  ScopedWalDir dir;
  AggregatorEngine aggregator;
  WalOptions options = TestWalOptions();
  options.checkpoint_every_n_ticks = 3;
  ASSERT_TRUE(aggregator.EnableWal(dir.path(), options).ok());

  // Two agents exporting delta streams; every APPLIED frame is logged.
  TelemetryEngine agent_a(TestEngineOptions());
  TelemetryEngine agent_b(TestEngineOptions());
  ExportCursor cursor_a, cursor_b;
  const MetricKey key("rtt_us", {{"service", "netmon"}});
  workload::NetMonGenerator gen_a(41), gen_b(42);
  std::vector<uint8_t> frame;
  for (int t = 0; t < 6; ++t) {
    for (auto* pair : {&agent_a, &agent_b}) {
      workload::NetMonGenerator& gen = pair == &agent_a ? gen_a : gen_b;
      ExportCursor& cursor = pair == &agent_a ? cursor_a : cursor_b;
      const char* name = pair == &agent_a ? "host-a" : "host-b";
      ASSERT_TRUE(
          pair->RecordBatch(key, workload::Materialize(&gen, 96)).ok());
      pair->Flush();
      pair->Tick();
      ASSERT_TRUE(pair->Export(name, &cursor, &frame).ok());
      auto ack = aggregator.IngestFrame(frame);
      ASSERT_TRUE(ack.ok());
      ASSERT_TRUE(ack.ValueOrDie().applied);
    }
  }
  ASSERT_TRUE(aggregator.FlushWal().ok());
  auto health = aggregator.FleetHealth();
  EXPECT_TRUE(health.wal_enabled);
  EXPECT_FALSE(health.wal_degraded);
  EXPECT_GT(health.wal_records, 0);
  EXPECT_GT(health.wal_checkpoints, 0);

  AggregatorEngine recovered;
  auto info = recovered.RecoverFromWal(dir.path());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().sources, 2);
  EXPECT_EQ(info.ValueOrDie().fleet_epoch, aggregator.FleetEpoch());
  EXPECT_EQ(info.ValueOrDie().replay.records_rejected, 0);

  for (const char* source : {"host-a", "host-b"}) {
    auto held = aggregator.SourceSnapshot(source);
    auto replayed = recovered.SourceSnapshot(source);
    ASSERT_TRUE(held.ok());
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(EncodeSnapshotV2(replayed.ValueOrDie()),
              EncodeSnapshotV2(held.ValueOrDie()))
        << source;
  }

  auto recovered_health = recovered.FleetHealth();
  EXPECT_EQ(recovered_health.wal_recovered_sources, 2);
  EXPECT_EQ(recovered_health.wal_recovered_epoch, aggregator.FleetEpoch());
  EXPECT_FALSE(recovered_health.wal_enabled);  // recovery does not enable
}

TEST(AggregatorWalTest, RecoverRequiresFreshAggregator) {
  ScopedWalDir dir;
  AggregatorEngine aggregator;
  TelemetryEngine agent(TestEngineOptions());
  DriveTicks(&agent, MetricKey("rtt_us", {}), 1, 1);
  ASSERT_TRUE(
      aggregator.IngestFrame(test_util::FullFrame(agent, "host-a")).ok());
  EXPECT_EQ(aggregator.RecoverFromWal(dir.path()).status().code(),
            Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
