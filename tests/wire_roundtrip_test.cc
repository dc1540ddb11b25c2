// The wire format (engine/wire.h): encode -> decode -> re-encode must be
// byte-identical for every backend kind (the property the aggregator's
// replay/dedup logic and the golden fixtures rely on); truncated or
// corrupted buffers must decode — and ingest — to an error Status, never
// UB (this suite runs under the ASan/UBSan CI job); and the checked-in
// golden fixtures pin the layout so any format change shows up as an
// explicit wire version bump plus regenerated fixtures, not a silent skew.
//
// Golden fixtures live in tests/golden/ (path baked in via
// QLOVE_GOLDEN_DIR); regenerate with
//   QLOVE_REGEN_GOLDEN=1 ./qlove_tests --gtest_filter='*Golden*'
// after bumping the wire version — never to paper over an unintended
// change.

#include "engine/wire.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "export_util.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::FullFrame;
using test_util::FullSnapshot;

std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (uint8_t byte : bytes) {
    hex.push_back(digits[byte >> 4]);
    hex.push_back(digits[byte & 0xF]);
  }
  return hex;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) break;
    bytes.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return bytes;
}

BackendOptions MakeBackendOptions(BackendKind kind) {
  BackendOptions backend;
  backend.kind = kind;
  backend.epsilon = 0.0005;  // gk/cmqs: fine enough for the default p99.9
  return backend;
}

/// An agent engine holding real sketch state for \p kind: two shards, six
/// Ticks of seeded traffic.
std::unique_ptr<TelemetryEngine> AgentEngine(BackendKind kind, uint64_t seed) {
  EngineOptions options;
  options.num_shards = 2;
  options.shard_window = WindowSpec(512, 128);
  options.default_backend = MakeBackendOptions(kind);
  auto engine = std::make_unique<TelemetryEngine>(options);
  const MetricKey key("rtt_us", {{"host", "h0"}, {"service", "netmon"}});
  workload::NetMonGenerator gen(seed);
  for (int tick = 0; tick < 6; ++tick) {
    EXPECT_TRUE(
        engine->RecordBatch(key, workload::Materialize(&gen, 256)).ok());
    engine->Tick();
  }
  return engine;
}

std::string AgentSource(BackendKind kind) {
  return "agent-" + std::string(BackendKindName(kind));
}

/// The agent engine's export, decoded: what an aggregator would hold.
WireSnapshot AgentSnapshot(BackendKind kind, uint64_t seed) {
  return FullSnapshot(*AgentEngine(kind, seed), AgentSource(kind));
}

/// A hand-built snapshot with literal values only: golden bytes must not
/// depend on any sketch pipeline's floating-point history, just on the
/// wire layout itself.
WireSnapshot LiteralSnapshot(BackendKind kind) {
  WireSnapshot snapshot;
  snapshot.source = "golden-agent";
  snapshot.epoch = 7;
  snapshot.sync_token = 0x0123456789ABCDEFull;

  WireMetricSummary metric;
  metric.key = MetricKey("rtt_us", {{"dc", "eu-1"}, {"host", "h3"}});
  metric.options.shard_window = WindowSpec(1024, 256);
  metric.options.phis = {0.5, 0.9, 0.99};
  metric.options.backend = MakeBackendOptions(kind);

  BackendSummary shard;
  shard.kind = kind;
  if (kind == BackendKind::kQlove) {
    core::SubWindowSummary sub;
    sub.quantiles = {125.0, 480.5, 912.25};
    core::TailCapture tail;
    tail.topk = {{990.0, 2}, {912.25, 1}};
    tail.samples = {990.0, 950.5};
    sub.tails = {tail};
    sub.bursty = false;
    sub.count = 256;
    sub.epoch = 5;
    shard.subwindows.push_back(sub);
    sub.epoch = 6;
    sub.bursty = true;
    shard.subwindows.push_back(sub);
    shard.inflight = 3;
    shard.burst_active = true;
  } else {
    shard.entries = {{100.0, 10}, {250.5, 20}, {999.75, 2}};
    shard.count = 32;
    shard.semantics = kind == BackendKind::kExact
                          ? sketch::RankSemantics::kExact
                          : sketch::RankSemantics::kInterpolated;
    shard.rank_error = kind == BackendKind::kExact ? 0.0 : 0.005;
    shard.inflight = 1;
  }
  metric.shards = {shard, shard};
  snapshot.metrics.push_back(std::move(metric));
  return snapshot;
}

std::string GoldenPath(const std::string& name) {
  return std::string(QLOVE_GOLDEN_DIR) + "/wire_v" +
         std::to_string(kWireVersionV2) + "_" + name + ".hex";
}

/// Shared golden-fixture body: regenerate under QLOVE_REGEN_GOLDEN=1,
/// otherwise compare byte for byte and round-trip the checked-in bytes
/// through \p reencode.
void CheckGolden(const std::vector<uint8_t>& encoded, const std::string& path,
                 const std::function<std::vector<uint8_t>(
                     const std::vector<uint8_t>&)>& reencode) {
  if (std::getenv("QLOVE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << ToHex(encoded) << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (QLOVE_REGEN_GOLDEN=1 to create)";
  std::string hex;
  in >> hex;
  const std::vector<uint8_t> golden = FromHex(hex);
  EXPECT_EQ(ToHex(encoded), hex)
      << "wire layout changed: if intentional, bump the wire version and "
         "regenerate tests/golden/";
  EXPECT_EQ(reencode(golden), golden);
}

// ---------------------------------------------------------------------------
// The frames an engine ships: decode -> re-encode is byte-identical, the
// export buffer is reused, and the ingest path refuses every damaged frame
// ---------------------------------------------------------------------------

class WireRoundTripTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(WireRoundTripTest, ReencodeIsByteIdentical) {
  const std::string source = AgentSource(GetParam());
  const std::vector<uint8_t> frame =
      FullFrame(*AgentEngine(GetParam(), 42), source);

  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_FALSE(decoded.ValueOrDie().is_delta);
  const WireFrame& snapshot = decoded.ValueOrDie();
  EXPECT_EQ(snapshot.source, source);
  EXPECT_EQ(snapshot.epoch, 6);
  EXPECT_NE(snapshot.sync_token, 0u);
  ASSERT_EQ(snapshot.metrics.size(), 1u);
  EXPECT_EQ(snapshot.metrics[0].options.backend.kind, GetParam());
  // Exports are shard-coalesced: two engine shards ship as one summary.
  EXPECT_EQ(snapshot.metrics[0].shards.size(), 1u);
  EXPECT_EQ(EncodeFrame(snapshot), frame);

  // The aggregator holds exactly what was shipped.
  AggregatorEngine aggregator;
  auto ack = aggregator.IngestFrame(frame);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(ack.ValueOrDie().applied);
  auto held = aggregator.SourceSnapshot(source);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(EncodeSnapshotV2(held.ValueOrDie()), frame);
}

TEST_P(WireRoundTripTest, CallerBufferEncodeIsExactSizedAndReusable) {
  auto engine = AgentEngine(GetParam(), 43);
  const std::vector<uint8_t> reference = FullFrame(*engine, "agent-0");

  // Steady-state agent loop: re-exporting unchanged state into the same
  // buffer produces the same bytes without reallocating (same capacity,
  // same storage).
  ExportCursor cursor;
  std::vector<uint8_t> buffer;
  ASSERT_TRUE(engine->Export("agent-0", &cursor, &buffer).ok());
  EXPECT_EQ(buffer, reference);
  const size_t capacity = buffer.capacity();
  const uint8_t* storage = buffer.data();
  for (int i = 0; i < 5; ++i) {
    cursor.RequestResync();  // full frame again
    ASSERT_TRUE(engine->Export("agent-0", &cursor, &buffer).ok());
    EXPECT_EQ(buffer, reference);
  }
  EXPECT_EQ(buffer.capacity(), capacity);
  EXPECT_EQ(buffer.data(), storage);
}

// ---------------------------------------------------------------------------
// Truncation and corruption at ingest: error Status, never UB
// ---------------------------------------------------------------------------

TEST_P(WireRoundTripTest, EveryTruncationReturnsErrorStatus) {
  const std::vector<uint8_t> frame =
      FullFrame(*AgentEngine(GetParam(), 7), "agent-0");
  ASSERT_GT(frame.size(), 16u);
  AggregatorEngine aggregator;
  for (size_t length = 0; length < frame.size(); ++length) {
    auto ack = aggregator.IngestFrame(frame.data(), length);
    EXPECT_FALSE(ack.ok()) << "prefix of " << length << " bytes ingested";
  }
  EXPECT_EQ(aggregator.source_count(), 0u);
  EXPECT_EQ(aggregator.FleetHealth().decode_failures,
            static_cast<int64_t>(frame.size()));
}

TEST_P(WireRoundTripTest, ByteFlipsNeverCrashAndUsuallyFailCleanly) {
  // Flipping any single byte of a shipped frame must yield either a clean
  // error Status or an applied (possibly semantically different) frame —
  // never UB, in the decoder or in the aggregator's validation. Runs under
  // the ASan/UBSan job, where an out-of-bounds read would abort.
  std::vector<uint8_t> frame =
      FullFrame(*AgentEngine(GetParam(), 9), "agent-0");
  AggregatorEngine aggregator;
  for (size_t i = 0; i < frame.size(); ++i) {
    const uint8_t saved = frame[i];
    frame[i] = static_cast<uint8_t>(~saved);
    auto ack = aggregator.IngestFrame(frame);
    if (ack.ok() && ack.ValueOrDie().applied) {
      // A surviving flip (e.g. inside a value payload) must still
      // re-encode from held state without reading out of bounds.
      for (const auto& source : aggregator.Sources()) {
        auto held = aggregator.SourceSnapshot(source.source);
        ASSERT_TRUE(held.ok());
        EncodeSnapshotV2(held.ValueOrDie());
      }
    }
    frame[i] = saved;
  }
}

TEST(WireFormatTest, RejectsBadMagicVersionAndHostileLengths) {
  const std::vector<uint8_t> encoded =
      EncodeSnapshotV2(AgentSnapshot(BackendKind::kExact, 3));

  std::vector<uint8_t> bad_magic = encoded;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());

  std::vector<uint8_t> bad_version = encoded;
  bad_version[4] = 99;
  auto version_result = DecodeFrame(bad_version);
  ASSERT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);

  // Hostile length: patch the source-string length (the varint after
  // magic, version and flags, offset 7) to u32 max. The decoder must fail
  // on the bounds check, not attempt the allocation.
  std::vector<uint8_t> hostile = encoded;
  const uint8_t u32_max[5] = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  std::copy(u32_max, u32_max + 5, hostile.begin() + 7);
  EXPECT_FALSE(DecodeFrame(hostile).ok());

  EXPECT_FALSE(DecodeFrame(nullptr, 8).ok());
  EXPECT_FALSE(DecodeFrame(std::vector<uint8_t>{}).ok());

  // Trailing garbage after a valid snapshot is corruption, not padding.
  std::vector<uint8_t> trailing = encoded;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeFrame(trailing).ok());
}

// Regression: an encoded key carrying the same tag name twice must be
// rejected at decode. MetricKey canonicalization dedupes tag names
// (last-wins), so such a key would silently collapse to fewer tags than
// the frame declared — and its re-encode would no longer be
// byte-identical, breaking the replay/dedup invariant this whole suite
// pins. (No API path produces such a frame; this is a hostile/corrupt
// input check, exercised by byte-patching one tag name into another.)
TEST(WireFormatTest, RejectsDuplicateTagNameInEncodedKey) {
  EngineOptions options;
  options.num_shards = 1;
  TelemetryEngine engine(options);
  // Tag names "qq"/"qz" are the only places the bytes 'q','z' can appear:
  // patching "qz" -> "qq" forges a duplicate without resizing the frame.
  const MetricKey key("dup_metric", {{"qq", "aa"}, {"qz", "bb"}});
  ASSERT_TRUE(engine.RecordBatch(key, {1.0, 2.0, 3.0}).ok());
  engine.Tick();
  std::vector<uint8_t> encoded = FullFrame(engine, "agent-dup");

  size_t patched = 0;
  for (size_t i = 0; i + 1 < encoded.size(); ++i) {
    if (encoded[i] == 'q' && encoded[i + 1] == 'z') {
      encoded[i + 1] = 'q';
      ++patched;
    }
  }
  ASSERT_EQ(patched, 1u);
  auto decoded = DecodeFrame(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("duplicate tag"),
            std::string::npos)
      << decoded.status().message();
}

// ---------------------------------------------------------------------------
// Frame transport over a pipe
// ---------------------------------------------------------------------------

TEST(WireFrameTest, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<uint8_t> payload =
      FullFrame(*AgentEngine(BackendKind::kGk, 11), "agent-gk");
  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  ::close(fds[1]);

  for (int i = 0; i < 2; ++i) {
    auto frame = ReadFrame(fds[0]);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.ValueOrDie(), payload);
  }
  // Clean peer shutdown at a frame boundary is OutOfRange, not an error.
  auto eof = ReadFrame(fds[0]);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), Status::Code::kOutOfRange);
  ::close(fds[0]);
}

TEST(WireFrameTest, HostileFrameLengthIsRejected) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4GB frame
  ASSERT_EQ(::write(fds[1], huge, sizeof(huge)), 4);
  ::close(fds[1]);
  auto frame = ReadFrame(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kInvalidArgument);
  ::close(fds[0]);
}

TEST(WireFrameTest, MidFrameEofIsAnError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const uint8_t header[4] = {16, 0, 0, 0};  // promises 16 payload bytes
  ASSERT_EQ(::write(fds[1], header, sizeof(header)), 4);
  ASSERT_EQ(::write(fds[1], header, 2), 2);  // ships only 2
  ::close(fds[1]);
  auto frame = ReadFrame(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kInternal);
  ::close(fds[0]);
}

// ---------------------------------------------------------------------------
// Full frames: the codec itself
// ---------------------------------------------------------------------------

class WireV2RoundTripTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(WireV2RoundTripTest, ReencodeIsByteIdentical) {
  const WireSnapshot original = AgentSnapshot(GetParam(), 42);
  ASSERT_FALSE(original.metrics.empty());
  const std::vector<uint8_t> encoded = EncodeSnapshotV2(original);

  auto frame = DecodeFrame(encoded);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_FALSE(frame.ValueOrDie().is_delta);
  const WireFrame& snapshot = frame.ValueOrDie();
  EXPECT_EQ(snapshot.source, original.source);
  EXPECT_EQ(snapshot.epoch, original.epoch);
  ASSERT_EQ(snapshot.metrics.size(), original.metrics.size());
  for (size_t m = 0; m < snapshot.metrics.size(); ++m) {
    EXPECT_EQ(snapshot.metrics[m].key, original.metrics[m].key);
    EXPECT_EQ(snapshot.metrics[m].options.phis,
              original.metrics[m].options.phis);
    ASSERT_EQ(snapshot.metrics[m].shards.size(),
              original.metrics[m].shards.size());
    for (size_t shard = 0; shard < snapshot.metrics[m].shards.size();
         ++shard) {
      EXPECT_EQ(snapshot.metrics[m].shards[shard],
                original.metrics[m].shards[shard])
          << "shard " << shard << " summary diverged across the round trip";
    }
  }
  EXPECT_EQ(EncodeFrame(snapshot), encoded);
}

TEST_P(WireV2RoundTripTest, GoldenBytesMatchCheckedInFixture) {
  const WireSnapshot fixture = LiteralSnapshot(GetParam());
  CheckGolden(EncodeSnapshotV2(fixture),
              GoldenPath(BackendKindName(GetParam())),
              [](const std::vector<uint8_t>& golden) {
                auto frame = DecodeFrame(golden);
                EXPECT_TRUE(frame.ok()) << frame.status().ToString();
                EXPECT_FALSE(frame.ValueOrDie().is_delta);
                return EncodeFrame(frame.ValueOrDie());
              });
}

TEST_P(WireV2RoundTripTest, EveryTruncationReturnsErrorStatus) {
  const std::vector<uint8_t> encoded =
      EncodeSnapshotV2(AgentSnapshot(GetParam(), 7));
  ASSERT_GT(encoded.size(), 8u);
  for (size_t length = 0; length < encoded.size(); ++length) {
    auto frame = DecodeFrame(encoded.data(), length);
    EXPECT_FALSE(frame.ok()) << "prefix of " << length << " bytes decoded";
  }
}

TEST_P(WireV2RoundTripTest, ByteFlipsNeverCrashAndUsuallyFailCleanly) {
  // Every single-byte flip yields a clean error or a decodable frame that
  // re-encodes without reading out of bounds. Runs under the ASan/UBSan
  // job.
  std::vector<uint8_t> encoded =
      EncodeSnapshotV2(AgentSnapshot(GetParam(), 9));
  for (size_t i = 0; i < encoded.size(); ++i) {
    const uint8_t saved = encoded[i];
    encoded[i] = static_cast<uint8_t>(~saved);
    auto frame = DecodeFrame(encoded);
    if (frame.ok()) EncodeFrame(frame.ValueOrDie());
    encoded[i] = saved;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, WireV2RoundTripTest,
    ::testing::Values(BackendKind::kQlove, BackendKind::kGk,
                      BackendKind::kCmqs, BackendKind::kExact),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendKindName(info.param));
    });

// ---------------------------------------------------------------------------
// Delta frames
// ---------------------------------------------------------------------------

/// A hand-built delta: one qlove patch and one full-mode metric, literal
/// values only (same reasoning as LiteralSnapshot).
WireFrame LiteralDelta() {
  WireFrame delta;
  delta.is_delta = true;
  delta.source = "golden-agent";
  delta.epoch = 9;
  delta.base_epoch = 7;
  delta.sync_token = 0x0123456789ABCDEFull;

  WireMetricDelta patch;
  patch.key = MetricKey("rtt_us", {{"dc", "eu-1"}, {"host", "h3"}});
  patch.mode = WireDeltaMode::kQloveDelta;
  patch.first_live_epoch = 6;
  patch.count = 512;
  patch.inflight = 2;
  patch.burst_active = true;
  patch.rank_error = 0.0;
  core::SubWindowSummary sub;
  sub.quantiles = {120.0, 470.5, 900.25};
  core::TailCapture tail;
  tail.topk = {{995.0, 1}};
  tail.samples = {995.0};
  sub.tails = {tail};
  sub.bursty = false;
  sub.count = 256;
  sub.epoch = 8;
  patch.new_subwindows.push_back(sub);
  sub.epoch = 9;
  sub.bursty = true;
  patch.new_subwindows.push_back(sub);
  delta.metrics.push_back(std::move(patch));

  WireMetricDelta full;
  full.key = MetricKey("tx_bytes");
  full.mode = WireDeltaMode::kFull;
  const WireSnapshot donor = LiteralSnapshot(BackendKind::kGk);
  full.options = donor.metrics[0].options;
  full.shards = donor.metrics[0].shards;
  delta.metrics.push_back(std::move(full));
  return delta;
}

TEST(WireDeltaTest, ReencodeIsByteIdentical) {
  const WireFrame original = LiteralDelta();
  const std::vector<uint8_t> encoded = EncodeFrame(original);

  auto frame = DecodeFrame(encoded);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame.ValueOrDie().is_delta);
  const WireFrame& delta = frame.ValueOrDie();
  EXPECT_EQ(delta.source, original.source);
  EXPECT_EQ(delta.epoch, original.epoch);
  EXPECT_EQ(delta.base_epoch, original.base_epoch);
  ASSERT_EQ(delta.metrics.size(), original.metrics.size());
  EXPECT_EQ(delta.metrics[0].mode, WireDeltaMode::kQloveDelta);
  EXPECT_EQ(delta.metrics[0].first_live_epoch, 6);
  EXPECT_EQ(delta.metrics[0].count, 512);
  ASSERT_EQ(delta.metrics[0].new_subwindows.size(), 2u);
  EXPECT_EQ(delta.metrics[0].new_subwindows[0],
            original.metrics[0].new_subwindows[0]);
  EXPECT_EQ(delta.metrics[1].mode, WireDeltaMode::kFull);
  ASSERT_EQ(delta.metrics[1].shards.size(), 2u);
  EXPECT_EQ(delta.metrics[1].shards[0], original.metrics[1].shards[0]);

  EXPECT_EQ(EncodeFrame(delta), encoded);
}

TEST(WireDeltaTest, GoldenBytesMatchCheckedInFixture) {
  CheckGolden(EncodeFrame(LiteralDelta()),
              GoldenPath("delta"),
              [](const std::vector<uint8_t>& golden) {
                auto frame = DecodeFrame(golden);
                EXPECT_TRUE(frame.ok()) << frame.status().ToString();
                EXPECT_TRUE(frame.ValueOrDie().is_delta);
                return EncodeFrame(frame.ValueOrDie());
              });
}

TEST(WireDeltaTest, EveryTruncationReturnsErrorStatus) {
  const std::vector<uint8_t> encoded = EncodeFrame(LiteralDelta());
  for (size_t length = 0; length < encoded.size(); ++length) {
    EXPECT_FALSE(DecodeFrame(encoded.data(), length).ok())
        << "prefix of " << length << " bytes decoded";
  }
}

TEST(WireDeltaTest, ByteFlipsNeverCrashAndUsuallyFailCleanly) {
  std::vector<uint8_t> encoded = EncodeFrame(LiteralDelta());
  for (size_t i = 0; i < encoded.size(); ++i) {
    const uint8_t saved = encoded[i];
    encoded[i] = static_cast<uint8_t>(~saved);
    auto frame = DecodeFrame(encoded);
    if (frame.ok()) EncodeFrame(frame.ValueOrDie());
    encoded[i] = saved;
  }
}

// ---------------------------------------------------------------------------
// Versioning: only version 2 decodes
// ---------------------------------------------------------------------------

TEST(WireInteropTest, V1FramesAreRejectedThroughBothApis) {
  // A frame in the retired fixed-width layout: valid magic, version 1,
  // then length fields claiming a 4 GiB source string and 4 Gi metrics.
  // Both entry points must refuse it at the version check — before any
  // length field is read, so nothing is allocated from them (a 4 GiB
  // request would abort the ASan/UBSan job).
  std::vector<uint8_t> v1(kWireMagic, kWireMagic + sizeof(kWireMagic));
  v1.insert(v1.end(), {0x01, 0x00});              // u16 version 1
  v1.insert(v1.end(), {0xFF, 0xFF, 0xFF, 0xFF});  // u32 source length
  v1.insert(v1.end(), 8, 0x00);                   // i64 epoch
  v1.insert(v1.end(), {0xFF, 0xFF, 0xFF, 0xFF});  // u32 metric count

  auto frame = DecodeFrame(v1);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(frame.status().message().find("version 1"), std::string::npos)
      << frame.status().message();

  AggregatorEngine aggregator;
  auto ack = aggregator.IngestFrame(v1);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(aggregator.source_count(), 0u);
  EXPECT_EQ(aggregator.FleetHealth().decode_failures, 1);
}

TEST(WireInteropTest, UnknownVersionsAndFlagsAreRejected) {
  const std::vector<uint8_t> encoded =
      EncodeSnapshotV2(AgentSnapshot(BackendKind::kExact, 19));
  for (uint8_t version : {0, 1, 3, 99}) {
    std::vector<uint8_t> bad = encoded;
    bad[4] = version;
    bad[5] = 0;
    auto frame = DecodeFrame(bad);
    ASSERT_FALSE(frame.ok()) << "version " << int(version) << " decoded";
    EXPECT_NE(frame.status().message().find("version"), std::string::npos);
  }
  // Unknown flag bits are a forward-compat fence, not padding.
  std::vector<uint8_t> bad_flags = encoded;
  bad_flags[6] |= 0x80;
  EXPECT_FALSE(DecodeFrame(bad_flags).ok());
}

// ---------------------------------------------------------------------------
// Shard coalescing on export
// ---------------------------------------------------------------------------

TEST(WireCoalesceTest, CoalescedExportShedsTheShardMultiplier) {
  // An 8-shard engine's export ships one summary per metric: one
  // sub-window per Tick epoch with one quantile grid each, instead of
  // eight of each. (The tail caches cannot shrink — an 8-shard window
  // legitimately holds 8x the samples — so they ride as the union.) The
  // bench gate pins the end-to-end byte size.
  EngineOptions options;
  options.num_shards = 8;
  options.shard_window = WindowSpec(512, 128);
  options.default_backend = MakeBackendOptions(BackendKind::kQlove);
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us", {{"host", "h0"}});
  workload::NetMonGenerator gen(21);
  constexpr int kTicks = 6;
  for (int tick = 0; tick < kTicks; ++tick) {
    ASSERT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, 512)).ok());
    engine.Tick();
  }

  const std::vector<uint8_t> frame = FullFrame(engine, "a");
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const WireFrame& coalesced = decoded.ValueOrDie();
  ASSERT_EQ(coalesced.metrics.size(), 1u);
  ASSERT_EQ(coalesced.metrics[0].shards.size(), 1u);
  const BackendSummary& summary = coalesced.metrics[0].shards[0];
  ASSERT_FALSE(summary.subwindows.empty());
  EXPECT_LE(summary.subwindows.size(), static_cast<size_t>(kTicks));
  int64_t population = 0;
  for (size_t i = 0; i < summary.subwindows.size(); ++i) {
    const core::SubWindowSummary& sub = summary.subwindows[i];
    if (i > 0) {
      EXPECT_LT(summary.subwindows[i - 1].epoch, sub.epoch);
    }
    EXPECT_EQ(sub.quantiles.size(), summary.subwindows[0].quantiles.size());
    population += sub.count;
  }

  // Coalescing preserves the window population, and the frame ingests.
  auto local = engine.Query(QuerySpec::ForKey(key).With(QueryRequest::Count()));
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(population, local.ValueOrDie().window_count);
  AggregatorEngine aggregator;
  auto ack = aggregator.IngestFrame(frame);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  auto remote =
      aggregator.Query(QuerySpec::ForKey(key).With(QueryRequest::Count()));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote.ValueOrDie().window_count, population);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, WireRoundTripTest,
    ::testing::Values(BackendKind::kQlove, BackendKind::kGk,
                      BackendKind::kCmqs, BackendKind::kExact),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendKindName(info.param));
    });

}  // namespace
}  // namespace engine
}  // namespace qlove
