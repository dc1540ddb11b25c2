// Copyright 2026 The QLOVE Reproduction Authors
// The frame writer behind every export (engine/wire.h FrameWriter, driven
// by ExportCursor): an aggregator re-export sequence — a full frame, a
// delta with a key pooled across two sources, a lineage change that rides
// kFull, and a vanished key that forces a full frame — must reproduce the
// checked-in bytes exactly. The aggregator's sync token is random per
// incarnation, so its eight bytes are zeroed before the comparison; every
// other byte is pinned.
//
// Fixtures live in tests/golden/reexport_v2_*.hex; regenerate with
//   QLOVE_REGEN_GOLDEN=1 ./qlove_tests --gtest_filter='FrameWriterTest.*'
// only after an intended wire-format change.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/wire.h"

namespace qlove {
namespace engine {
namespace {

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

/// Compares \p frame (sync token zeroed) with tests/golden/<name>.hex, or
/// rewrites the fixture under QLOVE_REGEN_GOLDEN=1.
void CheckReexportGolden(std::vector<uint8_t> frame, const std::string& source,
                         const std::string& name) {
  // Header (magic, version, flags) is 7 bytes, then the source string (a
  // one-byte length for these short names), then the 8-byte token.
  const size_t token_at = 7 + 1 + source.size();
  ASSERT_GE(frame.size(), token_at + 8);
  for (size_t i = 0; i < 8; ++i) frame[token_at + i] = 0;
  const std::string path = std::string(QLOVE_GOLDEN_DIR) + "/" + name + ".hex";
  if (std::getenv("QLOVE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << ToHex(frame) << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path;
  std::string hex;
  in >> hex;
  EXPECT_EQ(ToHex(frame), hex) << name << ": re-export bytes changed";
}

MetricOptions QloveOptions() {
  MetricOptions options;
  options.shard_window = WindowSpec(1024, 256);
  options.phis = {0.5, 0.9, 0.99};
  options.backend.kind = BackendKind::kQlove;
  return options;
}

MetricOptions ExactOptions() {
  MetricOptions options = QloveOptions();
  options.backend.kind = BackendKind::kExact;
  return options;
}

/// A literal sub-window: values depend only on \p epoch and \p scale.
core::SubWindowSummary Sub(int64_t epoch, double scale) {
  core::SubWindowSummary sub;
  sub.epoch = epoch;
  sub.count = 200 + epoch;
  sub.bursty = epoch % 2 == 0;
  sub.quantiles = {125.0 * scale, 480.5 * scale, 912.25 * scale};
  core::TailCapture tail;
  tail.topk = {{990.0 * scale, 2}, {912.25 * scale, 1}};
  tail.samples = {990.0 * scale, 950.5 * scale};
  sub.tails = {tail};
  return sub;
}

BackendSummary Qlove(int64_t first_epoch, int64_t last_epoch, double scale) {
  BackendSummary summary;
  summary.kind = BackendKind::kQlove;
  for (int64_t e = first_epoch; e <= last_epoch; ++e) {
    summary.subwindows.push_back(Sub(e, scale));
    summary.count += summary.subwindows.back().count;
  }
  summary.inflight = last_epoch;
  summary.burst_active = last_epoch % 2 == 0;
  return summary;
}

BackendSummary Exact(double shift) {
  BackendSummary summary;
  summary.kind = BackendKind::kExact;
  summary.semantics = sketch::RankSemantics::kExact;
  summary.entries = {{4.0 + shift, 10}, {17.0 + shift, 3}, {250.5, 1}};
  summary.count = 14;
  summary.inflight = 2;
  return summary;
}

WireMetricSummary Metric(const MetricKey& key, const MetricOptions& options,
                         BackendSummary summary) {
  WireMetricSummary metric;
  metric.key = key;
  metric.options = options;
  metric.shards.push_back(std::move(summary));
  return metric;
}

WireMetricDelta Patch(const MetricKey& key, int64_t first_live,
                      core::SubWindowSummary fresh) {
  WireMetricDelta metric;
  metric.key = key;
  metric.mode = WireDeltaMode::kQloveDelta;
  metric.first_live_epoch = first_live;
  metric.count = 1000 + fresh.epoch;
  metric.inflight = fresh.epoch;
  metric.burst_active = fresh.bursty;
  metric.new_subwindows.push_back(std::move(fresh));
  return metric;
}

void Apply(AggregatorEngine* aggregator, const std::vector<uint8_t>& frame) {
  auto ack = aggregator->IngestFrame(frame);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(ack.ValueOrDie().applied);
}

TEST(FrameWriterTest, ReexportSequenceMatchesPinnedBytes) {
  // Canonical key order: '_' sorts before lowercase, "host" before
  // "service".
  const MetricKey self_key("__qlove/stage_us", {{"stage", "tick"}});
  const MetricKey exact_key("queue_depth", {{"host", "b"}});
  const MetricKey only_a("rtt_us", {{"host", "a"}});
  const MetricKey shared("rtt_us", {{"service", "shared"}});
  constexpr uint64_t kTokenA = 0xA1A1A1A1A1A1A1A1ull;
  constexpr uint64_t kTokenB = 0xB2B2B2B2B2B2B2B2ull;

  AggregatorEngine host;
  ExportCursor cursor;
  std::vector<uint8_t> frame;
  // Re-exports through the cursor; for a delta, \p modes lists how each
  // key rides, in key order.
  auto reexport = [&](bool want_delta, const std::string& golden,
                      const std::vector<WireDeltaMode>& modes = {}) {
    ASSERT_TRUE(host.Export("host", &cursor, &frame).ok());
    auto decoded = DecodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const WireFrame& got = decoded.ValueOrDie();
    EXPECT_EQ(got.is_delta, want_delta) << golden;
    if (want_delta) {
      ASSERT_EQ(got.metrics.size(), modes.size()) << golden;
      for (size_t i = 0; i < modes.size(); ++i) {
        EXPECT_EQ(got.metrics[i].mode, modes[i])
            << golden << ": " << got.metrics[i].key.ToString();
      }
    }
    CheckReexportGolden(frame, "host", golden);
  };
  constexpr WireDeltaMode kFull = WireDeltaMode::kFull;
  constexpr WireDeltaMode kPatch = WireDeltaMode::kQloveDelta;

  // 1. Both sources' full frames: the first re-export is a full frame.
  // The `__qlove/` self-metric B holds stays out of it.
  WireSnapshot a;
  a.source = "agent-a";
  a.sync_token = kTokenA;
  a.epoch = 2;
  a.metrics.push_back(Metric(only_a, QloveOptions(), Qlove(1, 2, 1.0)));
  a.metrics.push_back(Metric(shared, QloveOptions(), Qlove(1, 2, 2.0)));
  Apply(&host, EncodeSnapshotV2(a));
  WireSnapshot b;
  b.source = "agent-b";
  b.sync_token = kTokenB;
  b.epoch = 2;
  b.metrics.push_back(Metric(self_key, QloveOptions(), Qlove(2, 2, 0.5)));
  b.metrics.push_back(Metric(exact_key, ExactOptions(), Exact(0.0)));
  b.metrics.push_back(Metric(shared, QloveOptions(), Qlove(1, 2, 3.0)));
  Apply(&host, EncodeSnapshotV2(b));
  reexport(/*want_delta=*/false, "reexport_v2_full");

  // 2. Deltas from both: `only_a` patches (kQloveDelta), `shared` is
  // pooled across two sources and the exact key is not epoch-addressable
  // (both kFull).
  WireFrame da;
  da.is_delta = true;
  da.source = "agent-a";
  da.sync_token = kTokenA;
  da.epoch = 3;
  da.base_epoch = 2;
  da.metrics.push_back(Patch(only_a, 2, Sub(3, 1.0)));
  da.metrics.push_back(Patch(shared, 2, Sub(3, 2.0)));
  Apply(&host, EncodeFrame(da));
  WireFrame db;
  db.is_delta = true;
  db.source = "agent-b";
  db.sync_token = kTokenB;
  db.epoch = 3;
  db.base_epoch = 2;
  db.metrics.push_back(Patch(self_key, 3, Sub(3, 0.5)));
  WireMetricDelta exact_full;
  exact_full.key = exact_key;
  exact_full.mode = WireDeltaMode::kFull;
  exact_full.options = ExactOptions();
  exact_full.shards.push_back(Exact(1.0));
  db.metrics.push_back(exact_full);
  db.metrics.push_back(Patch(shared, 3, Sub(3, 3.0)));
  Apply(&host, EncodeFrame(db));
  reexport(/*want_delta=*/true, "reexport_v2_delta_pooled",
           {kFull, kPatch, kFull});

  // 3. A resyncs with a full frame: its summaries are replaced, not
  // patched, so `only_a` rides kFull even though it is single-source.
  a.epoch = 4;
  a.metrics.clear();
  a.metrics.push_back(Metric(only_a, QloveOptions(), Qlove(2, 4, 1.0)));
  a.metrics.push_back(Metric(shared, QloveOptions(), Qlove(2, 4, 2.0)));
  Apply(&host, EncodeSnapshotV2(a));
  db.epoch = 4;
  db.base_epoch = 3;
  db.metrics.clear();
  db.metrics.push_back(Patch(self_key, 4, Sub(4, 0.5)));
  exact_full.shards[0] = Exact(2.0);
  db.metrics.push_back(exact_full);
  db.metrics.push_back(Patch(shared, 3, Sub(4, 3.0)));
  Apply(&host, EncodeFrame(db));
  reexport(/*want_delta=*/true, "reexport_v2_lineage", {kFull, kFull, kFull});

  // 4. B's full frame drops the exact key: the re-export must retire it,
  // which only a full frame can do.
  b.epoch = 5;
  b.metrics.clear();
  b.metrics.push_back(Metric(self_key, QloveOptions(), Qlove(4, 5, 0.5)));
  b.metrics.push_back(Metric(shared, QloveOptions(), Qlove(3, 5, 3.0)));
  Apply(&host, EncodeSnapshotV2(b));
  reexport(/*want_delta=*/false, "reexport_v2_vanished");
}

}  // namespace
}  // namespace engine
}  // namespace qlove
