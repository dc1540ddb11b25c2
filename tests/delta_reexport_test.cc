// Copyright 2026 The QLOVE Reproduction Authors
// Delta re-export: an aggregator ships its pooled state to a parent tier
// through the same cursor protocol agents use (AggregatorEngine::Export).
// The invariant every case checks after every tick: what the parent holds
// for the child aggregator is byte-identical to a fresh-cursor (full)
// export of that child right now — deltas add nothing and lose nothing,
// across backends, pooled keys, stale and restarted sources, lost frames
// and NAKs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/wal.h"
#include "engine/wire.h"
#include "export_util.h"
#include "net/client.h"
#include "net/server.h"
#include "wal_util.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

using test_util::ScopedWalDir;

constexpr int64_t kPerTick = 256;

EngineOptions AgentOptions() {
  EngineOptions options;
  options.num_shards = 2;
  // Four sub-windows per window: within a dozen ticks every case sees
  // sub-windows both emitted and expired.
  options.shard_window = WindowSpec(4 * kPerTick / 2, kPerTick / 2);
  return options;
}

BackendOptions Backend(BackendKind kind) {
  BackendOptions backend;
  backend.kind = kind;
  backend.epsilon = 0.0005;
  return backend;
}

/// Records one tick's worth of values for \p key.
void Feed(TelemetryEngine* agent, const MetricKey& key,
          workload::Generator* gen) {
  ASSERT_TRUE(agent->RecordBatch(key, workload::Materialize(gen, kPerTick))
                  .ok());
}

/// Ships one agent frame to \p host; the frame must apply.
void ShipAgent(const TelemetryEngine& agent, const std::string& source,
               ExportCursor* cursor, AggregatorEngine* host) {
  std::vector<uint8_t> frame;
  ASSERT_TRUE(agent.Export(source, cursor, &frame).ok());
  auto ack = host->IngestFrame(frame);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(ack.ValueOrDie().applied) << source << " frame NAKed";
}

/// Re-exports \p child through \p cursor into \p parent; the frame must
/// apply. Returns it decoded, for mode assertions.
WireFrame ShipReexport(const AggregatorEngine& child, const std::string& source,
                       ExportCursor* cursor, AggregatorEngine* parent) {
  std::vector<uint8_t> frame;
  EXPECT_TRUE(child.Export(source, cursor, &frame).ok());
  auto ack = parent->IngestFrame(frame);
  EXPECT_TRUE(ack.ok()) << ack.status().ToString();
  if (ack.ok()) {
    EXPECT_TRUE(ack.ValueOrDie().applied) << source << " re-export NAKed";
  }
  auto decoded = DecodeFrame(frame);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? decoded.TakeValue() : WireFrame();
}

/// A fresh-cursor export of \p child: its full frame.
std::vector<uint8_t> FullReexport(const AggregatorEngine& child,
                                  const std::string& source) {
  ExportCursor fresh;
  std::vector<uint8_t> frame;
  EXPECT_TRUE(child.Export(source, &fresh, &frame).ok());
  return frame;
}

/// The invariant: \p parent's held copy of \p source is byte-identical to
/// \p child's full frame.
void ExpectConverged(const AggregatorEngine& child, const std::string& source,
                     const AggregatorEngine& parent, int tick) {
  auto held = parent.SourceSnapshot(source);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(EncodeSnapshotV2(held.ValueOrDie()), FullReexport(child, source))
      << source << " diverged from its full re-export after tick " << tick;
}

/// How \p key rides in delta \p frame; fails the test when absent.
WireDeltaMode ModeOf(const WireFrame& frame, const MetricKey& key) {
  EXPECT_TRUE(frame.is_delta);
  for (const WireMetricDelta& metric : frame.metrics) {
    if (metric.key == key) return metric.mode;
  }
  ADD_FAILURE() << key.ToString() << " missing from the delta";
  return WireDeltaMode::kFull;
}

bool Carries(const WireSnapshot& snapshot, const MetricKey& key) {
  for (const WireMetricSummary& metric : snapshot.metrics) {
    if (metric.key == key) return true;
  }
  return false;
}

TEST(DeltaReexportTest, EveryBackendConvergesTickByTick) {
  TelemetryEngine agent(AgentOptions());
  const BackendKind kinds[] = {BackendKind::kQlove, BackendKind::kGk,
                               BackendKind::kCmqs, BackendKind::kExact};
  std::vector<MetricKey> keys;
  for (BackendKind kind : kinds) {
    keys.push_back(MetricKey("rtt_us", {{"backend", BackendKindName(kind)}}));
    ASSERT_TRUE(agent.RegisterMetric(keys.back(), Backend(kind)).ok());
  }
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor agent_cursor;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(11);
  for (int tick = 0; tick < 10; ++tick) {
    for (const MetricKey& key : keys) Feed(&agent, key, &gen);
    agent.Tick();
    ShipAgent(agent, "agent-0", &agent_cursor, &host);
    const WireFrame frame = ShipReexport(host, "host", &host_cursor, &cluster);
    ExpectConverged(host, "host", cluster, tick);
    EXPECT_EQ(frame.is_delta, tick > 0);
    if (tick == 0) continue;
    for (size_t k = 0; k < keys.size(); ++k) {
      // Only qlove summaries are sub-window addressable; the entry kinds
      // ride whole inside the delta, as they do from the agent.
      EXPECT_EQ(ModeOf(frame, keys[k]), kinds[k] == BackendKind::kQlove
                                            ? WireDeltaMode::kQloveDelta
                                            : WireDeltaMode::kFull)
          << keys[k].ToString() << " at tick " << tick;
    }
  }
}

TEST(DeltaReexportTest, KeyPooledFromTwoSourcesRidesFull) {
  TelemetryEngine agents[2] = {TelemetryEngine(AgentOptions()),
                               TelemetryEngine(AgentOptions())};
  ExportCursor agent_cursors[2];
  const MetricKey shared("rtt_us", {{"service", "web"}});
  const MetricKey own[2] = {MetricKey("rtt_us", {{"host", "a"}}),
                            MetricKey("rtt_us", {{"host", "b"}})};
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(12);
  for (int tick = 0; tick < 8; ++tick) {
    for (int a = 0; a < 2; ++a) {
      Feed(&agents[a], shared, &gen);
      Feed(&agents[a], own[a], &gen);
      agents[a].Tick();
      ShipAgent(agents[a], "agent-" + std::to_string(a), &agent_cursors[a],
                &host);
    }
    const WireFrame frame = ShipReexport(host, "host", &host_cursor, &cluster);
    ExpectConverged(host, "host", cluster, tick);
    if (tick == 0) continue;
    EXPECT_EQ(ModeOf(frame, shared), WireDeltaMode::kFull);
    EXPECT_EQ(ModeOf(frame, own[0]), WireDeltaMode::kQloveDelta);
    EXPECT_EQ(ModeOf(frame, own[1]), WireDeltaMode::kQloveDelta);
  }
}

TEST(DeltaReexportTest, StaleChildIsRetiredThenReturns) {
  TelemetryEngine agents[2] = {TelemetryEngine(AgentOptions()),
                               TelemetryEngine(AgentOptions())};
  ExportCursor agent_cursors[2];
  const MetricKey keys[2] = {MetricKey("rtt_us", {{"host", "a"}}),
                             MetricKey("rtt_us", {{"host", "b"}})};
  AggregatorEngine host;  // staleness_epochs = 2
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(13);
  bool saw_retired = false;
  for (int tick = 0; tick < 14; ++tick) {
    // agent-1 keeps recording and ticking but delivers nothing for five
    // ticks: its host state goes stale, then its next delta applies.
    const bool quiet = tick >= 3 && tick < 8;
    for (int a = 0; a < 2; ++a) {
      Feed(&agents[a], keys[a], &gen);
      agents[a].Tick();
      if (a == 1 && quiet) continue;
      ShipAgent(agents[a], "agent-" + std::to_string(a), &agent_cursors[a],
                &host);
    }
    const WireFrame frame = ShipReexport(host, "host", &host_cursor, &cluster);
    ExpectConverged(host, "host", cluster, tick);
    auto held = cluster.SourceSnapshot("host");
    ASSERT_TRUE(held.ok());
    if (!Carries(held.ValueOrDie(), keys[1])) {
      saw_retired = true;
      EXPECT_TRUE(quiet) << "agent-1's key missing at tick " << tick;
    }
    if (tick == 8) {
      // agent-1 is fresh again: its key re-enters, whole.
      EXPECT_EQ(ModeOf(frame, keys[1]), WireDeltaMode::kFull);
    }
  }
  EXPECT_TRUE(saw_retired) << "agent-1 never went stale at the host";
  auto held = cluster.SourceSnapshot("host");
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(Carries(held.ValueOrDie(), keys[1]));
}

TEST(DeltaReexportTest, ChildRestartedWithoutWalRidesFull) {
  auto restarting = std::make_unique<TelemetryEngine>(AgentOptions());
  TelemetryEngine steady(AgentOptions());
  auto restarting_cursor = std::make_unique<ExportCursor>();
  ExportCursor steady_cursor;
  const MetricKey restarted_key("rtt_us", {{"host", "a"}});
  const MetricKey steady_key("rtt_us", {{"host", "b"}});
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(14);
  constexpr int kRestartTick = 6;
  for (int tick = 0; tick < 12; ++tick) {
    if (tick == kRestartTick) {
      // A new incarnation under the same source name: Tick epochs and
      // sub-window epochs begin again at 1, the sync token changes, and
      // the host holds nothing it could patch.
      restarting = std::make_unique<TelemetryEngine>(AgentOptions());
      restarting_cursor = std::make_unique<ExportCursor>();
    }
    Feed(restarting.get(), restarted_key, &gen);
    restarting->Tick();
    ShipAgent(*restarting, "agent-a", restarting_cursor.get(), &host);
    Feed(&steady, steady_key, &gen);
    steady.Tick();
    ShipAgent(steady, "agent-b", &steady_cursor, &host);

    const WireFrame frame = ShipReexport(host, "host", &host_cursor, &cluster);
    ExpectConverged(host, "host", cluster, tick);
    if (tick == 0) continue;
    // The host's own token is unchanged, so only the continuity rule
    // keeps the restarted source's epochs from being diffed against the
    // old incarnation's.
    EXPECT_EQ(ModeOf(frame, restarted_key), tick == kRestartTick
                                                ? WireDeltaMode::kFull
                                                : WireDeltaMode::kQloveDelta)
        << "tick " << tick;
    EXPECT_EQ(ModeOf(frame, steady_key), WireDeltaMode::kQloveDelta);
  }
}

TEST(DeltaReexportTest, ChildRestartedThroughRecoverFromWalRidesFull) {
  ScopedWalDir dir;
  WalOptions wal_options;
  wal_options.fsync = WalFsyncPolicy::kOs;
  EngineOptions options = AgentOptions();
  options.num_shards = 1;  // recovery restores one coalesced summary
  auto agent = std::make_unique<TelemetryEngine>(options);
  ASSERT_TRUE(agent->EnableWal(dir.path(), wal_options).ok());
  auto agent_cursor = std::make_unique<ExportCursor>();
  const MetricKey key("rtt_us", {{"host", "a"}});
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(15);
  constexpr int kRestartTick = 6;
  for (int tick = 0; tick < 12; ++tick) {
    if (tick == kRestartTick) {
      // Crash and recover: the new incarnation resumes the durable window
      // and epoch under a new sync token, so its first frame is full.
      ASSERT_TRUE(agent->FlushWal().ok());
      agent = std::make_unique<TelemetryEngine>(options);
      auto info = agent->RecoverFromWal(dir.path());
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      ASSERT_EQ(info.ValueOrDie().metrics, 1);
      ASSERT_TRUE(agent->EnableWal(dir.path(), wal_options).ok());
      agent_cursor = std::make_unique<ExportCursor>();
    }
    Feed(agent.get(), key, &gen);
    agent->Tick();
    ShipAgent(*agent, "agent-a", agent_cursor.get(), &host);
    const WireFrame frame = ShipReexport(host, "host", &host_cursor, &cluster);
    ExpectConverged(host, "host", cluster, tick);
    if (tick == 0) continue;
    EXPECT_EQ(ModeOf(frame, key), tick == kRestartTick
                                      ? WireDeltaMode::kFull
                                      : WireDeltaMode::kQloveDelta)
        << "tick " << tick;
  }
}

TEST(DeltaReexportTest, KeyHandedToAnotherSourceRidesFullUpEveryTier) {
  // agent-a reports `moving` until it goes quiet; agent-b starts reporting
  // the same key exactly when agent-a turns stale at the host. The host's
  // re-export then carries agent-b's summary under a key that never
  // vanished, and the rack above must not diff it against agent-a's
  // epochs either: the rack received it as a kFull, not as a patch.
  TelemetryEngine agent_a(AgentOptions());
  TelemetryEngine agent_b(AgentOptions());
  ExportCursor cursor_a;
  ExportCursor cursor_b;
  const MetricKey moving("rtt_us", {{"service", "web"}});
  const MetricKey anchor("rtt_us", {{"host", "b"}});
  AggregatorEngine host;
  AggregatorEngine rack;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  ExportCursor rack_cursor;
  workload::NetMonGenerator gen(16);
  // agent-a's last frame lands at fleet epoch kQuietFrom; it is stale
  // (more than staleness_epochs = 2 behind) once the fleet epoch reaches
  // kQuietFrom + 3, which agent-b's frame of tick kQuietFrom + 2 brings.
  constexpr int kQuietFrom = 4;
  constexpr int kHandover = kQuietFrom + 2;
  for (int tick = 0; tick < 12; ++tick) {
    if (tick < kQuietFrom) {
      Feed(&agent_a, moving, &gen);
      agent_a.Tick();
      ShipAgent(agent_a, "agent-a", &cursor_a, &host);
    }
    if (tick >= kHandover) Feed(&agent_b, moving, &gen);
    Feed(&agent_b, anchor, &gen);
    agent_b.Tick();
    ShipAgent(agent_b, "agent-b", &cursor_b, &host);

    const WireFrame host_frame =
        ShipReexport(host, "host", &host_cursor, &rack);
    ExpectConverged(host, "host", rack, tick);
    const WireFrame rack_frame =
        ShipReexport(rack, "rack", &rack_cursor, &cluster);
    ExpectConverged(rack, "rack", cluster, tick);
    if (tick == kHandover) {
      // The key never left the export, so both frames are deltas.
      EXPECT_EQ(ModeOf(host_frame, moving), WireDeltaMode::kFull);
      EXPECT_EQ(ModeOf(rack_frame, moving), WireDeltaMode::kFull);
    }
  }
}

TEST(DeltaReexportTest, DroppedHostFrameCostsOneNakAndOneResync) {
  AggregatorEngine cluster;
  net::ServerOptions server_options;
  server_options.auth_token = "cluster-token";
  net::AggregatorServer server(&cluster, server_options);
  ASSERT_TRUE(server.Start().ok());

  TelemetryEngine agent(AgentOptions());
  ExportCursor agent_cursor;
  AggregatorEngine host;
  net::ClientOptions client_options;
  client_options.port = server.port();
  client_options.auth_token = "cluster-token";
  client_options.source = "host";
  net::AgentClient uplink(client_options,
                          net::AgentClient::ForAggregator(&host));
  const MetricKey key("rtt_us", {{"host", "a"}});
  workload::NetMonGenerator gen(18);
  constexpr int kDropTick = 4;
  for (int tick = 0; tick < 10; ++tick) {
    Feed(&agent, key, &gen);
    agent.Tick();
    ShipAgent(agent, "agent-a", &agent_cursor, &host);
    if (tick == kDropTick) uplink.set_testing_drop_next_frame();
    ASSERT_TRUE(uplink.DeliverOnce().ok()) << "tick " << tick;
    if (tick != kDropTick) ExpectConverged(host, "host", cluster, tick);
  }
  const net::AgentClient::Counters counters = uplink.counters();
  EXPECT_EQ(counters.frames_dropped, 1);
  EXPECT_EQ(counters.naks, 1);
  // The opening full frame plus the one the NAK demanded.
  EXPECT_EQ(counters.resyncs, 2);
  EXPECT_EQ(counters.connects, 1);
  const AggregatorEngine::FleetHealthSnapshot health = cluster.FleetHealth();
  EXPECT_EQ(health.resyncs_requested, 1);
  server.Stop();
}

TEST(DeltaReexportTest, NakOnTheLastMetricLeavesHeldStateByteIdentical) {
  TelemetryEngine agent(AgentOptions());
  ExportCursor agent_cursor;
  const MetricKey keys[3] = {MetricKey("rtt_us", {{"host", "a"}}),
                             MetricKey("rtt_us", {{"host", "b"}}),
                             MetricKey("rtt_us", {{"host", "c"}})};
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(19);
  for (int tick = 0; tick < 6; ++tick) {
    for (const MetricKey& key : keys) Feed(&agent, key, &gen);
    agent.Tick();
    ShipAgent(agent, "agent-a", &agent_cursor, &host);
    ShipReexport(host, "host", &host_cursor, &cluster);
  }
  for (const MetricKey& key : keys) Feed(&agent, key, &gen);
  agent.Tick();
  ShipAgent(agent, "agent-a", &agent_cursor, &host);
  std::vector<uint8_t> frame;
  ASSERT_TRUE(host.Export("host", &host_cursor, &frame).ok());
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.ValueOrDie().is_delta);

  // Every metric but the last would patch cleanly; the last one claims a
  // "new" sub-window the cluster already holds.
  WireFrame tampered = decoded.ValueOrDie();
  WireMetricDelta& last = tampered.metrics.back();
  ASSERT_EQ(last.mode, WireDeltaMode::kQloveDelta);
  ASSERT_FALSE(last.new_subwindows.empty());
  last.new_subwindows.front().epoch -= 1;

  auto before = cluster.SourceSnapshot("host");
  ASSERT_TRUE(before.ok());
  auto ack = cluster.IngestFrame(EncodeFrame(tampered));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(ack.ValueOrDie().resync_required);
  EXPECT_FALSE(ack.ValueOrDie().applied);
  auto after = cluster.SourceSnapshot("host");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(EncodeSnapshotV2(after.ValueOrDie()),
            EncodeSnapshotV2(before.ValueOrDie()));

  // The untampered frame still applies on top of the untouched state.
  ack = cluster.IngestFrame(frame);
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.ValueOrDie().applied);
  ExpectConverged(host, "host", cluster, 7);
}

TEST(DeltaReexportTest, FleetHealthSplitsFullAndDeltaReexports) {
  TelemetryEngine agent(AgentOptions());
  ExportCursor agent_cursor;
  const MetricKey key("rtt_us", {{"host", "a"}});
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(20);
  constexpr int kTicks = 9;
  int64_t bytes = 0;
  for (int tick = 0; tick < kTicks; ++tick) {
    Feed(&agent, key, &gen);
    agent.Tick();
    ShipAgent(agent, "agent-a", &agent_cursor, &host);
    std::vector<uint8_t> frame;
    ASSERT_TRUE(host.Export("host", &host_cursor, &frame).ok());
    bytes += static_cast<int64_t>(frame.size());
    auto ack = cluster.IngestFrame(frame);
    ASSERT_TRUE(ack.ok() && ack.ValueOrDie().applied);
  }
  const AggregatorEngine::FleetHealthSnapshot health = host.FleetHealth();
  EXPECT_EQ(health.reexports, kTicks);
  EXPECT_EQ(health.delta_reexports, kTicks - 1);
  EXPECT_EQ(health.wire_bytes_reexported, bytes);
  EXPECT_GT(health.wire_bytes_delta_reexported, 0);
  EXPECT_LT(health.wire_bytes_delta_reexported, bytes);
  EXPECT_EQ(cluster.FleetHealth().delta_ingests, kTicks - 1);

  const std::string text = FormatFleetHealth(health);
  EXPECT_NE(text.find("delta_reexports=" + std::to_string(kTicks - 1)),
            std::string::npos)
      << text;
  const std::string json = FleetHealthToJson(health);
  EXPECT_NE(json.find("\"delta_reexports\": " + std::to_string(kTicks - 1)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wire_bytes_delta_reexported\": " +
                      std::to_string(health.wire_bytes_delta_reexported)),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// ApplyFrame's merge walk over the frame's and the held key lists
// ---------------------------------------------------------------------------

/// A host holding \p keys from agent-a after a few ticks, and that agent's
/// next frame (a delta) not yet ingested.
struct HeldAndNext {
  std::unique_ptr<TelemetryEngine> agent;
  ExportCursor cursor;
  AggregatorEngine host;
  WireFrame next;
  std::vector<uint8_t> next_frame;
};

void HoldThenExportDelta(const std::vector<MetricKey>& keys, HeldAndNext* out) {
  out->agent = std::make_unique<TelemetryEngine>(AgentOptions());
  workload::NetMonGenerator gen(21);
  for (int tick = 0; tick < 5; ++tick) {
    for (const MetricKey& key : keys) Feed(out->agent.get(), key, &gen);
    out->agent->Tick();
    ShipAgent(*out->agent, "agent-a", &out->cursor, &out->host);
  }
  for (const MetricKey& key : keys) Feed(out->agent.get(), key, &gen);
  out->agent->Tick();
  ASSERT_TRUE(
      out->agent->Export("agent-a", &out->cursor, &out->next_frame).ok());
  auto decoded = DecodeFrame(out->next_frame);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.ValueOrDie().is_delta);
  out->next = decoded.TakeValue();
}

/// Ingests \p tampered, which must NAK without touching \p host's held
/// state.
void ExpectNakLeavesHeldState(AggregatorEngine* host,
                              const WireFrame& tampered) {
  auto before = host->SourceSnapshot("agent-a");
  ASSERT_TRUE(before.ok());
  auto ack = host->IngestFrame(EncodeFrame(tampered));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(ack.ValueOrDie().resync_required);
  EXPECT_FALSE(ack.ValueOrDie().applied);
  auto after = host->SourceSnapshot("agent-a");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(EncodeSnapshotV2(after.ValueOrDie()),
            EncodeSnapshotV2(before.ValueOrDie()));
}

TEST(ApplyDeltaTest, HeldKeyTheDeltaOmitsIsDropped) {
  const std::vector<MetricKey> keys = {MetricKey("rtt_us", {{"host", "a"}}),
                                       MetricKey("rtt_us", {{"host", "b"}}),
                                       MetricKey("rtt_us", {{"host", "c"}})};
  HeldAndNext state;
  HoldThenExportDelta(keys, &state);
  // A second host holding the same state and fed the untampered frame
  // gives the expected patches of the keys that stay.
  AggregatorEngine reference;
  auto held = state.host.SourceSnapshot("agent-a");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(reference.IngestFrame(EncodeSnapshotV2(held.ValueOrDie())).ok());
  ASSERT_TRUE(reference.IngestFrame(state.next_frame).ValueOrDie().applied);

  WireFrame tampered = state.next;
  ASSERT_EQ(tampered.metrics.size(), 3u);
  tampered.metrics.erase(tampered.metrics.begin() + 1);
  auto ack = state.host.IngestFrame(EncodeFrame(tampered));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(ack.ValueOrDie().applied);

  auto patched = state.host.SourceSnapshot("agent-a");
  auto expected = reference.SourceSnapshot("agent-a");
  ASSERT_TRUE(patched.ok() && expected.ok());
  WireSnapshot want = expected.ValueOrDie();
  ASSERT_EQ(want.metrics.size(), 3u);
  want.metrics.erase(want.metrics.begin() + 1);
  EXPECT_EQ(EncodeSnapshotV2(patched.ValueOrDie()), EncodeSnapshotV2(want));
  EXPECT_FALSE(Carries(patched.ValueOrDie(), keys[1]));
  // Dropped and counted, as a full frame omitting the key would be.
  EXPECT_EQ(state.host.FleetHealth().metrics_retired, 1);
}

TEST(ApplyDeltaTest, PatchOfAKeyBetweenHeldKeysNaks) {
  const std::vector<MetricKey> keys = {MetricKey("rtt_us", {{"host", "a"}}),
                                       MetricKey("rtt_us", {{"host", "c"}})};
  HeldAndNext state;
  HoldThenExportDelta(keys, &state);
  ASSERT_EQ(state.next.metrics.size(), 2u);
  ASSERT_EQ(state.next.metrics[0].mode, WireDeltaMode::kQloveDelta);
  // Patches aimed before, between and after the held keys: none is held.
  const MetricKey strays[] = {MetricKey("rtt_us", {{"host", "0"}}),
                              MetricKey("rtt_us", {{"host", "b"}}),
                              MetricKey("rtt_us", {{"host", "d"}})};
  for (const MetricKey& stray : strays) {
    SCOPED_TRACE(stray.ToString());
    WireFrame tampered = state.next;
    WireMetricDelta extra = tampered.metrics[0];
    extra.key = stray;
    tampered.metrics.push_back(extra);
    std::sort(tampered.metrics.begin(), tampered.metrics.end(),
              [](const WireMetricDelta& a, const WireMetricDelta& b) {
                return a.key < b.key;
              });
    ExpectNakLeavesHeldState(&state.host, tampered);
  }
  // The untampered frame still applies on top of the untouched state.
  auto ack = state.host.IngestFrame(state.next_frame);
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.ValueOrDie().applied);
}

TEST(ApplyDeltaTest, FullMetricInsideADeltaIsRestampedAndRidesFullUp) {
  const MetricKey replaced("rtt_us", {{"host", "a"}});
  const MetricKey patched("rtt_us", {{"host", "b"}});
  TelemetryEngine agent(AgentOptions());
  ExportCursor agent_cursor;
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  workload::NetMonGenerator gen(22);
  for (int tick = 0; tick < 5; ++tick) {
    Feed(&agent, replaced, &gen);
    Feed(&agent, patched, &gen);
    agent.Tick();
    ShipAgent(agent, "agent-a", &agent_cursor, &host);
    ShipReexport(host, "host", &host_cursor, &cluster);
  }
  Feed(&agent, replaced, &gen);
  Feed(&agent, patched, &gen);
  agent.Tick();
  std::vector<uint8_t> frame;
  ASSERT_TRUE(agent.Export("agent-a", &agent_cursor, &frame).ok());
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok() && decoded.ValueOrDie().is_delta);
  // The same window, shipped whole: `replaced` rides kFull inside the
  // delta, as it does after an agent-side replacement.
  const WireSnapshot whole = test_util::FullSnapshot(agent, "agent-a");
  WireFrame delta = decoded.TakeValue();
  ASSERT_EQ(delta.metrics.size(), 2u);
  ASSERT_EQ(delta.metrics[0].key, replaced);
  delta.metrics[0].mode = WireDeltaMode::kFull;
  delta.metrics[0].options = whole.metrics[0].options;
  delta.metrics[0].shards = whole.metrics[0].shards;
  delta.metrics[0].new_subwindows.clear();
  auto ack = host.IngestFrame(EncodeFrame(delta));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(ack.ValueOrDie().applied);

  // Same bytes held, but a new lineage: one tier up the key rides kFull,
  // while its neighbour keeps patching.
  const WireFrame up = ShipReexport(host, "host", &host_cursor, &cluster);
  EXPECT_EQ(ModeOf(up, replaced), WireDeltaMode::kFull);
  EXPECT_EQ(ModeOf(up, patched), WireDeltaMode::kQloveDelta);
  ExpectConverged(host, "host", cluster, 6);

  // Afterwards the replaced key patches again at both tiers.
  Feed(&agent, replaced, &gen);
  Feed(&agent, patched, &gen);
  agent.Tick();
  ShipAgent(agent, "agent-a", &agent_cursor, &host);
  const WireFrame next = ShipReexport(host, "host", &host_cursor, &cluster);
  EXPECT_EQ(ModeOf(next, replaced), WireDeltaMode::kQloveDelta);
  ExpectConverged(host, "host", cluster, 7);
}

/// \p frame with the sender's random sync token zeroed, re-encoded: two
/// aggregators' re-exports compare byte for byte.
std::vector<uint8_t> WithoutToken(const std::vector<uint8_t>& frame) {
  auto decoded = DecodeFrame(frame);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return {};
  decoded.ValueOrDie().sync_token = 0;
  return EncodeFrame(decoded.ValueOrDie());
}

TEST(ApplyDeltaTest, FullFrameIsADeltaWhoseEveryMetricRidesFull) {
  // Two hosts hold the same source; one takes the agent's next full
  // frame, the other a delta at the same epoch carrying the same metrics,
  // every one kFull. Both must end up holding the same bytes and
  // re-export the same next frame.
  TelemetryEngine agent(AgentOptions());
  const BackendKind kinds[] = {BackendKind::kQlove, BackendKind::kGk,
                               BackendKind::kExact};
  std::vector<MetricKey> keys;
  for (BackendKind kind : kinds) {
    keys.push_back(MetricKey("rtt_us", {{"backend", BackendKindName(kind)}}));
    ASSERT_TRUE(agent.RegisterMetric(keys.back(), Backend(kind)).ok());
  }
  ExportCursor agent_cursor;
  AggregatorEngine hosts[2];
  AggregatorEngine clusters[2];
  ExportCursor host_cursors[2];
  workload::NetMonGenerator gen(23);
  for (int tick = 0; tick < 5; ++tick) {
    for (const MetricKey& key : keys) Feed(&agent, key, &gen);
    agent.Tick();
    std::vector<uint8_t> frame;
    ASSERT_TRUE(agent.Export("agent-a", &agent_cursor, &frame).ok());
    for (int h = 0; h < 2; ++h) {
      auto ack = hosts[h].IngestFrame(frame);
      ASSERT_TRUE(ack.ok() && ack.ValueOrDie().applied);
      ShipReexport(hosts[h], "host", &host_cursors[h], &clusters[h]);
    }
  }
  for (const MetricKey& key : keys) Feed(&agent, key, &gen);
  agent.Tick();
  const std::vector<uint8_t> full = test_util::FullFrame(agent, "agent-a");
  auto decoded = DecodeFrame(full);
  ASSERT_TRUE(decoded.ok() && !decoded.ValueOrDie().is_delta);
  WireFrame all_full = decoded.TakeValue();
  all_full.is_delta = true;
  all_full.base_epoch = hosts[1].SourceSnapshot("agent-a").ValueOrDie().epoch;
  ASSERT_EQ(all_full.metrics.size(), keys.size());
  for (const WireMetricDelta& metric : all_full.metrics) {
    ASSERT_EQ(metric.mode, WireDeltaMode::kFull);
  }

  auto ack = hosts[0].IngestFrame(full);
  ASSERT_TRUE(ack.ok() && ack.ValueOrDie().applied);
  ack = hosts[1].IngestFrame(EncodeFrame(all_full));
  ASSERT_TRUE(ack.ok() && ack.ValueOrDie().applied);
  // Ticks 1-4 arrived as deltas; the all-kFull frame counts as one too.
  EXPECT_EQ(hosts[1].FleetHealth().delta_ingests, 5);
  auto held_full = hosts[0].SourceSnapshot("agent-a");
  auto held_delta = hosts[1].SourceSnapshot("agent-a");
  ASSERT_TRUE(held_full.ok() && held_delta.ok());
  EXPECT_EQ(EncodeSnapshotV2(held_delta.ValueOrDie()),
            EncodeSnapshotV2(held_full.ValueOrDie()));

  std::vector<uint8_t> reexports[2];
  for (int h = 0; h < 2; ++h) {
    ASSERT_TRUE(
        hosts[h].Export("host", &host_cursors[h], &reexports[h]).ok());
    auto up = clusters[h].IngestFrame(reexports[h]);
    ASSERT_TRUE(up.ok() && up.ValueOrDie().applied);
    ExpectConverged(hosts[h], "host", clusters[h], 6);
  }
  EXPECT_EQ(WithoutToken(reexports[1]), WithoutToken(reexports[0]));
  // Both replaced every summary: each key rides kFull one tier up.
  auto up = DecodeFrame(reexports[1]);
  ASSERT_TRUE(up.ok());
  for (const MetricKey& key : keys) {
    EXPECT_EQ(ModeOf(up.ValueOrDie(), key), WireDeltaMode::kFull)
        << key.ToString();
  }
}

TEST(ExportRaceTest, AggregatorExportRacesIngestAndQuery) {
  // Export reads the held summaries in place, under mu_, while ingest
  // patches and swaps them and queries pool them: under TSan every one of
  // those accesses must be ordered by that mutex. Afterwards the parent,
  // fed every re-export the race produced, holds exactly a full
  // re-export.
  TelemetryEngine agents[2] = {TelemetryEngine(AgentOptions()),
                               TelemetryEngine(AgentOptions())};
  ExportCursor agent_cursors[2];
  const MetricKey shared("rtt_us", {{"service", "web"}});
  const MetricKey own[2] = {MetricKey("rtt_us", {{"host", "a"}}),
                            MetricKey("rtt_us", {{"host", "b"}})};
  AggregatorEngine host;
  AggregatorEngine cluster;
  ExportCursor host_cursor;
  // The ticks start only after the first re-export, so the ingest thread
  // cannot finish before the export loop below has run: the race runs
  // every time.
  std::atomic<bool> exporting{false};
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    while (!exporting.load()) std::this_thread::yield();
    workload::NetMonGenerator gen(21);
    for (int tick = 0; tick < 12; ++tick) {
      for (int a = 0; a < 2; ++a) {
        Feed(&agents[a], shared, &gen);
        Feed(&agents[a], own[a], &gen);
        agents[a].Tick();
        ShipAgent(agents[a], "agent-" + std::to_string(a), &agent_cursors[a],
                  &host);
      }
    }
    done.store(true);
  });
  std::thread query([&] {
    const QuerySpec spec = QuerySpec::ForSelector({"rtt_us", {}})
                               .With(QueryRequest::Quantile(0.99))
                               .With(QueryRequest::Count());
    while (!done.load()) {
      auto result = host.Query(spec);
      // NotFound only until the first frame lands.
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
      }
    }
  });
  int exports = 0;
  std::vector<uint8_t> frame;
  while (!done.load()) {
    // A failure ends the loop, never the test: both threads must be joined.
    const Status exported = host.Export("host", &host_cursor, &frame);
    EXPECT_TRUE(exported.ok()) << exported.ToString();
    if (!exported.ok()) break;
    auto ack = cluster.IngestFrame(frame);
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    if (!ack.ok()) break;
    if (!ack.ValueOrDie().applied) host_cursor.RequestResync();
    ++exports;
    exporting.store(true);
  }
  exporting.store(true);  // also after a failed first export
  ingest.join();
  query.join();
  ShipReexport(host, "host", &host_cursor, &cluster);
  ExpectConverged(host, "host", cluster, /*tick=*/12);
  EXPECT_GT(exports, 0);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
