// Copyright 2026 The QLOVE Reproduction Authors
// Loopback torture for the fleet transport (src/net/): the incremental
// FrameReader under adversarial byte arrival, the QLNC control codec,
// authentication rejection paths, kill -> reconnect -> resync settling
// bit-identical to a reference aggregator that never lost a frame,
// backpressure stall/drain with frames parked in the reader, and a real
// three-tier agent -> host -> cluster chain answering within the
// documented bounds of an in-process union-stream oracle.
//
// Everything runs over 127.0.0.1 on kernel-assigned ephemeral ports; the
// raw-socket tests speak the protocol by hand (engine/wire.h blocking
// WriteFrame/ReadFrame + net/protocol.h codec) so the server is exercised
// against a client implementation it does not share code with.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "engine/wire.h"
#include "export_util.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "rank_error.h"

namespace qlove {
namespace net {
namespace {

using engine::AggregatorEngine;
using engine::BackendKind;
using engine::BackendOptions;
using engine::EngineOptions;
using engine::ExportOptions;
using engine::FrameReader;
using engine::MetricKey;
using engine::QueryRequest;
using engine::QuerySpec;
using engine::TelemetryEngine;
using engine::WireSnapshot;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::vector<uint8_t> Framed(const std::vector<uint8_t>& payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::vector<uint8_t> out;
  out.reserve(4 + payload.size());
  out.push_back(n & 0xff);
  out.push_back((n >> 8) & 0xff);
  out.push_back((n >> 16) & 0xff);
  out.push_back((n >> 24) & 0xff);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Blocking loopback dial; rcvbuf > 0 shrinks SO_RCVBUF before connect so
/// the kernel cannot absorb an unbounded ack backlog on our behalf.
int DialBlocking(uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// HELLO exchange over a raw blocking socket; returns true on HELLO_OK.
bool RawHello(int fd, const std::string& token, const std::string& source) {
  ControlFrame hello;
  hello.type = ControlType::kHello;
  hello.token = token;
  hello.source = source;
  std::vector<uint8_t> payload;
  EncodeControlFrame(hello, &payload);
  if (!engine::WriteFrame(fd, payload).ok()) return false;
  auto reply = engine::ReadFrame(fd);
  if (!reply.ok()) return false;
  auto decoded = DecodeControlFrame(reply.ValueOrDie());
  return decoded.ok() &&
         decoded.ValueOrDie().type == ControlType::kHelloOk;
}

/// Spins until \p pred holds or ~5 s elapse.
bool PollUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// FrameReader: adversarial byte arrival
// ---------------------------------------------------------------------------

TEST(NetFrameReaderTest, ByteAtATimeTrickle) {
  const std::vector<std::vector<uint8_t>> payloads = {
      {0x01}, {}, {0xde, 0xad, 0xbe, 0xef}, std::vector<uint8_t>(300, 0x42)};
  std::vector<uint8_t> stream;
  for (const auto& p : payloads) {
    const auto framed = Framed(p);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }

  FrameReader reader;
  std::vector<std::vector<uint8_t>> popped;
  std::vector<uint8_t> frame;
  for (const uint8_t byte : stream) {
    ASSERT_TRUE(reader.Append(&byte, 1).ok());
    while (reader.PopFrame(&frame)) popped.push_back(frame);
  }
  EXPECT_EQ(popped, payloads);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  // Nothing in flight: the reader wants a fresh header next.
  EXPECT_EQ(reader.NextReadSize(), 4u);
}

TEST(NetFrameReaderTest, ManyFramesInOneAppend) {
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> stream;
  for (int i = 0; i < 64; ++i) {
    payloads.push_back(std::vector<uint8_t>(i, static_cast<uint8_t>(i)));
    const auto framed = Framed(payloads.back());
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  // Plus a trailing partial header to prove it stays buffered.
  stream.push_back(0x05);
  stream.push_back(0x00);

  FrameReader reader;
  ASSERT_TRUE(reader.Append(stream.data(), stream.size()).ok());
  std::vector<uint8_t> frame;
  for (const auto& expected : payloads) {
    ASSERT_TRUE(reader.PopFrame(&frame));
    EXPECT_EQ(frame, expected);
  }
  EXPECT_FALSE(reader.PopFrame(&frame));
  EXPECT_EQ(reader.buffered_bytes(), 2u);
  EXPECT_EQ(reader.NextReadSize(), 2u);  // the rest of the header
}

TEST(NetFrameReaderTest, HostileLengthPoisonsTheStream) {
  FrameReader reader(/*max_frame_bytes=*/1024);
  // 4 GB length prefix: must be rejected from the header alone, before
  // any payload allocation, and the stream must stay poisoned.
  const uint8_t hostile[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(reader.Append(hostile, sizeof(hostile)).ok());
  const auto good = Framed({0x01, 0x02});
  EXPECT_FALSE(reader.Append(good.data(), good.size()).ok());
  std::vector<uint8_t> frame;
  EXPECT_FALSE(reader.PopFrame(&frame));
}

// ---------------------------------------------------------------------------
// QLNC control codec
// ---------------------------------------------------------------------------

TEST(NetProtocolTest, ControlFramesRoundTrip) {
  ControlFrame hello;
  hello.type = ControlType::kHello;
  hello.token = "secret-token";
  hello.source = "host-7";
  ControlFrame ack;
  ack.type = ControlType::kAck;
  ack.seq = 41;
  ack.applied = true;
  ack.resync_required = true;
  ack.error = true;
  ack.acked_epoch = 123456789;
  ControlFrame reject;
  reject.type = ControlType::kHelloReject;
  reject.reason = "bad auth token";

  for (const ControlFrame& original : {hello, ack, reject}) {
    std::vector<uint8_t> bytes;
    EncodeControlFrame(original, &bytes);
    EXPECT_EQ(ClassifyFrame(bytes), FrameClass::kControl);
    auto decoded = DecodeControlFrame(bytes);
    ASSERT_TRUE(decoded.ok());
    const ControlFrame& got = decoded.ValueOrDie();
    EXPECT_EQ(got.type, original.type);
    EXPECT_EQ(got.version, original.version);
    EXPECT_EQ(got.token, original.token);
    EXPECT_EQ(got.source, original.source);
    EXPECT_EQ(got.reason, original.reason);
    EXPECT_EQ(got.seq, original.seq);
    EXPECT_EQ(got.applied, original.applied);
    EXPECT_EQ(got.resync_required, original.resync_required);
    EXPECT_EQ(got.error, original.error);
    EXPECT_EQ(got.acked_epoch, original.acked_epoch);
  }
}

TEST(NetProtocolTest, TruncationAndTrailingBytesRejected) {
  ControlFrame hello;
  hello.type = ControlType::kHello;
  hello.token = "t";
  hello.source = "s";
  std::vector<uint8_t> bytes;
  EncodeControlFrame(hello, &bytes);

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeControlFrame(bytes.data(), cut).ok())
        << "accepted a control frame truncated to " << cut << " bytes";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeControlFrame(padded).ok());
}

TEST(NetProtocolTest, ClassificationByLeadingMagic) {
  TelemetryEngine engine;
  ASSERT_TRUE(engine.RegisterMetric(MetricKey("m")).ok());
  const std::vector<uint8_t> data = test_util::FullFrame(engine, "src");
  EXPECT_EQ(ClassifyFrame(data), FrameClass::kData);

  ControlFrame ack;
  ack.type = ControlType::kAck;
  std::vector<uint8_t> control;
  EncodeControlFrame(ack, &control);
  EXPECT_EQ(ClassifyFrame(control), FrameClass::kControl);

  const std::vector<uint8_t> junk = {'H', 'T', 'T', 'P', '/', '1'};
  EXPECT_EQ(ClassifyFrame(junk), FrameClass::kUnknown);
  EXPECT_EQ(ClassifyFrame(std::vector<uint8_t>{'Q', 'L'}),
            FrameClass::kUnknown);
}

// ---------------------------------------------------------------------------
// Authentication
// ---------------------------------------------------------------------------

TEST(NetAuthTest, WrongTokenIsTerminalAndCounted) {
  AggregatorEngine aggregator;
  ServerOptions server_options;
  server_options.auth_token = "right-token";
  AggregatorServer server(&aggregator, server_options);
  ASSERT_TRUE(server.Start().ok());

  TelemetryEngine engine;
  ASSERT_TRUE(engine.RegisterMetric(MetricKey("m")).ok());
  ClientOptions client_options;
  client_options.port = server.port();
  client_options.auth_token = "wrong-token";
  client_options.source = "impostor";
  AgentClient client(client_options, AgentClient::ForEngine(&engine));

  const Status delivered = client.DeliverOnce();
  EXPECT_FALSE(delivered.ok());
  // FailedPrecondition tells the caller retrying harder will not help.
  EXPECT_EQ(delivered.code(), Status::Code::kFailedPrecondition);
  EXPECT_GE(client.counters().hello_rejects, 1);
  EXPECT_TRUE(PollUntil([&] { return server.Counters().auth_failures >= 1; }));
  EXPECT_EQ(server.Counters().frames_in, 0);
  // The rejected connection must not surface as a fleet source.
  EXPECT_EQ(aggregator.Sources().size(), 0u);
}

TEST(NetAuthTest, UnreachableAggregatorCountsBackoffRetries) {
  // Dial a port nobody serves: every connect attempt fails fast, and each
  // attempt beyond the first must have slept a jittered backoff first —
  // the retries counter is the fleet's visibility into reconnect storms.
  AggregatorEngine aggregator;
  ServerOptions server_options;
  server_options.auth_token = "token";
  AggregatorServer server(&aggregator, server_options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t dead_port = server.port();
  server.Stop();

  TelemetryEngine engine;
  ASSERT_TRUE(engine.RegisterMetric(MetricKey("m")).ok());
  ClientOptions client_options;
  client_options.port = dead_port;
  client_options.auth_token = "token";
  client_options.source = "orphan";
  client_options.backoff_initial_ms = 1;
  client_options.backoff_max_ms = 4;
  client_options.max_delivery_attempts = 3;
  AgentClient client(client_options, AgentClient::ForEngine(&engine));

  EXPECT_FALSE(client.DeliverOnce().ok());
  const auto counters = client.counters();
  EXPECT_GE(counters.connect_failures, 2);
  EXPECT_GE(counters.retries, 1);
  EXPECT_EQ(counters.frames_sent, 0);
}

TEST(NetAuthTest, DataBeforeHelloIsRejected) {
  AggregatorEngine aggregator;
  ServerOptions server_options;
  server_options.auth_token = "token";
  AggregatorServer server(&aggregator, server_options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = DialBlocking(server.port());
  ASSERT_GE(fd, 0);
  TelemetryEngine engine;
  ASSERT_TRUE(engine.RegisterMetric(MetricKey("m")).ok());
  ASSERT_TRUE(
      engine::WriteFrame(fd, test_util::FullFrame(engine, "sneak")).ok());

  auto reply = engine::ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  auto decoded = DecodeControlFrame(reply.ValueOrDie());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().type, ControlType::kHelloReject);
  // After the reject the server closes: clean EOF, not a hang.
  EXPECT_EQ(engine::ReadFrame(fd).status().code(),
            Status::Code::kOutOfRange);
  ::close(fd);
  EXPECT_GE(server.Counters().auth_failures, 1);
  EXPECT_EQ(server.Counters().frames_in, 0);
}

// ---------------------------------------------------------------------------
// Kill -> reconnect -> resync settles bit-identical
// ---------------------------------------------------------------------------

TEST(NetResyncTest, TortureSettlesBitIdenticalToLosslessReference) {
  AggregatorEngine served;     // behind the real TCP server
  AggregatorEngine reference;  // fed every produced frame, loses nothing
  ServerOptions server_options;
  server_options.auth_token = "token";
  AggregatorServer server(&served, server_options);
  ASSERT_TRUE(server.Start().ok());

  EngineOptions engine_options;
  engine_options.num_shards = 2;
  TelemetryEngine engine(engine_options);
  const MetricKey key("torture_us", {{"service", "test"}});
  ASSERT_TRUE(engine.RegisterMetric(key).ok());

  const std::string source = "torture-agent";
  // The tee producer: whatever frame the client is about to ship (or
  // fault-drop) also lands in the reference aggregator. The reference
  // therefore tracks the stream with zero loss, and after the torture the
  // served aggregator must agree with it byte for byte.
  auto make_client = [&] {
    AgentClient::FrameProducer inner = AgentClient::ForEngine(&engine);
    auto tee = [inner, &reference](const std::string& src, bool force_full,
                                   std::vector<uint8_t>* out) {
      const Status produced = inner(src, force_full, out);
      if (produced.ok()) {
        auto verdict = reference.IngestFrame(*out);
        EXPECT_TRUE(verdict.ok() && verdict.ValueOrDie().applied)
            << "reference aggregator refused a produced frame";
      }
      return produced;
    };
    ClientOptions client_options;
    client_options.port = server.port();
    client_options.auth_token = "token";
    client_options.source = source;
    return std::make_unique<AgentClient>(client_options, std::move(tee));
  };
  auto client = make_client();

  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 1000.0);
  auto one_round = [&] {
    std::vector<double> batch(256);
    for (double& v : batch) v = dist(rng);
    ASSERT_TRUE(engine.RecordBatch(key, batch).ok());
    engine.Tick();
    ASSERT_TRUE(client->DeliverOnce().ok());
  };

  // Steady state: full, then deltas.
  for (int round = 0; round < 3; ++round) one_round();
  EXPECT_EQ(client->counters().naks, 0);

  // Fault 1: a frame lost in transit. The cursor advances past it, so the
  // next delta's base disagrees, the server NAKs, and the client resyncs
  // with a full frame on the same connection.
  client->set_testing_drop_next_frame();
  one_round();  // produced (tee fed the reference), dropped before send
  one_round();  // delta NAKed -> full resync, applied
  EXPECT_GE(client->counters().naks, 1);
  EXPECT_GE(client->counters().resyncs, 2);  // first connect + NAK recovery

  // Fault 2: the agent process dies. A new client (fresh cursor, fresh
  // TCP session) must resync from scratch; the server must first surface
  // the source as DISCONNECTED, then flip it back on reconnect.
  client.reset();
  ASSERT_TRUE(PollUntil([&] {
    const auto sources = served.Sources();
    return sources.size() == 1 && !sources[0].connected;
  })) << "dead agent never surfaced as disconnected";
  client = make_client();
  for (int round = 0; round < 2; ++round) one_round();
  {
    const auto sources = served.Sources();
    ASSERT_EQ(sources.size(), 1u);
    EXPECT_TRUE(sources[0].connected);
    EXPECT_EQ(sources[0].connects, 2);
  }
  EXPECT_GE(server.Counters().accepts, 2);

  // The verdict: both aggregators hold bit-identical state for the source.
  auto served_state = served.SourceSnapshot(source);
  auto reference_state = reference.SourceSnapshot(source);
  ASSERT_TRUE(served_state.ok());
  ASSERT_TRUE(reference_state.ok());
  EXPECT_EQ(engine::EncodeSnapshotV2(served_state.ValueOrDie()),
            engine::EncodeSnapshotV2(reference_state.ValueOrDie()))
      << "torture left the served aggregator diverged from the lossless "
         "reference";
}

// ---------------------------------------------------------------------------
// Backpressure: stall engages, then drains without losing frames
// ---------------------------------------------------------------------------

TEST(NetBackpressureTest, StallEngagesAndDrainsWithoutLoss) {
  constexpr int kFrames = 1000;

  AggregatorEngine aggregator;
  ServerOptions server_options;
  server_options.auth_token = "token";
  // Tiny outbound bound + tiny kernel send buffer: a peer that does not
  // read its acks stalls the connection after a handful of frames instead
  // of after megabytes.
  server_options.max_outbound_bytes = 64;
  server_options.send_buffer_bytes = 1;  // kernel clamps to its minimum
  AggregatorServer server(&aggregator, server_options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = DialBlocking(server.port(), /*rcvbuf=*/1);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RawHello(fd, "token", "flood"));

  // A minimal valid data frame (empty snapshot): every one elicits an ack.
  WireSnapshot snapshot;
  snapshot.source = "flood";
  snapshot.epoch = 1;
  snapshot.sync_token = engine::GenerateSyncToken();
  const std::vector<uint8_t> frame = engine::EncodeSnapshotV2(snapshot);

  // Blast every frame without reading a single ack. The kernel buffers
  // (shrunk above) fill, FlushOutbound hits EAGAIN, the outbound queue
  // passes its bound, and the server must stop reading this connection.
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(engine::WriteFrame(fd, frame).ok());
  }
  ASSERT_TRUE(
      PollUntil([&] { return server.Counters().backpressure_stalls >= 1; }))
      << "flooding never engaged backpressure";
  // Stalled means stalled: the server must NOT have acked everything.
  EXPECT_LT(server.Counters().frames_in, kFrames);

  // Now drain. Every ack must arrive, in sequence — including acks for
  // frames that were parked inside the server's FrameReader when reads
  // paused (the peer has nothing more to send, so resuming must re-drain
  // the reader, not wait for EPOLLIN).
  for (int i = 0; i < kFrames; ++i) {
    auto reply = engine::ReadFrame(fd);
    ASSERT_TRUE(reply.ok()) << "ack " << (i + 1) << " never arrived: "
                            << reply.status().ToString();
    auto decoded = DecodeControlFrame(reply.ValueOrDie());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.ValueOrDie().type, ControlType::kAck);
    EXPECT_EQ(decoded.ValueOrDie().seq, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(server.Counters().frames_in, kFrames);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Three-tier chain vs the union-stream oracle
// ---------------------------------------------------------------------------

TEST(NetTreeTest, ThreeTierChainMatchesUnionStreamOracle) {
  constexpr int kAgents = 3;
  constexpr int kRounds = 4;
  constexpr int kSamplesPerRound = 1024;

  // Tier 3: the cluster aggregator.
  AggregatorEngine cluster;
  ServerOptions cluster_options;
  cluster_options.auth_token = "cluster-token";
  AggregatorServer cluster_server(&cluster, cluster_options);
  ASSERT_TRUE(cluster_server.Start().ok());

  // Tier 2: two host aggregators, each re-exporting up to the cluster
  // through the same AgentClient protocol the agents use.
  AggregatorEngine hosts[2];
  std::unique_ptr<AggregatorServer> host_servers[2];
  std::unique_ptr<AgentClient> uplinks[2];
  for (int h = 0; h < 2; ++h) {
    ServerOptions host_options;
    host_options.auth_token = "host-token";
    host_servers[h] =
        std::make_unique<AggregatorServer>(&hosts[h], host_options);
    ASSERT_TRUE(host_servers[h]->Start().ok());
    ClientOptions uplink_options;
    uplink_options.port = cluster_server.port();
    uplink_options.auth_token = "cluster-token";
    uplink_options.source = "host-" + std::to_string(h);
    uplinks[h] = std::make_unique<AgentClient>(
        uplink_options, AgentClient::ForAggregator(&hosts[h]));
  }

  // Tier 1: three agents; 0 and 1 report to host 0, agent 2 to host 1.
  // One shared key so the cluster pools the whole fleet.
  const MetricKey key("lat_us", {{"service", "web"}});
  EngineOptions engine_options;
  engine_options.num_shards = 1;
  engine_options.shard_window =
      WindowSpec(kSamplesPerRound * kRounds, kSamplesPerRound);
  std::unique_ptr<TelemetryEngine> engines[kAgents];
  std::unique_ptr<AgentClient> clients[kAgents];
  for (int a = 0; a < kAgents; ++a) {
    engines[a] = std::make_unique<TelemetryEngine>(engine_options);
    ASSERT_TRUE(engines[a]->RegisterMetric(key).ok());
    ClientOptions client_options;
    client_options.port = host_servers[a < 2 ? 0 : 1]->port();
    client_options.auth_token = "host-token";
    client_options.source = "agent-" + std::to_string(a);
    clients[a] = std::make_unique<AgentClient>(
        client_options, AgentClient::ForEngine(engines[a].get()));
  }

  // Drive the fleet: per round each agent records + ticks + delivers to
  // its host, then each host re-exports its pooled state to the cluster.
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(5.0, 0.6);
  std::vector<double> oracle;
  for (int round = 0; round < kRounds; ++round) {
    for (int a = 0; a < kAgents; ++a) {
      std::vector<double> batch(kSamplesPerRound);
      for (double& v : batch) v = dist(rng);
      oracle.insert(oracle.end(), batch.begin(), batch.end());
      ASSERT_TRUE(engines[a]->RecordBatch(key, batch).ok());
      engines[a]->Tick();
      ASSERT_TRUE(clients[a]->DeliverOnce().ok());
    }
    for (int h = 0; h < 2; ++h) {
      ASSERT_TRUE(uplinks[h]->DeliverOnce().ok());
    }
  }
  std::sort(oracle.begin(), oracle.end());

  // Bit-compatibility with the in-process merge oracle: what the cluster
  // holds for each host source must be byte-identical to what that host's
  // engine re-exports right now — the wire added nothing and lost nothing.
  for (int h = 0; h < 2; ++h) {
    const std::string host_source = "host-" + std::to_string(h);
    auto held = cluster.SourceSnapshot(host_source);
    ASSERT_TRUE(held.ok());
    std::vector<uint8_t> direct;
    engine::ExportCursor fresh_cursor;  // first export: the full frame
    ASSERT_TRUE(hosts[h].Export(host_source, &fresh_cursor, &direct).ok());
    EXPECT_EQ(engine::EncodeSnapshotV2(held.ValueOrDie()), direct)
        << host_source << " diverged between the wire and the oracle";
  }

  // The cluster window must cover exactly the union stream.
  auto result = cluster.Query(QuerySpec::ForKey(key)
                                  .With(QueryRequest::Quantile(0.5))
                                  .With(QueryRequest::Quantile(0.99)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().window_count,
            static_cast<int64_t>(oracle.size()));

  // Theorem-1 accuracy at the top of the tree: documented grid bound plus
  // the statistical term (1.5x the 95% CI half-width + the 4/m finite-m
  // allowance, the budget tests/merge_property_test.cc derives).
  const double n = static_cast<double>(oracle.size());
  const double m = static_cast<double>(kSamplesPerRound);
  const double phis[2] = {0.5, 0.99};
  for (int i = 0; i < 2; ++i) {
    const engine::QueryOutcome& outcome = result.ValueOrDie().outcomes[i];
    ASSERT_TRUE(outcome.status.ok());
    const double budget =
        outcome.rank_error_bound +
        1.5 * 2.0 * 1.96 * std::sqrt(phis[i] * (1.0 - phis[i]) / n) +
        4.0 / m;
    const double err = test_util::RankError(oracle, outcome.value, phis[i]);
    EXPECT_LE(err, budget)
        << "cluster p" << phis[i] * 100 << " rank error " << err
        << " exceeds the documented budget " << budget;
  }

  // The fleet surfaces: every tier saw its sources arrive over transport.
  EXPECT_EQ(cluster.source_count(), 2u);
  const auto health = cluster.FleetHealth();
  EXPECT_TRUE(health.has_transport);
  EXPECT_GE(health.transport.accepts, 2);
  EXPECT_GE(health.transport.frames_in, 2 * kRounds);
  for (int h = 0; h < 2; ++h) {
    EXPECT_EQ(hosts[h].source_count(), h == 0 ? 2u : 1u);
  }
}

}  // namespace
}  // namespace net
}  // namespace qlove
