// The kill-chaos harness: SIGKILL a WAL-writing agent process mid-window,
// over and over, across seeded schedules, and prove the recovered state is
// bit-identical to a lossless in-process reference at every durable
// boundary. The agent runs as a forked child (TelemetryEngine keeps no
// background threads, so fork-without-exec is sound); the parent drives
// Ticks over a pipe, mirrors every DURABLY ACKNOWLEDGED tick into the
// reference, and after each kill recovers the WAL in-process to compare.
//
// Loss accounting under fsync=every_tick: a tick the child acknowledged
// was fdatasynced before the ack, so recovery must never land below the
// last acked epoch (zero acknowledged-sub-window loss). A tick that was
// commanded but never acked is the torn window — recovery may land on
// either side of it, and the parent fast-forwards the reference to
// whatever epoch actually survived (each tick's workload is a pure
// function of (seed, epoch), so the reference can replay any prefix).
//
// 25 SIGKILL/restart cycles (5 seeds x 5 generations) plus a clean-exit
// final generation per seed, ending with a settle phase that drives both
// engines past full window turnover in lockstep, bit-comparing exports at
// every tick.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/wal.h"
#include "engine/wire.h"
#include "export_util.h"

namespace qlove {
namespace engine {
namespace {

constexpr char kCmdTick = 'T';
constexpr char kCmdQuit = 'X';

bool WriteAll(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const ssize_t rc = ::write(fd, p, size);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += rc;
    size -= static_cast<size_t>(rc);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(data);
  while (size > 0) {
    const ssize_t rc = ::read(fd, p, size);
    if (rc <= 0) {
      if (rc < 0 && errno == EINTR) continue;
      return false;  // EOF = the child died
    }
    p += rc;
    size -= static_cast<size_t>(rc);
  }
  return true;
}

EngineOptions ChaosEngineOptions() {
  EngineOptions options;
  // One shard: the bit-identity contract. Shard assignment is an agent
  // process detail that recovery deliberately coalesces away; with one
  // shard the live reference and the recovered engine frame records
  // identically, so memcmp on normalized exports is exact.
  options.num_shards = 1;
  options.shard_window = WindowSpec(512, 128);  // 4 sub-windows
  options.default_backend.epsilon = 0.0005;
  return options;
}

WalOptions ChaosWalOptions() {
  WalOptions options;
  options.fsync = WalFsyncPolicy::kEveryTick;  // the acceptance budget
  options.segment_target_bytes = 4096;         // force frequent rotation
  options.max_segments = 4;
  options.checkpoint_every_n_ticks = 3;
  return options;
}

std::vector<MetricKey> ChaosKeys() {
  return {MetricKey("rtt_us", {{"host", "h0"}, {"service", "chaos"}}),
          MetricKey("queue_depth", {{"host", "h0"}})};
}

/// The workload is a pure function of (seed, epoch): both the child and
/// the parent's reference regenerate identical batches independently.
std::vector<double> TickBatch(uint64_t seed, int64_t epoch, size_t metric) {
  std::mt19937_64 rng(seed * 1000003ull + static_cast<uint64_t>(epoch) * 31ull +
                      metric);
  std::lognormal_distribution<double> dist(metric == 0 ? 5.0 : 2.0, 0.4);
  std::vector<double> batch(96);
  for (double& value : batch) value = dist(rng);
  return batch;
}

void ApplyTick(TelemetryEngine* engine, uint64_t seed) {
  const int64_t epoch = engine->TickEpochs() + 1;
  const std::vector<MetricKey> keys = ChaosKeys();
  for (size_t m = 0; m < keys.size(); ++m) {
    ASSERT_TRUE(engine->RecordBatch(keys[m], TickBatch(seed, epoch, m)).ok());
  }
  engine->Flush();  // nothing inflight: the WAL record covers the full tick
  engine->Tick();
}

std::vector<uint8_t> NormalizedExport(const TelemetryEngine& engine) {
  WireSnapshot snapshot = test_util::FullSnapshot(engine, "normalized");
  snapshot.sync_token = 0;
  return EncodeSnapshotV2(snapshot);
}

/// The child: recover, report the surviving epoch, then serve tick
/// commands until told to quit or killed. Never returns.
[[noreturn]] void RunAgentChild(const std::string& wal_dir, uint64_t seed,
                                int cmd_fd, int ack_fd) {
  TelemetryEngine engine(ChaosEngineOptions());
  auto info = engine.RecoverFromWal(wal_dir);
  if (!info.ok()) _exit(101);
  if (!engine.EnableWal(wal_dir, ChaosWalOptions()).ok()) _exit(102);
  int64_t epoch = engine.TickEpochs();
  if (!WriteAll(ack_fd, &epoch, sizeof(epoch))) _exit(103);
  while (true) {
    char cmd;
    if (!ReadAll(cmd_fd, &cmd, 1)) _exit(104);
    if (cmd == kCmdQuit) {
      if (!engine.FlushWal().ok()) _exit(105);
      _exit(0);
    }
    if (cmd != kCmdTick) _exit(106);
    const int64_t next = engine.TickEpochs() + 1;
    const std::vector<MetricKey> keys = ChaosKeys();
    for (size_t m = 0; m < keys.size(); ++m) {
      if (!engine.RecordBatch(keys[m], TickBatch(seed, next, m)).ok()) {
        _exit(107);
      }
    }
    engine.Flush();
    engine.Tick();  // appends + fdatasyncs the WAL record
    epoch = engine.TickEpochs();
    if (!WriteAll(ack_fd, &epoch, sizeof(epoch))) _exit(108);
  }
}

struct AgentProcess {
  pid_t pid = -1;
  int cmd_fd = -1;  // parent writes commands
  int ack_fd = -1;  // parent reads epoch acks
};

AgentProcess SpawnAgent(const std::string& wal_dir, uint64_t seed) {
  int cmd_pipe[2], ack_pipe[2];
  EXPECT_EQ(::pipe(cmd_pipe), 0);
  EXPECT_EQ(::pipe(ack_pipe), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::close(cmd_pipe[1]);
    ::close(ack_pipe[0]);
    RunAgentChild(wal_dir, seed, cmd_pipe[0], ack_pipe[1]);
  }
  ::close(cmd_pipe[0]);
  ::close(ack_pipe[1]);
  AgentProcess agent;
  agent.pid = pid;
  agent.cmd_fd = cmd_pipe[1];
  agent.ack_fd = ack_pipe[0];
  return agent;
}

void ReapAgent(AgentProcess* agent) {
  ::close(agent->cmd_fd);
  ::close(agent->ack_fd);
  int status = 0;
  ASSERT_EQ(::waitpid(agent->pid, &status, 0), agent->pid);
  agent->pid = -1;
}

TEST(CrashChaosTest, SigkilledAgentsRecoverEveryAcknowledgedSubWindow) {
  int total_kills = 0;
  int total_midtick_kills = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    char tmpl[] = "/tmp/qlove_chaos_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string wal_dir = tmpl;

    TelemetryEngine reference(ChaosEngineOptions());
    std::mt19937_64 schedule(seed * 77ull);
    int64_t last_acked = 0;

    for (int generation = 0; generation < 6; ++generation) {
      SCOPED_TRACE("generation " + std::to_string(generation));
      AgentProcess agent = SpawnAgent(wal_dir, seed);

      // The child reports what survived. Zero acknowledged loss: the
      // recovered epoch can never fall below the last fdatasync'd ack.
      int64_t recovered_epoch = -1;
      ASSERT_TRUE(
          ReadAll(agent.ack_fd, &recovered_epoch, sizeof(recovered_epoch)));
      ASSERT_GE(recovered_epoch, last_acked);

      // Fast-forward the lossless reference to the surviving epoch and
      // assert the recovered on-disk state is bit-identical to it.
      while (reference.TickEpochs() < recovered_epoch) {
        ApplyTick(&reference, seed);
      }
      {
        TelemetryEngine check(ChaosEngineOptions());
        auto info = check.RecoverFromWal(wal_dir);
        ASSERT_TRUE(info.ok()) << info.status().message();
        ASSERT_EQ(info.ValueOrDie().epoch, recovered_epoch);
        EXPECT_EQ(NormalizedExport(check), NormalizedExport(reference));
      }

      const bool final_generation = generation == 5;
      const int ticks = 3 + static_cast<int>(schedule() % 6);
      const bool kill_midtick = !final_generation && schedule() % 2 == 0;
      for (int t = 0; t < ticks; ++t) {
        const char cmd = kCmdTick;
        ASSERT_TRUE(WriteAll(agent.cmd_fd, &cmd, 1));
        if (kill_midtick && t == ticks - 1) {
          // Mid-window kill: SIGKILL races the tick itself; the ack (and
          // the fdatasync before it) may or may not have happened. The
          // next generation's recovered epoch tells which side won.
          ++total_midtick_kills;
          break;
        }
        int64_t acked = 0;
        ASSERT_TRUE(ReadAll(agent.ack_fd, &acked, sizeof(acked)));
        last_acked = acked;
        ApplyTick(&reference, seed);  // acked = durable = in the reference
      }

      if (final_generation) {
        const char cmd = kCmdQuit;
        ASSERT_TRUE(WriteAll(agent.cmd_fd, &cmd, 1));
        int status = 0;
        ::close(agent.cmd_fd);
        ASSERT_EQ(::waitpid(agent.pid, &status, 0), agent.pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0);
        ::close(agent.ack_fd);
      } else {
        ASSERT_EQ(::kill(agent.pid, SIGKILL), 0);
        ++total_kills;
        ReapAgent(&agent);
      }
    }

    // Clean exit loses nothing: recover, then settle both engines past
    // full window turnover in lockstep — bit-identical at every tick.
    TelemetryEngine recovered(ChaosEngineOptions());
    auto info = recovered.RecoverFromWal(wal_dir);
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info.ValueOrDie().epoch, last_acked);
    ASSERT_EQ(recovered.TickEpochs(), reference.TickEpochs());
    EXPECT_EQ(NormalizedExport(recovered), NormalizedExport(reference));
    for (int t = 0; t < 6; ++t) {  // NumSubWindows + 2
      ApplyTick(&recovered, seed);
      ApplyTick(&reference, seed);
      EXPECT_EQ(NormalizedExport(recovered), NormalizedExport(reference))
          << "settle tick " << t;
    }

    auto segments = ListWalSegments(wal_dir);
    if (segments.ok()) {
      for (const std::string& file : segments.ValueOrDie()) {
        ::unlink(file.c_str());
      }
    }
    ::rmdir(wal_dir.c_str());
  }
  EXPECT_EQ(total_kills, 25);     // >= 20 seeded SIGKILL/restart cycles
  EXPECT_GT(total_midtick_kills, 5);
}

}  // namespace
}  // namespace engine
}  // namespace qlove
