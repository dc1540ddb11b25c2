// Copyright 2026 The QLOVE Reproduction Authors
// The fleet benchmark: one process runs the real pipeline
//
//   seeded generator -> TelemetryEngine::Record -> Tick (agent WAL on)
//     -> AgentClient --TCP--> AggregatorServer -> host AggregatorEngine
//     -> AgentClient::ForAggregator --TCP--> AggregatorServer
//     -> cluster AggregatorEngine <- open-loop query thread
//
// with at most four threads: the main thread (every agent's single writer and
// both client hops), the two server loops, and the query thread.
//
// Design rules that make the figures repeatable:
//  - Logical ticks. Every agent ticks after a fixed number of generated
//    events, never on a timer, and the window holds kWindowTicks ticks, so
//    bytes, window contents and accuracy are exact functions of the seed.
//  - Lag excludes the window: visible lag runs from the first agent's
//    Tick() call to the cluster tier's ack of the frame carrying it.
//  - Steady state only: warm-up ticks fill every window before timing
//    starts, their cost is setup_s, and generating values is never timed.
//
// Usage:
//   fleet_bench --workload hot_path|wide_keys|fleet_dashboard --seed N
//               --seconds S --trace 0|1 [--wal-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced ticks and prints the per-layer ledger. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is nonzero whenever a correctness check failed.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "workload.h"

namespace fleetbench {
namespace {

using qlove::Status;
using qlove::engine::AggregatorEngine;
using qlove::engine::EngineOptions;
using qlove::engine::MetricKey;
using qlove::engine::QueryRequest;
using qlove::engine::QueryResult;
using qlove::engine::QuerySpec;
using qlove::engine::TagSelector;
using qlove::engine::TelemetryEngine;
using qlove::net::AgentClient;
using Clock = std::chrono::steady_clock;

/// Full pipelines built per run; setup_s is their median and every one
/// must leave bit-identical state behind (the determinism self-check).
constexpr int kSetups = 3;
/// Warm-up ticks: fill the window, then two more for steady state.
constexpr int64_t kWarmupTicks = kWindowTicks + 2;
/// wire_bytes_per_tick covers exactly the first this-many measured ticks,
/// so it repeats exactly for a seed however many ticks the run fits.
constexpr int64_t kBytesTicks = kWindowTicks;
/// Measured ticks never fewer than this, whatever --seconds says, so the
/// lag tail always has ten samples beyond it.
constexpr int64_t kMinMeasuredTicks = 24;
/// visible_lag_us_tail is the median over blocks of at least this many
/// ticks of each block's tail (p80 of a 50-tick block). A whole-run tail
/// (p97 and up on hot_path's several hundred ticks) is set by the few ticks
/// a shared machine happens to stall, and even p90 of 100-tick blocks
/// spread 0.24 over ten runs while the median lag spread 0.07.
constexpr size_t kLagTailBlock = 50;
/// The ledger's completeness tolerance: the traced layer spans must cover
/// all but this share of the traced tick wall time.
constexpr double kLedgerTolerancePct = 2.0;
/// One in this many open-loop queries is also asked of the host tier and
/// compared bit for bit when no delivery ran in between.
constexpr int64_t kIdentitySampleEvery = 8;
constexpr int kProbeQueries = 101;
constexpr char kToken[] = "fleetbench-token";

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// VmHWM (peak resident set) in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Query targets
// ---------------------------------------------------------------------------

/// One query target plus the (agent, key) pairs whose windows it pools.
struct Target {
  QuerySpec spec;  ///< Target only; requests are added per use.
  std::vector<std::pair<int, int>> members;
  double rank_argument = 0.0;  ///< Value the Rank request asks about.
};

MetricKey KeyFor(const WorkloadShape& shape, int agent, int key) {
  const KeyCoordinates at = Coordinates(shape, agent, key);
  return MetricKey(MetricName(at.name), {{"host", HostTag(at.host)},
                                         {"service", ServiceTag(at.service)}});
}

Target PointTarget(const WorkloadShape& shape, int agent, int key) {
  Target target;
  target.spec = QuerySpec::ForKey(KeyFor(shape, agent, key));
  target.members = {{agent, key}};
  target.rank_argument =
      1500.0 * (1.0 + 0.25 * Coordinates(shape, agent, key).name);
  return target;
}

/// Every key of metric \p name (when \p service < 0) or of one service of
/// it across all hosts.
Target RollupTarget(const WorkloadShape& shape, int name, int service) {
  Target target;
  TagSelector selector;
  selector.name = MetricName(name);
  if (service >= 0) selector.tags = {{"service", ServiceTag(service)}};
  target.spec = QuerySpec::ForSelector(selector);
  for (int agent = 0; agent < shape.agents; ++agent) {
    for (int key = 0; key < shape.keys_per_agent(); ++key) {
      const KeyCoordinates at = Coordinates(shape, agent, key);
      if (at.name == name && (service < 0 || at.service == service)) {
        target.members.emplace_back(agent, key);
      }
    }
  }
  target.rank_argument = 1500.0 * (1.0 + 0.25 * name);
  return target;
}

QuerySpec WithRequests(const Target& target,
                       const std::vector<QueryRequest>& requests) {
  QuerySpec spec = target.spec;
  spec.requests = requests;
  return spec;
}

/// The request mix of every dashboard query: on-grid p99, off-grid p95 and
/// the fraction of the window at or below a fixed latency.
std::vector<QueryRequest> DashboardRequests(const Target& target) {
  return {QueryRequest::Quantile(0.99), QueryRequest::Quantile(kOffGridPhi),
          QueryRequest::Rank(target.rank_argument)};
}

/// Every answer field a query result carries, compared bit for bit.
bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  if (a.window_count != b.window_count ||
      a.num_summaries != b.num_summaries ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    if (x.status.code() != y.status.code() || x.source != y.source ||
        std::memcmp(&x.value, &y.value, sizeof(double)) != 0 ||
        std::memcmp(&x.rank_error_bound, &y.rank_error_bound,
                    sizeof(double)) != 0 ||
        std::memcmp(&x.value_error_bound, &y.value_error_bound,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool AllOutcomesOk(const QueryResult& result) {
  for (const auto& outcome : result.outcomes) {
    if (!outcome.status.ok() || !std::isfinite(outcome.value)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// Wraps a FrameProducer: when `timing` is set it adds the producer's wall
/// time and frame bytes to the totals; with `capture` set it keeps a copy
/// of every produced frame (for the shadow ingest replay).
struct ProducerProbe {
  struct Frame {
    std::vector<uint8_t> bytes;
    bool traced = false;
  };
  bool timing = false;
  double us = 0.0;
  int64_t bytes = 0;
  std::vector<Frame>* capture = nullptr;
};

AgentClient::FrameProducer Probed(AgentClient::FrameProducer inner,
                                  ProducerProbe* probe) {
  return [inner = std::move(inner), probe](const std::string& source,
                                           bool force_full,
                                           std::vector<uint8_t>* out) {
    if (!probe->timing && probe->capture == nullptr) {
      return inner(source, force_full, out);
    }
    const Clock::time_point start = Clock::now();
    Status status = inner(source, force_full, out);
    if (probe->timing) {
      probe->us += Micros(Clock::now() - start);
      probe->bytes += static_cast<int64_t>(out->size());
    }
    if (probe->capture != nullptr && status.ok()) {
      probe->capture->push_back({*out, probe->timing});
    }
    return status;
  };
}

/// Agents, the two aggregator tiers, their servers and the client hops.
/// Teardown runs in dependency order (clients, servers, engines) and then
/// deletes the agents' WAL directory.
class Pipeline {
 public:
  Pipeline(const WorkloadShape& shape, std::filesystem::path wal_root,
           std::vector<ProducerProbe::Frame>* capture)
      : shape_(shape), wal_root_(std::move(wal_root)), capture_(capture) {}

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  ~Pipeline() {
    agent_clients_.clear();
    host_client_.reset();
    if (cluster_server_) cluster_server_->Stop();
    if (host_server_) host_server_->Stop();
    agents_.clear();
    std::error_code ignored;
    std::filesystem::remove_all(wal_root_, ignored);
  }

  /// Builds everything and registers every key; \p register_us receives
  /// the RegisterMetric wall time summed over all keys.
  Status Build(double* register_us) {
    EngineOptions options;
    options.num_shards = shape_.shards;
    options.shard_window = qlove::WindowSpec(
        shape_.shard_period() * kWindowTicks, shape_.shard_period());
    if (shape_.ring_capacity > 0) {
      options.shard_ring_capacity = shape_.ring_capacity;
    }
    qlove::engine::WalOptions wal_options;  // default policy: every_tick
    std::error_code created;
    std::filesystem::create_directories(wal_root_, created);
    if (created) {
      return Status::Internal("cannot create " + wal_root_.string() + ": " +
                              created.message());
    }
    *register_us = 0.0;
    for (int a = 0; a < shape_.agents; ++a) {
      agents_.push_back(std::make_unique<TelemetryEngine>(options));
      TelemetryEngine* engine = agents_.back().get();
      QLOVE_RETURN_NOT_OK(engine->EnableWal(
          (wal_root_ / ("agent-" + std::to_string(a))).string(),
          wal_options));
      keys_.emplace_back();
      std::vector<MetricKey>& keys = keys_.back();
      keys.reserve(static_cast<size_t>(shape_.keys_per_agent()));
      for (int k = 0; k < shape_.keys_per_agent(); ++k) {
        keys.push_back(KeyFor(shape_, a, k));
      }
      const Clock::time_point start = Clock::now();
      for (const MetricKey& key : keys) {
        QLOVE_RETURN_NOT_OK(engine->RegisterMetric(key));
      }
      *register_us += Micros(Clock::now() - start);
    }

    qlove::net::ServerOptions server_options;
    server_options.auth_token = kToken;
    host_server_ =
        std::make_unique<qlove::net::AggregatorServer>(&host_, server_options);
    QLOVE_RETURN_NOT_OK(host_server_->Start());
    cluster_server_ = std::make_unique<qlove::net::AggregatorServer>(
        &cluster_, server_options);
    QLOVE_RETURN_NOT_OK(cluster_server_->Start());

    agent_probes_.resize(static_cast<size_t>(shape_.agents));
    for (int a = 0; a < shape_.agents; ++a) {
      qlove::net::ClientOptions client_options;
      client_options.port = host_server_->port();
      client_options.auth_token = kToken;
      client_options.source = "agent-" + std::to_string(a);
      ProducerProbe* probe = &agent_probes_[static_cast<size_t>(a)];
      probe->capture = capture_;
      agent_clients_.push_back(std::make_unique<AgentClient>(
          client_options,
          Probed(AgentClient::ForEngine(agents_[static_cast<size_t>(a)].get()),
                 probe)));
    }
    qlove::net::ClientOptions host_options;
    host_options.port = cluster_server_->port();
    host_options.auth_token = kToken;
    host_options.source = "host-tier";
    host_client_ = std::make_unique<AgentClient>(
        host_options, Probed(AgentClient::ForAggregator(&host_), &host_probe_));
    return Status::OK();
  }

  int64_t BytesSent() const {
    int64_t total = host_client_->counters().bytes_sent;
    for (const auto& client : agent_clients_) {
      total += client->counters().bytes_sent;
    }
    return total;
  }

  /// Every client's counters summed.
  AgentClient::Counters ClientCounters() const {
    AgentClient::Counters sum;
    auto add = [&sum](const AgentClient::Counters& c) {
      sum.connects += c.connects;
      sum.connect_failures += c.connect_failures;
      sum.hello_rejects += c.hello_rejects;
      sum.naks += c.naks;
      sum.ack_errors += c.ack_errors;
      sum.resyncs += c.resyncs;
      sum.retries += c.retries;
    };
    add(host_client_->counters());
    for (const auto& client : agent_clients_) add(client->counters());
    return sum;
  }

  int connections() const { return shape_.agents + 1; }

  const WorkloadShape& shape_;
  const std::filesystem::path wal_root_;
  std::vector<ProducerProbe::Frame>* const capture_;

  std::vector<std::unique_ptr<TelemetryEngine>> agents_;
  std::vector<std::vector<MetricKey>> keys_;
  AggregatorEngine host_;
  AggregatorEngine cluster_;
  std::unique_ptr<qlove::net::AggregatorServer> host_server_;
  std::unique_ptr<qlove::net::AggregatorServer> cluster_server_;
  std::vector<ProducerProbe> agent_probes_;  // sized once, never moved
  ProducerProbe host_probe_;
  std::vector<std::unique_ptr<AgentClient>> agent_clients_;
  std::unique_ptr<AgentClient> host_client_;
};

// ---------------------------------------------------------------------------
// The open-loop query load
// ---------------------------------------------------------------------------

/// Issues dashboard queries against the cluster tier on a fixed schedule,
/// timing each from its due time (so a stall also delays the queries queued
/// behind it), and compares a sample of answers with the host tier.
class QueryLoad {
 public:
  QueryLoad(const WorkloadShape& shape, const Pipeline* pipeline,
            const std::vector<Target>* points,
            const std::vector<Target>* service_rollups,
            const std::vector<Target>* name_rollups,
            const std::atomic<uint64_t>* delivery_seq, uint64_t seed)
      : shape_(shape),
        pipeline_(pipeline),
        delivery_seq_(delivery_seq),
        choice_(seed) {
    auto add = [this](const std::vector<Target>* targets) {
      std::vector<QuerySpec> specs;
      for (const Target& target : *targets) {
        specs.push_back(WithRequests(target, DashboardRequests(target)));
      }
      pools_.push_back(std::move(specs));
    };
    add(points);
    add(service_rollups);
    add(name_rollups);
  }

  QueryLoad(const QueryLoad&) = delete;
  QueryLoad& operator=(const QueryLoad&) = delete;
  ~QueryLoad() { Stop(); }

  void Start(double seconds) {
    latencies_us.reserve(
        static_cast<size_t>(shape_.query_rate_hz * (seconds + 60.0)));
    start_ = Clock::now();
    thread_ = std::thread([this] { Loop(); });
  }

  /// Stops issuing and joins the thread (results are stable afterwards).
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> latencies_us;
  double late_max_us = 0.0;
  double spin_cpu_s = 0.0;  ///< CPU time spent waiting for due times.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t identity_checked = 0;
  int64_t identity_mismatches = 0;

 private:
  const QuerySpec& Pick() {
    const double u = choice_.Unit();
    size_t pool = 0;
    if (u >= shape_.point_frac) pool = 1;
    if (u >= shape_.point_frac + shape_.service_rollup_frac) pool = 2;
    while (pools_[pool].empty()) pool = (pool + 1) % pools_.size();
    return pools_[pool][choice_.Below(pools_[pool].size())];
  }

  void Loop() {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / shape_.query_rate_hz));
    Clock::time_point due = start_;
    for (int64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
      due += period;
      // Wait by spinning, never by sleeping: waking a sleeping thread on a
      // virtual machine can take milliseconds (the idle vCPU has to be
      // rescheduled), which would swamp a 100 us query's latency. The spin
      // is the load generator's own cost, so its CPU time is kept apart
      // and left out of cpu_ns_per_event.
      const double spin_start = ThreadCpuSeconds();
      while (Clock::now() < due) {
        if (stop_.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
      }
      spin_cpu_s += ThreadCpuSeconds() - spin_start;
      const QuerySpec& spec = Pick();
      const Clock::time_point begin = Clock::now();
      const uint64_t seq_before =
          delivery_seq_->load(std::memory_order_acquire);
      auto result = pipeline_->cluster_.Query(spec);
      const Clock::time_point end = Clock::now();
      latencies_us.push_back(Micros(end - due));
      late_max_us = std::max(late_max_us, Micros(begin - due));
      ++attempted;
      if (!result.ok() || !AllOutcomesOk(result.ValueOrDie())) {
        ++failed;
        continue;
      }
      if (i % kIdentitySampleEvery != 0 || seq_before % 2 != 0) continue;
      auto host = pipeline_->host_.Query(spec);
      if (delivery_seq_->load(std::memory_order_acquire) != seq_before) {
        continue;  // a delivery ran in between; the tiers may differ
      }
      ++identity_checked;
      if (!host.ok() || !SameAnswer(result.ValueOrDie(), host.ValueOrDie())) {
        ++identity_mismatches;
      }
    }
  }

  const WorkloadShape& shape_;
  const Pipeline* pipeline_;
  const std::atomic<uint64_t>* delivery_seq_;
  SplitMix choice_;
  std::vector<std::vector<QuerySpec>> pools_;
  Clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the members it reads die
};

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string wal_dir = "fleet_bench_wal";
};

/// What one setup left behind; every setup of a run must agree exactly.
struct Fingerprint {
  int64_t wire_bytes = 0;
  int64_t window_events = 0;
  double rank_error_max = 0.0;
  double value_error_pct = 0.0;
  bool operator==(const Fingerprint&) const = default;
};

/// Per-layer sums over the traced ticks.
struct Ledger {
  int64_t ticks = 0;
  int64_t events = 0;
  double wall_us = 0.0;
  double record_us = 0.0;
  double flush_us = 0.0;
  double tick_us = 0.0;
  double agent_deliver_us = 0.0;
  double export_us = 0.0;
  int64_t export_bytes = 0;
  double host_deliver_us = 0.0;
  double reexport_us = 0.0;
  int64_t reexport_bytes = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const WorkloadShape& shape, Options options)
      : shape_(shape), options_(std::move(options)), oracle_(shape) {
    BuildTargets();
  }

  int Run();

 private:
  void BuildTargets();
  /// Restarts the inputs: same seed, tick 0.
  void ResetInputs();
  /// One closed-loop tick: generate (untimed), record, tick and deliver
  /// through both hops. Returns the tick's timed wall time.
  double RunTick(Pipeline* pipeline, bool traced);
  /// Builds a pipeline and runs the warm-up; returns nullptr on failure.
  std::unique_ptr<Pipeline> Setup(int index, double* setup_s,
                                  double* register_us);
  /// Answers every check target on both tiers: host and cluster must agree
  /// bit for bit, window counts must equal what was generated, and the
  /// cluster answers are scored against the exact windows.
  Fingerprint CheckAnswers(const Pipeline& pipeline);
  void Measure(Pipeline* pipeline);
  void TraceExtras(Pipeline* pipeline);
  void Fail(const std::string& message) {
    std::fprintf(stderr, "fleet_bench: FAIL: %s\n", message.c_str());
    errors_.push_back(message);
  }
  int Report();

  const WorkloadShape& shape_;
  const Options options_;
  Oracle oracle_;
  std::vector<ValueGenerator> generators_;
  int64_t tick_ = 0;  ///< Ticks completed by the live pipeline.

  std::vector<Target> points_;
  std::vector<Target> service_rollups_;
  std::vector<Target> name_rollups_;
  std::vector<Target> checks_;  ///< Targets the correctness checks answer.

  /// Odd while a delivery may be changing the host or cluster state.
  std::atomic<uint64_t> delivery_seq_{0};

  // Per-tick accounting of the current phase.
  double excluded_cpu_s_ = 0.0;   ///< Main-thread CPU spent generating.
  double generate_wall_s_ = 0.0;  ///< Wall time spent generating inputs.
  double last_lag_us_ = 0.0;      ///< Visible lag of the latest tick.
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  Ledger ledger_;
  std::vector<ProducerProbe::Frame> captured_;

  // Results.
  std::vector<double> setup_s_;
  std::vector<double> register_us_per_key_;
  Fingerprint fingerprint_;
  int64_t measured_ticks_ = 0;
  int64_t measured_events_ = 0;
  double measured_wall_us_ = 0.0;
  double measured_cpu_s_ = 0.0;
  int64_t bytes_first_ticks_ = 0;
  std::vector<double> lag_us_;
  SampleSummary lag_;
  SampleSummary query_;
  double lag_tail_ = 0.0;    ///< Median of the tick blocks' tails.
  double query_tail_ = 0.0;  ///< Median of the query blocks' tails.
  double query_late_max_us_ = 0.0;
  int64_t query_attempted_ = 0;
  int64_t identity_checked_ = 0;
  int64_t wal_bytes_ = 0;
  int64_t wal_fsyncs_ = 0;
  AgentClient::Counters counters_;
  // Trace-only results.
  int64_t untraced_events_ = 0;
  double untraced_wall_us_ = 0.0;
  double probe_point_us_ = 0.0;
  double probe_rollup_us_ = 0.0;
  double probe_offgrid_us_ = 0.0;
  double shadow_ingest_us_per_frame_ = 0.0;

  std::vector<std::string> errors_;
};

void Bench::BuildTargets() {
  SplitMix choice(options_.seed * 0x2545F4914F6CDD1Dull + 17);
  const int keys = shape_.keys_per_agent();
  // The checks answer every key, every service across hosts and every
  // name; the open-loop pools draw from up to 512 keys and 256 services.
  for (int agent = 0; agent < shape_.agents; ++agent) {
    for (int key = 0; key < keys; ++key) {
      checks_.push_back(PointTarget(shape_, agent, key));
    }
  }
  if (shape_.agents * shape_.hosts_per_agent > 1) {
    for (int name = 0; name < shape_.names; ++name) {
      for (int service = 0; service < shape_.services; ++service) {
        service_rollups_.push_back(RollupTarget(shape_, name, service));
      }
    }
  }
  for (int name = 0; name < shape_.names; ++name) {
    name_rollups_.push_back(RollupTarget(shape_, name, -1));
  }
  checks_.insert(checks_.end(), service_rollups_.begin(),
                 service_rollups_.end());
  checks_.insert(checks_.end(), name_rollups_.begin(), name_rollups_.end());

  // Up to `limit` of the first `count` targets of `from`: all of them when
  // they fit, else a seeded draw.
  auto sample = [&choice](const std::vector<Target>& from, size_t count,
                          size_t limit) {
    std::vector<Target> pool;
    for (size_t i = 0; i < std::min(count, limit); ++i) {
      pool.push_back(from[count <= limit ? i : choice.Below(count)]);
    }
    return pool;
  };
  points_ = sample(checks_, static_cast<size_t>(keys) * shape_.agents, 512);
  service_rollups_ =
      sample(service_rollups_, service_rollups_.size(), 256);
}

void Bench::ResetInputs() {
  generators_.clear();
  for (int a = 0; a < shape_.agents; ++a) {
    generators_.emplace_back(options_.seed * 0x9E3779B97F4A7C15ull +
                             static_cast<uint64_t>(a) * 0xD1B54A32D192ED03ull);
  }
  tick_ = 0;
}

double Bench::RunTick(Pipeline* pipeline, bool traced) {
  const size_t events = static_cast<size_t>(shape_.events_per_agent_tick());
  const double cpu_before = ThreadCpuSeconds();
  const Clock::time_point generate_start = Clock::now();
  for (int a = 0; a < shape_.agents; ++a) {
    generators_[static_cast<size_t>(a)].Fill(
        shape_, a, oracle_.BlockFor(a, tick_), events);
  }
  generate_wall_s_ +=
      std::chrono::duration<double>(Clock::now() - generate_start).count();
  excluded_cpu_s_ += ThreadCpuSeconds() - cpu_before;

  const Clock::time_point begin = Clock::now();
  int64_t record_failures = 0;
  for (int a = 0; a < shape_.agents; ++a) {
    TelemetryEngine* engine = pipeline->agents_[static_cast<size_t>(a)].get();
    const std::vector<MetricKey>& keys =
        pipeline->keys_[static_cast<size_t>(a)];
    const double* values = oracle_.BlockFor(a, tick_);
    const Clock::time_point start = Clock::now();
    size_t key = 0;
    for (size_t i = 0; i < events; ++i) {
      if (!engine->Record(keys[key], values[i]).ok()) ++record_failures;
      if (++key == keys.size()) key = 0;
    }
    if (traced) ledger_.record_us += Micros(Clock::now() - start);
  }
  attempted_ += static_cast<int64_t>(events) * shape_.agents;
  if (record_failures > 0) {
    failed_ += record_failures;
    Fail(std::to_string(record_failures) + " Record calls failed");
  }

  Clock::time_point lag_start{};
  for (int a = 0; a < shape_.agents; ++a) {
    TelemetryEngine* engine = pipeline->agents_[static_cast<size_t>(a)].get();
    if (traced) {
      const Clock::time_point start = Clock::now();
      engine->Flush();
      ledger_.flush_us += Micros(Clock::now() - start);
    }
    const Clock::time_point start = Clock::now();
    if (a == 0) lag_start = start;
    engine->Tick();
    if (traced) ledger_.tick_us += Micros(Clock::now() - start);
    ++attempted_;
  }

  delivery_seq_.fetch_add(1, std::memory_order_acq_rel);  // odd: delivering
  for (int a = 0; a < shape_.agents; ++a) {
    ProducerProbe& probe = pipeline->agent_probes_[static_cast<size_t>(a)];
    probe.timing = traced;
    const Clock::time_point start = Clock::now();
    const Status status =
        pipeline->agent_clients_[static_cast<size_t>(a)]->DeliverOnce();
    if (traced) ledger_.agent_deliver_us += Micros(Clock::now() - start);
    probe.timing = false;
    ++attempted_;
    if (!status.ok()) {
      ++failed_;
      Fail("agent delivery: " + status.ToString());
    }
  }
  pipeline->host_probe_.timing = traced;
  const Clock::time_point host_start = Clock::now();
  const Status status = pipeline->host_client_->DeliverOnce();
  const Clock::time_point end = Clock::now();
  pipeline->host_probe_.timing = false;
  delivery_seq_.fetch_add(1, std::memory_order_acq_rel);  // even: settled
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    Fail("host-tier delivery: " + status.ToString());
  }
  ++tick_;

  const double wall_us = Micros(end - begin);
  last_lag_us_ = Micros(end - lag_start);
  if (traced) {
    ledger_.host_deliver_us += Micros(end - host_start);
    ledger_.wall_us += wall_us;
    ledger_.ticks += 1;
    ledger_.events += static_cast<int64_t>(events) * shape_.agents;
  }
  return wall_us;
}

std::unique_ptr<Pipeline> Bench::Setup(int index, double* setup_s,
                                       double* register_us) {
  ResetInputs();
  const bool capture = options_.trace && index == kSetups - 1;
  captured_.clear();
  const std::filesystem::path wal_root =
      std::filesystem::path(options_.wal_dir) /
      ("run-" + std::to_string(::getpid()) + "-" + std::to_string(index));

  const double generate_before = generate_wall_s_;
  const Clock::time_point start = Clock::now();
  auto pipeline = std::make_unique<Pipeline>(shape_, wal_root,
                                             capture ? &captured_ : nullptr);
  const Status built = pipeline->Build(register_us);
  if (!built.ok()) {
    Fail("pipeline setup: " + built.ToString());
    return nullptr;
  }
  for (int64_t t = 0; t < kWarmupTicks; ++t) {
    RunTick(pipeline.get(), /*traced=*/false);
  }
  if (!errors_.empty()) return nullptr;
  *setup_s = std::chrono::duration<double>(Clock::now() - start).count() -
             (generate_wall_s_ - generate_before);
  return pipeline;
}

Fingerprint Bench::CheckAnswers(const Pipeline& pipeline) {
  Fingerprint print;
  print.wire_bytes = pipeline.BytesSent();
  std::vector<QueryRequest> requests;
  for (double phi : kGridPhis) requests.push_back(QueryRequest::Quantile(phi));
  requests.push_back(QueryRequest::Quantile(kOffGridPhi));
  constexpr size_t kGrid = sizeof(kGridPhis) / sizeof(kGridPhis[0]);
  std::vector<double> value_error_sum(kGrid, 0.0);
  int64_t bound_violations = 0;
  std::vector<double> window;
  for (const Target& target : checks_) {
    const QuerySpec spec = WithRequests(target, requests);
    auto cluster = pipeline.cluster_.Query(spec);
    auto host = pipeline.host_.Query(spec);
    const std::string what = qlove::engine::DescribeQuerySpec(spec);
    if (!cluster.ok() || !host.ok()) {
      Fail("check query failed: " + what + ": " +
           (cluster.ok() ? host.status() : cluster.status()).ToString());
      continue;
    }
    const QueryResult& answer = cluster.ValueOrDie();
    if (!SameAnswer(answer, host.ValueOrDie())) {
      Fail("cluster answer differs from the host tier: " + what);
    }
    if (!AllOutcomesOk(answer)) Fail("check outcome not OK: " + what);
    const int64_t expected = static_cast<int64_t>(target.members.size()) *
                             oracle_.KeyWindowCount(tick_);
    if (answer.window_count != expected) {
      Fail("window_count " + std::to_string(answer.window_count) +
           " != generated " + std::to_string(expected) + ": " + what);
    }
    print.window_events += answer.window_count;
    window.clear();
    for (const auto& [agent, key] : target.members) {
      oracle_.Gather(agent, key, tick_, &window);
    }
    std::sort(window.begin(), window.end());
    for (size_t i = 0; i < requests.size() && i < answer.outcomes.size();
         ++i) {
      const auto& outcome = answer.outcomes[i];
      const QuantileScore score =
          ScoreQuantile(window, requests[i].argument, outcome.value);
      print.rank_error_max = std::max(print.rank_error_max, score.rank_error);
      if (score.rank_error > outcome.rank_error_bound) ++bound_violations;
      if (i < kGrid) value_error_sum[i] += score.relative_value_error;
    }
  }
  for (double sum : value_error_sum) {
    print.value_error_pct = std::max(
        print.value_error_pct, 100.0 * sum / static_cast<double>(checks_.size()));
  }
  std::printf("# check: %zu targets, %lld window events, rank_error_max %.6g, "
              "value_error_pct %.6g, reported-bound violations %lld\n",
              checks_.size(), static_cast<long long>(print.window_events),
              print.rank_error_max, print.value_error_pct,
              static_cast<long long>(bound_violations));
  return print;
}

void Bench::Measure(Pipeline* pipeline) {
  auto wal_totals = [pipeline](int64_t* bytes, int64_t* fsyncs) {
    *bytes = 0;
    *fsyncs = 0;
    for (const auto& engine : pipeline->agents_) {
      const qlove::engine::EngineStats stats = engine->Stats();
      *bytes += stats.wal_bytes;
      *fsyncs += stats.wal_fsyncs;
    }
  };
  int64_t wal_bytes_before = 0;
  int64_t wal_fsyncs_before = 0;
  wal_totals(&wal_bytes_before, &wal_fsyncs_before);

  QueryLoad load(shape_, pipeline, &points_, &service_rollups_,
                 &name_rollups_, &delivery_seq_, options_.seed ^ 0x51ED27u);
  attempted_ = 0;
  failed_ = 0;
  excluded_cpu_s_ = 0.0;
  ledger_ = Ledger{};
  const int64_t events_per_tick =
      shape_.events_per_agent_tick() * shape_.agents;
  const int64_t bytes_start = pipeline->BytesSent();

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  load.Start(options_.seconds);
  const auto budget = std::chrono::duration<double>(options_.seconds);
  for (int64_t n = 0;
       n < kMinMeasuredTicks || Clock::now() - start < budget; ++n) {
    // Trace runs alternate: odd ticks traced, even ticks untraced.
    const bool traced = options_.trace && n % 2 == 1;
    const double wall_us = RunTick(pipeline, traced);
    measured_wall_us_ += wall_us;
    measured_events_ += events_per_tick;
    ++measured_ticks_;
    if (!traced) {
      untraced_wall_us_ += wall_us;
      untraced_events_ += events_per_tick;
      lag_us_.push_back(last_lag_us_);
    }
    if (n + 1 == kBytesTicks) {
      bytes_first_ticks_ = pipeline->BytesSent() - bytes_start;
    }
  }
  load.Stop();
  measured_cpu_s_ =
      ProcessCpuSeconds() - cpu_start - excluded_cpu_s_ - load.spin_cpu_s;
  // Producer probes only time traced ticks, so their totals are the
  // traced ticks' export and re-export spans.
  for (const ProducerProbe& probe : pipeline->agent_probes_) {
    ledger_.export_us += probe.us;
    ledger_.export_bytes += probe.bytes;
  }
  ledger_.reexport_us = pipeline->host_probe_.us;
  ledger_.reexport_bytes = pipeline->host_probe_.bytes;

  lag_ = Summarize(lag_us_);
  lag_tail_ = MedianBlockTail(lag_us_, kLagTailBlock);
  query_ = Summarize(load.latencies_us);
  query_tail_ = MedianBlockTail(load.latencies_us, shape_.query_tail_block);
  query_late_max_us_ = load.late_max_us;
  query_attempted_ = load.attempted;
  identity_checked_ = load.identity_checked;
  attempted_ += load.attempted;
  failed_ += load.failed;
  if (load.failed > 0) {
    Fail(std::to_string(load.failed) + " open-loop queries failed");
  }
  if (load.identity_mismatches > 0) {
    Fail(std::to_string(load.identity_mismatches) + " of " +
         std::to_string(load.identity_checked) +
         " sampled cluster answers differ from the host tier");
  }
  if (load.identity_checked == 0) {
    Fail("no open-loop answer could be compared with the host tier");
  }

  int64_t wal_bytes_after = 0;
  int64_t wal_fsyncs_after = 0;
  wal_totals(&wal_bytes_after, &wal_fsyncs_after);
  wal_bytes_ = wal_bytes_after - wal_bytes_before;
  wal_fsyncs_ = wal_fsyncs_after - wal_fsyncs_before;

  // End-of-run checks on the settled state, then the transport verdict:
  // exactly one resync (the initial full frame) per connection, nothing
  // else.
  CheckAnswers(*pipeline);
  counters_ = pipeline->ClientCounters();
  const int connections = pipeline->connections();
  if (counters_.resyncs != connections || counters_.connects != connections ||
      counters_.naks != 0 || counters_.retries != 0 ||
      counters_.connect_failures != 0 || counters_.ack_errors != 0 ||
      counters_.hello_rejects != 0) {
    Fail("transport counters: resyncs " + std::to_string(counters_.resyncs) +
         ", connects " + std::to_string(counters_.connects) + ", naks " +
         std::to_string(counters_.naks) + ", retries " +
         std::to_string(counters_.retries) + " (expected one resync and one "
         "connect per connection, nothing else)");
  }
}

void Bench::TraceExtras(Pipeline* pipeline) {
  // Query layer: each kind's service time on the settled pipeline.
  auto probe = [pipeline, this](const std::vector<Target>& targets,
                                bool offgrid) {
    std::vector<double> times;
    SplitMix choice(options_.seed + 99);
    for (int i = 0; i < kProbeQueries; ++i) {
      const Target& target = targets[choice.Below(targets.size())];
      const QuerySpec spec =
          offgrid ? WithRequests(target,
                                 {QueryRequest::Quantile(kOffGridPhi)})
                  : WithRequests(target,
                                 {QueryRequest::Quantile(0.99),
                                  QueryRequest::Rank(target.rank_argument)});
      const Clock::time_point start = Clock::now();
      auto result = pipeline->cluster_.Query(spec);
      times.push_back(Micros(Clock::now() - start));
      if (!result.ok() || !AllOutcomesOk(result.ValueOrDie())) {
        Fail("probe query failed: " +
             qlove::engine::DescribeQuerySpec(spec));
      }
    }
    return Median(times);
  };
  probe_point_us_ = probe(points_, false);
  probe_rollup_us_ = probe(name_rollups_, false);
  probe_offgrid_us_ = probe(points_, true);

  // Aggregator apply cost: the captured agent frames replayed in order
  // into a shadow host tier; only frames of traced ticks are timed.
  AggregatorEngine shadow;
  double us = 0.0;
  int64_t frames = 0;
  for (const ProducerProbe::Frame& frame : captured_) {
    const Clock::time_point start = Clock::now();
    auto ack = shadow.IngestFrame(frame.bytes);
    const double took = Micros(Clock::now() - start);
    if (!ack.ok() || !ack.ValueOrDie().applied) {
      Fail("shadow ingest of a captured frame was not applied");
      break;
    }
    if (frame.traced) {
      us += took;
      ++frames;
    }
  }
  shadow_ingest_us_per_frame_ = frames > 0 ? us / frames : 0.0;
}

int Bench::Run() {
  std::unique_ptr<Pipeline> pipeline;
  std::vector<Fingerprint> prints;
  for (int s = 0; s < kSetups && errors_.empty(); ++s) {
    pipeline.reset();  // tear the previous pipeline down first
    double setup_s = 0.0;
    double register_us = 0.0;
    pipeline = Setup(s, &setup_s, &register_us);
    if (!pipeline) break;
    setup_s_.push_back(setup_s);
    register_us_per_key_.push_back(
        register_us / (double(shape_.keys_per_agent()) * shape_.agents));
    prints.push_back(CheckAnswers(*pipeline));
    if (prints.back() != prints.front()) {
      Fail("determinism: setup " + std::to_string(s) +
           " differs from setup 0 for the same seed (wire bytes " +
           std::to_string(prints.back().wire_bytes) + " vs " +
           std::to_string(prints.front().wire_bytes) + ")");
    }
  }
  if (!pipeline || !errors_.empty()) return Report();
  fingerprint_ = prints.front();
  Measure(pipeline.get());
  if (options_.trace) TraceExtras(pipeline.get());
  pipeline.reset();
  return Report();
}

int Bench::Report() {
  const bool correct = errors_.empty();
  std::vector<Metric> metrics;
  if (correct && !options_.trace) {
    std::printf("# workload %s seed %llu: %lld measured ticks, %lld events, "
                "%lld queries (%lld compared with the host tier)\n",
                shape_.name.c_str(),
                static_cast<unsigned long long>(options_.seed),
                static_cast<long long>(measured_ticks_),
                static_cast<long long>(measured_events_),
                static_cast<long long>(query_attempted_),
                static_cast<long long>(identity_checked_));
    // How MedianBlockTail split the samples, for the output.
    auto blocks_of = [](size_t count, size_t block) {
      const size_t blocks = std::max<size_t>(count / block, 1);
      const size_t per_block = count / blocks;
      char text[160];
      std::snprintf(text, sizeof(text),
                    "the median over %zu blocks (~%zu each) of each block's "
                    "p%.2f",
                    blocks, per_block,
                    Summarize(std::vector<double>(per_block, 0.0))
                        .tail_percentile);
      return std::string(text);
    };
    std::printf("# visible_lag_us_tail is %s of %zu ticks; query_us_tail is "
                "%s of %zu queries\n",
                blocks_of(lag_.count, kLagTailBlock).c_str(), lag_.count,
                blocks_of(query_.count, shape_.query_tail_block).c_str(),
                query_.count);
    std::printf("# WAL: fsync every tick, inside the checkout; loopback TCP\n");
    const double ok_frac =
        1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
    metrics = {
        {"setup_s", Median(setup_s_), "s"},
        {"ingest_mevps", measured_events_ / measured_wall_us_, "Mevents/s"},
        {"cpu_ns_per_event", measured_cpu_s_ * 1e9 / measured_events_, "ns"},
        {"visible_lag_us_p50", lag_.p50, "us"},
        {"visible_lag_us_tail", lag_tail_, "us"},
        {"query_us_p50", query_.p50, "us"},
        {"query_us_tail", query_tail_, "us"},
        {"wire_bytes_per_tick",
         static_cast<double>(bytes_first_ticks_) / kBytesTicks, "B"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"rank_error_max", fingerprint_.rank_error_max, "fraction"},
        {"value_error_pct", fingerprint_.value_error_pct, "%"},
        {"ok_op_frac", ok_frac, "fraction"},
    };
  } else if (correct) {
    const Ledger& l = ledger_;
    const double ticks = static_cast<double>(std::max<int64_t>(l.ticks, 1));
    const double spans = l.record_us + l.flush_us + l.tick_us +
                         l.agent_deliver_us + l.host_deliver_us;
    const double unattributed_pct =
        l.wall_us > 0.0 ? 100.0 * (l.wall_us - spans) / l.wall_us : 0.0;
    const double untraced_rate = untraced_events_ / untraced_wall_us_;
    const double traced_rate = l.events / l.wall_us;
    std::printf("# traced ticks %lld of %lld; ledger covers %.3f%% of the "
                "traced tick wall time\n",
                static_cast<long long>(l.ticks),
                static_cast<long long>(measured_ticks_),
                100.0 - unattributed_pct);
    if (unattributed_pct > kLedgerTolerancePct) {
      Fail("ledger: layer spans leave " + std::to_string(unattributed_pct) +
           " % of the traced tick wall time unattributed (tolerance " +
           std::to_string(kLedgerTolerancePct) + " %)");
    }
    const double measured = static_cast<double>(measured_ticks_);
    metrics = {
        {"engine.register_us_per_key", Median(register_us_per_key_), "us"},
        {"engine.record_ns_per_event", l.record_us * 1e3 / l.events, "ns"},
        {"engine.flush_us_per_tick", l.flush_us / ticks, "us"},
        {"engine.tick_us", l.tick_us / ticks, "us"},
        {"wal.bytes_per_tick", wal_bytes_ / measured, "B"},
        {"wal.fsyncs_per_tick", wal_fsyncs_ / measured, "count"},
        {"export.us_per_tick", l.export_us / ticks, "us"},
        {"export.bytes_per_tick", l.export_bytes / ticks, "B"},
        {"net.agent_rtt_us_per_tick", (l.agent_deliver_us - l.export_us) / ticks,
         "us"},
        {"agg.ingest_us_per_frame", shadow_ingest_us_per_frame_, "us"},
        {"agg.reexport_us_per_tick", l.reexport_us / ticks, "us"},
        {"agg.reexport_bytes_per_tick", l.reexport_bytes / ticks, "B"},
        {"net.cluster_rtt_us_per_tick",
         (l.host_deliver_us - l.reexport_us) / ticks, "us"},
        {"query.point_us_p50", probe_point_us_, "us"},
        {"query.rollup_us_p50", probe_rollup_us_, "us"},
        {"query.offgrid_us_p50", probe_offgrid_us_, "us"},
        {"net.resyncs", static_cast<double>(counters_.resyncs), "count"},
        {"net.naks", static_cast<double>(counters_.naks), "count"},
        {"net.retries", static_cast<double>(counters_.retries), "count"},
        {"loadgen.query_late_us_max", query_late_max_us_, "us"},
        {"ledger.unattributed_pct", unattributed_pct, "%"},
        {"trace.overhead_pct",
         100.0 * (untraced_rate - traced_rate) / untraced_rate, "%"},
    };
  }
  const bool ok = errors_.empty();
  std::string json = std::string("{\"correct\": ") + (ok ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<int64_t>(attempted_, 1)) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  if (ok) {
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
      json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--wal-dir") {
      options->wal_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(options->workload) != nullptr;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  fleetbench::Options options;
  if (!fleetbench::ParseArgs(argc, argv, &options)) {
    std::string names;
    for (const std::string& name : fleetbench::WorkloadNames()) {
      names += (names.empty() ? "" : "|") + name;
    }
    std::fprintf(stderr,
                 "usage: fleet_bench --workload %s --seed N --seconds S "
                 "--trace 0|1 [--wal-dir DIR]\n",
                 names.c_str());
    return 2;
  }
  fleetbench::Bench bench(*fleetbench::FindWorkload(options.workload),
                          options);
  return bench.Run();
}
