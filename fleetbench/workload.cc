// Copyright 2026 The QLOVE Reproduction Authors

#include "workload.h"

#include <algorithm>
#include <cmath>

namespace fleetbench {
namespace {

std::vector<WorkloadShape> MakeWorkloads() {
  std::vector<WorkloadShape> all;

  // The per-event path: few keys, many events, the gated 8-shard qlove
  // configuration. Wire and aggregator layers see 8 small metrics.
  WorkloadShape hot;
  hot.name = "hot_path";
  hot.agents = 1;
  hot.services = 8;
  hot.shards = 8;
  hot.rounds_per_tick = 31250;  // 250k events per tick
  hot.query_rate_hz = 200.0;
  // Lock waits touch well under 1 % of hot_path's queries, fewer than the
  // vCPU preemptions a shared machine adds (up to ~5 % of queries in a
  // bad run), so p99 would measure the machine. p90 stays in the
  // service-time mode.
  hot.query_tail_block = 100;
  all.push_back(hot);

  // Per-key fixed costs: 10k keys with 16 events each per tick, one shard
  // and a 16-slot ring (the cardinality-sweep configuration).
  WorkloadShape wide;
  wide.name = "wide_keys";
  wide.agents = 1;
  wide.names = 10;
  wide.hosts_per_agent = 25;
  wide.services = 40;
  wide.shards = 1;
  wide.ring_capacity = 16;
  wide.rounds_per_tick = 16;
  wide.query_rate_hz = 200.0;
  all.push_back(wide);

  // The read side: three agents feeding one host tier, queried with point
  // lookups and two sizes of rollup.
  WorkloadShape fleet;
  fleet.name = "fleet_dashboard";
  fleet.agents = 3;
  fleet.names = 8;
  fleet.hosts_per_agent = 1;
  fleet.services = 64;
  fleet.shards = 4;
  fleet.rounds_per_tick = 64;  // 32,768 events per agent per tick
  // The query tail is a wait for the cluster's mutex, which ingest holds
  // for a few ms once per ~250 ms tick: only ~2 % of queries land in it.
  // At 200/s a 30 s run held ~150 such waits, and the tail's quartile
  // spread over six runs was 0.32; at 1000/s it was 0.08.
  fleet.query_rate_hz = 1000.0;
  // 70/20/10 rather than 50/30/20: with fewer than ~60 % point queries the
  // median query sits on the edge between the fast point mode and the
  // rollup mode, jumping between them from run to run.
  fleet.point_frac = 0.7;
  fleet.service_rollup_frac = 0.2;
  fleet.name_rollup_frac = 0.1;
  all.push_back(fleet);
  return all;
}

const std::vector<WorkloadShape>& Workloads() {
  static const std::vector<WorkloadShape> workloads = MakeWorkloads();
  return workloads;
}

/// Acklam's rational approximation of the standard normal inverse CDF
/// (relative error < 1.2e-9), used once to build the generator table.
double InverseNormal(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00, 2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double low = 0.02425;
  if (p < low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - low) return -InverseNormal(1.0 - p);
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

// Value distribution: log-normal body (median 798 us, P90 ~1,247 us) and a
// truncated Pareto(alpha = 1) tail on [2,000, 74,265] us with 0.3 % mass.
constexpr double kBodyLogMu = 6.682;
constexpr double kBodyLogSigma = 0.348;
constexpr double kTailProbability = 0.003;
constexpr double kTailMin = 2000.0;
constexpr double kTailMax = 74265.0;
constexpr size_t kBodyTableSize = 4096;

}  // namespace

const WorkloadShape* FindWorkload(std::string_view name) {
  for (const WorkloadShape& shape : Workloads()) {
    if (shape.name == name) return &shape;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadShape& shape : Workloads()) names.push_back(shape.name);
  return names;
}

KeyCoordinates Coordinates(const WorkloadShape& shape, int agent, int key) {
  KeyCoordinates at;
  at.service = key % shape.services;
  at.host = agent * shape.hosts_per_agent +
            (key / shape.services) % shape.hosts_per_agent;
  at.name = key / (shape.services * shape.hosts_per_agent);
  return at;
}

std::string MetricName(int name) {
  static const char* const kNames[] = {"rtt_us",   "rpc_us",   "disk_us",
                                       "dns_us",   "queue_us", "gc_us",
                                       "tls_us",   "db_us",    "cache_us",
                                       "auth_us"};
  constexpr int kCount = static_cast<int>(sizeof(kNames) / sizeof(kNames[0]));
  if (name < kCount) return kNames[name];
  return "metric" + std::to_string(name) + "_us";
}

std::string HostTag(int host) { return "h" + std::to_string(host); }
std::string ServiceTag(int service) { return "s" + std::to_string(service); }

ValueGenerator::ValueGenerator(uint64_t seed) : random_(seed) {
  body_.resize(kBodyTableSize);
  for (size_t i = 0; i < kBodyTableSize; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / kBodyTableSize;
    body_[i] = static_cast<float>(
        std::exp(kBodyLogMu + kBodyLogSigma * InverseNormal(p)));
  }
}

void ValueGenerator::Fill(const WorkloadShape& shape, int agent, double* out,
                          size_t count) {
  const int keys = shape.keys_per_agent();
  std::vector<double> scale(static_cast<size_t>(keys));
  for (int k = 0; k < keys; ++k) {
    scale[static_cast<size_t>(k)] =
        1.0 + 0.25 * Coordinates(shape, agent, k).name;
  }
  const double table_last = static_cast<double>(kBodyTableSize - 1);
  size_t key = 0;
  for (size_t i = 0; i < count; ++i) {
    const double u = random_.Unit();
    double value;
    if (u < kTailProbability) {
      const double w = u / kTailProbability;
      value = kTailMin / (1.0 - w * (1.0 - kTailMin / kTailMax));
    } else {
      const double w = (u - kTailProbability) / (1.0 - kTailProbability);
      const double pos =
          std::clamp(w * kBodyTableSize - 0.5, 0.0, table_last);
      const size_t lo = static_cast<size_t>(pos);
      const size_t hi = std::min(lo + 1, kBodyTableSize - 1);
      const double frac = pos - static_cast<double>(lo);
      value = body_[lo] + frac * (body_[hi] - body_[lo]);
    }
    out[i] = std::round(value * scale[key]);
    if (++key == static_cast<size_t>(keys)) key = 0;
  }
}

Oracle::Oracle(const WorkloadShape& shape) : shape_(shape) {
  blocks_.resize(static_cast<size_t>(shape.agents));
  for (auto& agent_blocks : blocks_) {
    agent_blocks.assign(
        kWindowTicks,
        std::vector<double>(static_cast<size_t>(shape.events_per_agent_tick())));
  }
}

double* Oracle::BlockFor(int agent, int64_t tick) {
  return blocks_[static_cast<size_t>(agent)]
                [static_cast<size_t>(tick % kWindowTicks)]
                    .data();
}

void Oracle::Gather(int agent, int key, int64_t ticks,
                    std::vector<double>* out) const {
  const int64_t first = std::max<int64_t>(0, ticks - kWindowTicks);
  const size_t keys = static_cast<size_t>(shape_.keys_per_agent());
  for (int64_t tick = first; tick < ticks; ++tick) {
    const std::vector<double>& block =
        blocks_[static_cast<size_t>(agent)]
               [static_cast<size_t>(tick % kWindowTicks)];
    for (size_t i = static_cast<size_t>(key); i < block.size(); i += keys) {
      out->push_back(block[i]);
    }
  }
}

int64_t Oracle::KeyWindowCount(int64_t ticks) const {
  return std::min<int64_t>(ticks, kWindowTicks) * shape_.rounds_per_tick;
}

QuantileScore ScoreQuantile(const std::vector<double>& sorted, double phi,
                            double answer) {
  QuantileScore score;
  const double n = static_cast<double>(sorted.size());
  if (sorted.empty()) return score;
  const double below =
      static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(),
                                           answer) -
                          sorted.begin());
  const double at_or_below =
      static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(),
                                           answer) -
                          sorted.begin());
  const double lo = below / n;
  const double hi = at_or_below / n;
  if (phi < lo) score.rank_error = lo - phi;
  if (phi > hi) score.rank_error = phi - hi;
  const size_t rank = static_cast<size_t>(
      std::clamp(std::ceil(phi * n), 1.0, n));
  const double exact = sorted[rank - 1];
  score.relative_value_error =
      exact != 0.0 ? std::fabs(answer - exact) / std::fabs(exact) : 0.0;
  return score;
}

SampleSummary Summarize(std::vector<double> samples) {
  SampleSummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  summary.p50 = n % 2 == 1
                    ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  if (n > 10) {
    summary.tail = samples[n - 11];  // exactly ten samples above it
    summary.tail_percentile = 100.0 * static_cast<double>(n - 10) / n;
  } else {
    summary.tail = samples.back();
    summary.tail_percentile = 100.0;
  }
  return summary;
}

double MedianBlockTail(const std::vector<double>& samples, size_t block) {
  const size_t blocks = block > 0 ? samples.size() / block : 0;
  if (blocks == 0) return Summarize(samples).tail;
  std::vector<double> tails;
  for (size_t b = 0; b < blocks; ++b) {
    tails.push_back(Summarize(std::vector<double>(
                                  samples.begin() + b * samples.size() / blocks,
                                  samples.begin() +
                                      (b + 1) * samples.size() / blocks))
                        .tail);
  }
  return Summarize(std::move(tails)).p50;
}

}  // namespace fleetbench
