// Copyright 2026 The QLOVE Reproduction Authors
// Inputs of the fleet benchmark (fleet_bench.cc): the workload shapes, the
// seeded value generator, the exact sliding-window oracle every answer is
// checked against, and the accuracy scoring. Nothing here calls into the
// QLOVE library: the program under test only ever sees the values these
// produce, so a change to the library cannot change the inputs.

#ifndef QLOVE_FLEETBENCH_WORKLOAD_H_
#define QLOVE_FLEETBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fleetbench {

/// Sub-windows in every metric's window: one Tick closes one sub-window,
/// so the window always holds the last kWindowTicks ticks of events.
inline constexpr int kWindowTicks = 8;

/// Quantile grid every metric registers (the engine default) and the
/// off-grid phi the queries and accuracy checks also ask for.
inline constexpr double kGridPhis[] = {0.5, 0.9, 0.99, 0.999};
inline constexpr double kOffGridPhi = 0.95;

/// One benchmark workload. Keys of an agent are the cross product
/// names x hosts x services; events of a tick visit every key once per
/// round, rounds_per_tick times, so every key gets the same count per tick.
struct WorkloadShape {
  std::string name;
  int agents = 1;
  int names = 1;
  int hosts_per_agent = 1;
  int services = 1;
  int shards = 1;
  size_t ring_capacity = 0;  ///< 0 keeps the engine default.
  int rounds_per_tick = 1;   ///< Events per key per tick.
  double query_rate_hz = 200.0;
  /// query_us_tail is the median over blocks of this many queries of each
  /// block's tail (1,000 -> p99, 100 -> p90). Chosen so the tail sits
  /// inside one latency mode of the workload rather than on the edge
  /// between two, where it would jump from run to run.
  size_t query_tail_block = 1000;
  /// Open-loop query mix (fractions of queries).
  double point_frac = 1.0;
  double service_rollup_frac = 0.0;
  double name_rollup_frac = 0.0;

  int keys_per_agent() const { return names * hosts_per_agent * services; }
  int64_t events_per_agent_tick() const {
    return int64_t{keys_per_agent()} * rounds_per_tick;
  }
  /// Events one shard of one metric sees per tick (the window period).
  int64_t shard_period() const {
    const int64_t per_shard = rounds_per_tick / shards;
    return per_shard > 0 ? per_shard : 1;
  }
};

/// The workloads by name; nullptr for an unknown name.
const WorkloadShape* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// Where key \p key of agent \p agent sits in the names x hosts x services
/// cross product, plus the tag values the benchmark gives it.
struct KeyCoordinates {
  int name = 0;
  int host = 0;     ///< Fleet-wide host index (agent * hosts_per_agent + h).
  int service = 0;
};
KeyCoordinates Coordinates(const WorkloadShape& shape, int agent, int key);
std::string MetricName(int name);
std::string HostTag(int host);
std::string ServiceTag(int service);

/// splitmix64: a full-period 64-bit stream, identical on every platform.
/// Drives the value generator and the benchmark's own choices (check
/// targets, query order).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Unit() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Datacenter RTT-like values in integer microseconds (log-normal body,
/// median ~800 us, plus a 0.3 % truncated-Pareto tail up to ~74 ms), drawn
/// from a precomputed inverse-CDF table so generation costs a few ns per
/// value. Deterministic for a seed.
class ValueGenerator {
 public:
  explicit ValueGenerator(uint64_t seed);

  /// Fills \p out with \p count values; value i belongs to key
  /// i % keys_per_round, whose metric-name index scales it (so rollups
  /// across names pool differently shaped populations).
  void Fill(const WorkloadShape& shape, int agent, double* out, size_t count);

 private:
  SplitMix random_;
  std::vector<float> body_;  ///< Inverse CDF of the body at fixed steps.
};

/// The exact contents of every key's window: the last kWindowTicks tick
/// blocks of one agent, kept as the generator wrote them.
class Oracle {
 public:
  Oracle(const WorkloadShape& shape);

  /// The block tick \p tick records from (overwrites the oldest).
  double* BlockFor(int agent, int64_t tick);

  /// Appends the window values of \p key of \p agent to \p out, given that
  /// \p ticks ticks have completed.
  void Gather(int agent, int key, int64_t ticks,
              std::vector<double>* out) const;

  /// Events of one key in the window after \p ticks completed ticks.
  int64_t KeyWindowCount(int64_t ticks) const;

 private:
  const WorkloadShape& shape_;
  /// blocks_[agent][slot]: events_per_agent_tick values of one tick.
  std::vector<std::vector<std::vector<double>>> blocks_;
};

/// Accuracy of one answered quantile against the sorted exact window.
struct QuantileScore {
  /// Distance from phi to the rank interval the answer occupies
  /// [#below / n, #at-or-below / n] (0 when phi falls inside it).
  double rank_error = 0.0;
  /// |answer - exact| / exact, with exact the nearest-rank quantile.
  double relative_value_error = 0.0;
};
QuantileScore ScoreQuantile(const std::vector<double>& sorted, double phi,
                            double answer);

/// Order statistics of \p samples: the median, and the "tail" — the
/// highest percentile that still has at least ten samples beyond it.
struct SampleSummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  ///< Which percentile `tail` is.
};
SampleSummary Summarize(std::vector<double> samples);

/// The median, over consecutive blocks of at least \p block samples (as
/// many equal blocks as fit, covering every sample), of each block's
/// Summarize().tail: a tail that one stall cannot move. Falls back to the
/// whole-sample tail when there is not one full block.
double MedianBlockTail(const std::vector<double>& samples, size_t block);

}  // namespace fleetbench

#endif  // QLOVE_FLEETBENCH_WORKLOAD_H_
