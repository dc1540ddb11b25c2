// Fleet monitor: a fleet of hosts across three services reports latency
// samples into one sharded TelemetryEngine; every simulated second the
// engine Ticks (sub-window boundary) and the monitor prints merged
// per-service window quantiles — the datacenter-monitoring shape the paper
// targets (many machines, many metrics, one Qmonitor-style query each).
//
// Each service picks its own sketch backend, all served by the same engine:
// netmon keeps the paper's QLOVE operator (low value error, few-k tails)
// with one metric per *host*, search runs GK summaries (deterministic rank
// error), and ads runs the Exact oracle (its Pareto tail is too precious
// to approximate). Every quantile is annotated with the pipeline that
// produced it — Level-2 / top-k / sample-k for QLOVE, the weighted sketch
// merge otherwise.
//
// Every read goes through engine.Query: the per-metric dashboard asks for
// the registered grid phis, and a tag-selector rollup merges every netmon per-host metric into
// one fleet-wide answer, asks an ad-hoc p95 (not in the registered grid)
// and p99, and inverts the CDF — "what fraction of fleet RTTs exceeded
// 900us?" — all in one engine.Query call.
//
//   $ ./engine_fleet_monitor

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "workload/generators.h"

namespace {

struct Service {
  qlove::engine::MetricKey key;
  qlove::engine::BackendOptions backend;
  std::unique_ptr<qlove::workload::Generator> generator;
  int hosts;             // reporting hosts (netmon: one metric per host)
  int samples_per_host;  // samples per host per second
};

// "TopK" -> "topk": compact per-quantile source tag for the dashboard line.
std::string SourceTag(qlove::core::OutcomeSource source) {
  std::string name = qlove::core::OutcomeSourceName(source);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  if (name == "sketchmerge") return "merge";
  return name;
}

}  // namespace

int main() {
  // 1. One engine for the whole fleet: 4 lock-striped shards per metric,
  //    per-shard windows of 8 sub-windows (one sub-window per second).
  qlove::engine::EngineOptions options;
  options.num_shards = 4;
  options.shard_window = qlove::WindowSpec(4096, 512);
  options.phis = {0.5, 0.9, 0.99, 0.999};
  // Dogfooded observability: queries at or above 5ms land in the engine's
  // slow-query log and trip the hook below (the exit block prints both).
  options.slow_query_threshold_us = 5000.0;
  qlove::engine::TelemetryEngine engine(options);
  int slow_query_hook_calls = 0;
  engine.SetSlowQueryHook(
      [&slow_query_hook_calls](const qlove::engine::SlowQueryRecord&) {
        ++slow_query_hook_calls;
      });

  // 2. The fleet: three services with different host counts, latency
  //    profiles, and sketch backends, all reporting into service-tagged
  //    metrics of the same engine. The netmon service registers one metric
  //    per host (the WithTag builder derives the per-host keys) so the
  //    query layer can roll the fleet up by selector.
  qlove::engine::BackendOptions qlove_backend;  // default: QLOVE
  qlove::engine::BackendOptions gk_backend;
  gk_backend.kind = qlove::engine::BackendKind::kGk;
  gk_backend.epsilon = 0.001;  // fine enough to resolve p99.9
  qlove::engine::BackendOptions exact_backend;
  exact_backend.kind = qlove::engine::BackendKind::kExact;

  const qlove::engine::MetricKey netmon_base(
      "rtt_us", {{"service", "netmon"}, {"dc", "eu-1"}});
  constexpr int kNetmonHosts = 8;

  std::vector<Service> services;
  services.push_back({netmon_base, qlove_backend,
                      std::make_unique<qlove::workload::NetMonGenerator>(7),
                      /*hosts=*/kNetmonHosts, /*samples_per_host=*/256});
  services.push_back({qlove::engine::MetricKey(
                          "latency_us", {{"service", "search"}, {"dc", "eu-1"}}),
                      gk_backend,
                      std::make_unique<qlove::workload::SearchGenerator>(11),
                      /*hosts=*/32, /*samples_per_host=*/64});
  services.push_back({qlove::engine::MetricKey(
                          "latency_us", {{"service", "ads"}, {"dc", "eu-1"}}),
                      exact_backend,
                      std::make_unique<qlove::workload::ParetoGenerator>(13),
                      /*hosts=*/16, /*samples_per_host=*/128});
  for (const Service& service : services) {
    // netmon registers its per-host keys; the others one service metric.
    const int metrics = service.backend.kind ==
                                qlove::engine::BackendKind::kQlove
                            ? service.hosts
                            : 1;
    for (int m = 0; m < metrics; ++m) {
      const qlove::engine::MetricKey key =
          metrics > 1 ? service.key.WithTag("host", "h" + std::to_string(m))
                      : service.key;
      const qlove::Status status =
          engine.RegisterMetric(key, service.backend);
      if (!status.ok()) {
        std::fprintf(stderr, "RegisterMetric(%s) failed: %s\n",
                     key.ToString().c_str(), status.ToString().c_str());
        return 1;
      }
    }
  }

  // The per-metric dashboard: the service-level metrics (the netmon
  // per-host family is elided; the rollup below covers it), in canonical
  // key order so the block diffs stably second over second, each read at
  // the registered grid phis.
  std::vector<qlove::engine::MetricKey> dashboard;
  for (const Service& service : services) {
    if (service.backend.kind != qlove::engine::BackendKind::kQlove) {
      dashboard.push_back(service.key);
    }
  }
  std::sort(dashboard.begin(), dashboard.end());

  // The fleet rollup: every netmon per-host metric, one QuerySpec. p95 is
  // deliberately off the registered grid; the Rank request inverts the
  // CDF at 900us.
  const qlove::engine::TagSelector netmon_fleet{
      "rtt_us", {{"service", "netmon"}, {"dc", "eu-1"}}};
  constexpr double kSloUs = 900.0;

  // 3. Simulate 24 seconds of fleet traffic: every host reports a batch,
  //    every second the engine Ticks, every 4th second we query.
  std::vector<double> batch;
  for (int second = 1; second <= 24; ++second) {
    for (Service& service : services) {
      const bool per_host =
          service.backend.kind == qlove::engine::BackendKind::kQlove;
      for (int host = 0; host < service.hosts; ++host) {
        const qlove::engine::MetricKey key =
            per_host ? service.key.WithTag("host", "h" + std::to_string(host))
                     : service.key;
        batch.clear();
        for (int s = 0; s < service.samples_per_host; ++s) {
          batch.push_back(service.generator->Next());
        }
        const qlove::Status recorded = engine.RecordBatch(key, batch);
        if (!recorded.ok()) {
          std::fprintf(stderr, "RecordBatch(%s) failed: %s\n",
                       key.ToString().c_str(), recorded.ToString().c_str());
          return 1;
        }
      }
    }
    engine.Tick();

    if (second % 4 != 0) continue;
    std::printf("t=%2ds ----------------------------------------------\n",
                second);

    // Per-metric dashboard: the grid quantiles of each service metric.
    for (const qlove::engine::MetricKey& key : dashboard) {
      qlove::engine::QuerySpec grid = qlove::engine::QuerySpec::ForKey(key);
      for (double phi : options.phis) {
        grid.With(qlove::engine::QueryRequest::Quantile(phi));
      }
      auto answered = engine.Query(grid);
      if (!answered.ok()) {
        std::fprintf(stderr, "Query(%s) failed: %s\n", key.ToString().c_str(),
                     answered.status().ToString().c_str());
        return 1;
      }
      const qlove::engine::QueryResult& metric = answered.ValueOrDie();
      std::printf("  %-42s [%s]", key.ToString().c_str(),
                  qlove::engine::BackendKindName(metric.backend));
      for (size_t i = 0; i < metric.outcomes.size(); ++i) {
        std::printf(" p%g=%.0f(%s)", options.phis[i] * 100.0,
                    metric.outcomes[i].value,
                    SourceTag(metric.outcomes[i].source).c_str());
      }
      std::printf("  (%lld ev%s)\n",
                  static_cast<long long>(metric.window_count),
                  metric.burst_active ? ", burst" : "");
    }

    // Fleet-wide netmon rollup through the query layer: ad-hoc p95,
    // grid p99, and the inverse-CDF SLO probe, across all per-host
    // metrics in one shot.
    auto rolled = engine.Query(
        qlove::engine::QuerySpec::ForSelector(netmon_fleet)
            .With(qlove::engine::QueryRequest::Quantile(0.95))
            .With(qlove::engine::QueryRequest::Quantile(0.99))
            .With(qlove::engine::QueryRequest::Rank(kSloUs)));
    if (!rolled.ok()) {
      std::fprintf(stderr, "Query failed: %s\n",
                   rolled.status().ToString().c_str());
      return 1;
    }
    const qlove::engine::QueryResult& fleet = rolled.ValueOrDie();
    const qlove::engine::QueryOutcome& p95 = fleet.outcomes[0];
    const qlove::engine::QueryOutcome& p99 = fleet.outcomes[1];
    const qlove::engine::QueryOutcome& slo = fleet.outcomes[2];
    std::printf("  %-42s [rollup of %zu hosts]"
                " p95=%.0f(%s,±%.3f) p99=%.0f(%s)"
                "  >%.0fus: %.2f%%  (%lld ev)\n",
                netmon_fleet.ToString().c_str(), fleet.matched.size(),
                p95.value, SourceTag(p95.source).c_str(),
                p95.rank_error_bound, p99.value,
                SourceTag(p99.source).c_str(), kSloUs,
                (1.0 - slo.value) * 100.0,
                static_cast<long long>(fleet.window_count));
  }

  // 4. Exit health block: the engine monitoring the fleet monitors itself
  //    with the same sketches. Stats() reads the `__qlove/` namespace back
  //    (counters, ring high-water/stalls, per-stage p50/p99, per-metric
  //    memory); the Tick-latency p99 below goes through the ordinary
  //    query surface to show internal health is just another metric.
  std::printf("\n-- engine self-metrics (dogfooded `__qlove/` sketches) --\n");
  const qlove::engine::EngineStats stats = engine.Stats();
  std::printf("%s", qlove::engine::FormatEngineStats(stats).c_str());
  if (stats.enabled) {
    auto tick_p99 = engine.Query(
        qlove::engine::QuerySpec::ForKey(
            qlove::engine::StageMetricKey(qlove::engine::Stage::kTick))
            .With(qlove::engine::QueryRequest::Quantile(0.99)));
    if (tick_p99.ok() && tick_p99.ValueOrDie().outcomes[0].status.ok()) {
      std::printf("  Query(%s, p99) = %.1fus\n",
                  qlove::engine::StageMetricKey(qlove::engine::Stage::kTick)
                      .ToString()
                      .c_str(),
                  tick_p99.ValueOrDie().outcomes[0].value);
    }
    std::printf("  slow-query hook fired %d time(s) (threshold %.0fus)\n",
                slow_query_hook_calls, options.slow_query_threshold_us);
  }
  return 0;
}
