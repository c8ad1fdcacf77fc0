// Perf-trajectory recorder: runs the engine + proxy-sim benchmarks with a
// plain chrono harness (no google-benchmark dependency) and writes the
// results as JSON so every PR can snapshot BENCH_engine.json and the perf
// history stays diffable.
//
// Usage: emit_bench_json [output.json]   (default: BENCH_engine.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "engine_workloads.hpp"
#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/rng.hpp"

namespace {

using specpf::Rng;
using specpf::bench::best_time;
using specpf::bench::Metric;

double bench_schedule_run(std::size_t events) {
  Rng rng(1);
  return best_time(
      [&] { specpf::benchwork::schedule_and_run(rng, events); });
}

double bench_timer_rearm() {
  Rng rng(2);
  return best_time([&] { specpf::benchwork::timer_rearm(rng); });
}

double bench_ps_server(std::uint64_t* jobs_out) {
  std::uint64_t completed = 0;
  const double secs = best_time(
      [&] { completed = specpf::benchwork::ps_server_throughput(); });
  *jobs_out = completed;
  return secs;
}

double bench_ps_deep_equal(std::uint64_t* jobs_out) {
  std::uint64_t completed = 0;
  const double secs = best_time(
      [&] { completed = specpf::benchwork::ps_server_deep_equal(); });
  *jobs_out = completed;
  return secs;
}

double bench_proxy_sim(std::uint64_t* requests_out) {
  specpf::ProxySimConfig config;
  config.num_users = 8;
  config.duration = 300.0;
  config.warmup = 30.0;
  config.seed = 11;
  std::uint64_t requests = 0;
  const double secs = best_time([&] {
    specpf::ThresholdPolicy policy(specpf::core::InteractionModel::kModelA);
    const auto result = run_proxy_sim(config, policy);
    requests = result.requests;
  });
  *requests_out = requests;
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_engine.json";

  std::vector<Metric> metrics;
  const std::size_t kSizes[] = {1024, 16384, 131072};
  for (std::size_t events : kSizes) {
    const double secs = bench_schedule_run(events);
    const double per_event_ns = secs / static_cast<double>(events) * 1e9;
    const std::string base =
        "engine.schedule_and_run." + std::to_string(events);
    metrics.push_back({base + ".events_per_sec",
                       static_cast<double>(events) / secs, "events/s"});
    metrics.push_back({base + ".ns_per_event", per_event_ns, "ns"});
  }

  const double rearm_secs = bench_timer_rearm();
  metrics.push_back({"engine.timer_rearm.ms_per_iter", rearm_secs * 1e3,
                     "ms"});

  std::uint64_t ps_jobs = 0;
  const double ps_secs = bench_ps_server(&ps_jobs);
  metrics.push_back({"ps_server.ops_per_sec",
                     static_cast<double>(ps_jobs) / ps_secs, "jobs/s"});

  std::uint64_t deep_jobs = 0;
  const double deep_secs = bench_ps_deep_equal(&deep_jobs);
  metrics.push_back({"ps_server.deep_equal.ops_per_sec",
                     static_cast<double>(deep_jobs) / deep_secs, "jobs/s"});

  std::uint64_t requests = 0;
  const double proxy_secs = bench_proxy_sim(&requests);
  metrics.push_back({"proxy_sim.requests_per_sec",
                     static_cast<double>(requests) / proxy_secs,
                     "requests/s"});

  if (!specpf::bench::write_bench_json(path, metrics)) return 1;
  return 0;
}
