// Shard perf-trajectory recorder: measures the replay driver — its two
// one-shard entry points (run_trace_replay and run_sharded_replay at S=1)
// side by side, multi-core scaling of an 8-shard fleet across
// worker-thread counts, and cross-shard traffic throughput — with the same
// plain chrono harness as perf_stack, and writes BENCH_shard.json
// alongside the engine/stack snapshots.
//
// The binary also re-verifies the subsystem's two contracts before
// writing anything: both one-shard entry points must agree bit for bit,
// and every thread count must produce bit-identical merged results.
//
// Note: thread scaling is hardware-bound — the speedup metric records
// whatever the host provides (the snapshot's provenance block records
// hardware_concurrency; on a 1-core container the sweep degenerates to ~1x).
//
// Usage: perf_shard [output.json]   (default: BENCH_shard.json)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using bench::Metric;

/// Best of two runs — replay configs are seconds-long, so the 0.5s-repeat
/// default of bench::best_time would triple the wall time for no extra
/// signal.
template <typename F>
double best_of_two(const F& body) {
  return bench::best_time(body, 2, 0.0);
}

Trace make_trace() {
  SyntheticTraceConfig cfg;
  cfg.num_users = 50000;
  cfg.num_requests = 200000;
  cfg.request_rate = 1000.0;
  cfg.graph.num_pages = 400;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.seed = 5;
  return generate_synthetic_trace(cfg);
}

TraceReplayConfig stack_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 1200.0;
  cfg.cache_capacity = 8;
  cfg.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  cfg.max_prefetch_per_request = 4;
  cfg.seed = 5;
  return cfg;
}

PolicyFactory threshold_factory() {
  return [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };
}

bool results_equal(const ProxySimResult& a, const ProxySimResult& b) {
  return a.mean_access_time == b.mean_access_time &&
         a.hit_ratio == b.hit_ratio &&
         a.server_utilization == b.server_utilization &&
         a.requests == b.requests && a.demand_jobs == b.demand_jobs &&
         a.prefetch_jobs == b.prefetch_jobs &&
         a.inflight_hits == b.inflight_hits &&
         a.hprime_estimate == b.hprime_estimate;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_shard.json";
  std::vector<Metric> metrics;

  const Trace trace = make_trace();
  const TraceReplayConfig stack = stack_config();

  // Contract 1: run_trace_replay (the one-shard driver around a borrowed
  // policy) == run_sharded_replay at S = 1 (factory-built policy), bit for
  // bit.
  ThresholdPolicy unsharded_policy(core::InteractionModel::kModelA);
  const ProxySimResult unsharded =
      run_trace_replay(trace, stack, unsharded_policy);
  ShardedReplayConfig one_shard;
  one_shard.stack = stack;
  one_shard.num_shards = 1;
  one_shard.num_threads = 1;
  const ShardedReplayResult one =
      run_sharded_replay(trace, one_shard, threshold_factory());
  if (!results_equal(one.merged, unsharded)) {
    std::fprintf(stderr, "1-shard run diverged from the unsharded replay\n");
    return 1;
  }

  const std::uint64_t requests = unsharded.requests;
  double unsharded_secs = best_of_two([&] {
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    (void)run_trace_replay(trace, stack, policy);
  });
  metrics.push_back({"shard.replay.unsharded_requests_per_sec",
                     static_cast<double>(requests) / unsharded_secs,
                     "requests/s"});

  double one_shard_secs = best_of_two([&] {
    (void)run_sharded_replay(trace, one_shard, threshold_factory());
  });
  metrics.push_back({"shard.replay.one_shard_requests_per_sec",
                     static_cast<double>(requests) / one_shard_secs,
                     "requests/s"});
  metrics.push_back({"shard.replay.one_shard_vs_unsharded_overhead",
                     one_shard_secs / unsharded_secs, "x"});

  // Contract 2 + scaling: an 8-shard fleet across worker-thread counts.
  ShardedReplayConfig fleet;
  fleet.stack = stack;
  fleet.num_shards = 8;
  fleet.backbone_bandwidth = 10000.0;
  fleet.backbone_latency = 0.05;

  ShardedReplayResult reference;
  bool have_reference = false;
  double secs_1t = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    fleet.num_threads = threads;
    ShardedReplayResult last;
    const double secs = best_of_two(
        [&] { last = run_sharded_replay(trace, fleet, threshold_factory()); });
    if (!have_reference) {
      reference = last;
      have_reference = true;
      secs_1t = secs;
    } else if (!results_equal(last.merged, reference.merged) ||
               last.cross_shard_events != reference.cross_shard_events) {
      std::fprintf(stderr,
                   "8-shard run diverged at %zu worker threads\n", threads);
      return 1;
    }
    metrics.push_back(
        {"shard.replay.shard8_t" + std::to_string(threads) +
             "_requests_per_sec",
         static_cast<double>(last.merged.requests) / secs, "requests/s"});
    if (threads > 1) {
      metrics.push_back({"shard.replay.shard8_speedup_t" +
                             std::to_string(threads) + "_vs_t1",
                         secs_1t / secs, "x"});
    }
  }
  metrics.push_back({"shard.replay.shard8_epochs",
                     static_cast<double>(reference.epochs), "epochs"});
  metrics.push_back({"shard.replay.shard8_cross_shard_events",
                     static_cast<double>(reference.cross_shard_events),
                     "events"});
  if (!bench::write_bench_json(path, metrics)) return 1;
  return 0;
}
