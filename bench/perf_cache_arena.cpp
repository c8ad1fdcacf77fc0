// Cache-plane perf/memory recorder: measures the block-arena cache
// plane against the reference per-user TaggedCache fleet
// (tests/reference/cache/) — resident bytes per user (via the util/mem RSS
// probe) under the million-user sweep's own workload shape, cold
// construction of a million-user fleet, and protocol-op churn throughput —
// plus the arena plane's end-to-end trace replay, and writes
// BENCH_cache.json alongside the engine/stack/shard snapshots.
//
// The fleet footprint is measured by replaying the same synthetic
// session trace the million_user_sweep example uses (1M users, 3 requests
// per user on average, 400 pages) directly against the cache plane:
// demand admissions on misses plus a prefetch admission stream in the
// sweep's observed prefetch:demand ratio — the engine, in-flight map, and
// predictor are deliberately absent so the number isolates the caches.
//
// The arena is measured before the reference fleet so allocator page
// reuse can only shrink the reference numbers: the reported ratios are
// lower bounds on the arena's advantage.
//
// Usage: perf_cache_arena [output.json] [num_users]
//        (defaults: BENCH_cache.json, 1000000)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "cache/cache_plane.hpp"
#include "cache/reference_caches.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using bench::Clock;
using bench::best_time;
using bench::seconds_since;
using bench::Metric;

constexpr std::size_t kCapacity = 8;  // the million-user sweep's default

/// The LRU arena plane, or the reference TaggedCache fleet.
std::unique_ptr<CachePlane> make_plane(const CachePlaneConfig& config,
                                       bool reference) {
  return reference ? make_tagged_cache_fleet(CacheKind::kLru, config)
                   : make_cache_plane(CacheKind::kLru, config);
}

/// The sweep's cache-plane traffic, minus the engine: every trace record is
/// an access; misses demand-admit, and every other miss also prefetch-admits
/// a neighbour page (≈ the sweep's realised prefetch:demand job ratio).
std::uint64_t drive_sweep_workload(CachePlane& plane, const Trace& trace,
                                   std::size_t num_pages) {
  std::uint64_t checksum = 0;
  std::uint64_t misses = 0;
  for (const auto& r : trace.records()) {
    switch (plane.access(r.user, r.item)) {
      case AccessOutcome::kHitTagged:
        checksum += 3;
        break;
      case AccessOutcome::kHitUntagged:
        checksum += 2;
        break;
      case AccessOutcome::kMiss:
        ++checksum;
        plane.admit_demand(r.user, r.item);
        if ((++misses & 1) == 0) {
          plane.admit_prefetch(r.user, (r.item + 1) % num_pages);
        }
        break;
    }
  }
  return checksum;
}

/// RSS delta of construct + sweep replay, construction time, and drive
/// throughput, for the arena plane or (`reference`) the TaggedCache fleet.
struct FleetCost {
  double construct_secs = 0.0;
  double drive_secs = 0.0;
  double bytes_per_user = 0.0;
  std::uint64_t checksum = 0;
};

FleetCost measure_fleet(bool reference, std::size_t num_users,
                        const Trace& trace, std::size_t num_pages) {
  CachePlaneConfig config;
  config.num_users = num_users;
  config.capacity = kCapacity;
  config.seed = 7;
  const std::size_t rss_before = read_memory_usage().resident_bytes;
  auto t0 = Clock::now();
  auto plane = make_plane(config, reference);
  FleetCost cost;
  cost.construct_secs = seconds_since(t0);
  t0 = Clock::now();
  cost.checksum = drive_sweep_workload(*plane, trace, num_pages);
  cost.drive_secs = seconds_since(t0);
  const std::size_t rss_after = read_memory_usage().resident_bytes;
  cost.bytes_per_user =
      rss_after > rss_before
          ? static_cast<double>(rss_after - rss_before) /
                static_cast<double>(num_users)
          : 0.0;
  return cost;
}

/// The stack's per-request cache work, replayed against one backend: an
/// access, and on a miss a demand or prefetch admission, over a rolling
/// population — returns ops/sec and a checksum for cross-backend equality.
constexpr std::size_t kChurnUsers = 65536;
constexpr std::size_t kChurnOps = 2000000;

std::uint64_t churn(CachePlane& plane) {
  Rng rng(42);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < kChurnOps; ++i) {
    const auto user = static_cast<std::uint32_t>(rng.next_below(kChurnUsers));
    const ItemId item = rng.next_below(4096);
    switch (plane.access(user, item)) {
      case AccessOutcome::kHitTagged:
        checksum += 3;
        break;
      case AccessOutcome::kHitUntagged:
        checksum += 2;
        break;
      case AccessOutcome::kMiss:
        ++checksum;
        if ((i & 3) == 0) {
          plane.admit_prefetch(user, item);
        } else {
          plane.admit_demand(user, item);
        }
        break;
    }
  }
  return checksum;
}

double bench_churn(bool reference, std::uint64_t* checksum) {
  return best_time([&] {
    CachePlaneConfig config;
    config.num_users = kChurnUsers;
    config.capacity = kCapacity;
    config.seed = 7;
    auto plane = make_plane(config, reference);
    *checksum = churn(*plane);
  });
}

/// Requests per second of the arena plane inside a 50k-user trace replay.
double bench_trace_replay() {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 50000;
  trace_cfg.num_requests = 200000;
  trace_cfg.request_rate = 1000.0;
  trace_cfg.graph.num_pages = 400;
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.seed = 5;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig replay_cfg;
  replay_cfg.bandwidth = 1200.0;
  replay_cfg.cache_capacity = kCapacity;
  replay_cfg.max_prefetch_per_request = 4;
  std::uint64_t requests = 0;
  const double secs = best_time([&] {
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    requests = run_trace_replay(trace, replay_cfg, policy).requests;
  });
  return static_cast<double>(requests) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_cache.json";
  const std::size_t num_users =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 1000000;
  std::vector<Metric> metrics;

  // The sweep-shaped trace both fleet measurements replay (allocated before
  // the first RSS snapshot, so it cancels out of the deltas).
  constexpr std::size_t kNumPages = 400;
  SyntheticTraceConfig sweep_cfg;
  sweep_cfg.num_users = num_users;
  sweep_cfg.num_requests = 3 * num_users;
  sweep_cfg.request_rate = 10000.0;
  sweep_cfg.graph.num_pages = kNumPages;
  sweep_cfg.graph.out_degree = 3;
  sweep_cfg.graph.exit_probability = 0.25;
  sweep_cfg.graph.link_skew = 1.6;
  sweep_cfg.seed = 2001;
  const Trace sweep_trace = generate_synthetic_trace(sweep_cfg);

  // Fleet footprint and cold construction. Arena first (see header note).
  const FleetCost arena_cost =
      measure_fleet(false, num_users, sweep_trace, kNumPages);
  const FleetCost legacy_cost =
      measure_fleet(true, num_users, sweep_trace, kNumPages);
  if (arena_cost.checksum != legacy_cost.checksum) {
    std::fprintf(stderr, "fleet replay diverged: arena=%llu legacy=%llu\n",
                 static_cast<unsigned long long>(arena_cost.checksum),
                 static_cast<unsigned long long>(legacy_cost.checksum));
    return 1;
  }
  metrics.push_back({"cache.fleet.users", static_cast<double>(num_users), ""});
  metrics.push_back(
      {"cache.fleet.arena_bytes_per_user", arena_cost.bytes_per_user, "B"});
  metrics.push_back(
      {"cache.fleet.legacy_bytes_per_user", legacy_cost.bytes_per_user, "B"});
  if (arena_cost.bytes_per_user > 0.0) {
    metrics.push_back({"cache.fleet.legacy_vs_arena_bytes_ratio",
                       legacy_cost.bytes_per_user / arena_cost.bytes_per_user,
                       "x"});
  }
  metrics.push_back({"cache.fleet.arena_construct_users_per_sec",
                     static_cast<double>(num_users) / arena_cost.construct_secs,
                     "users/s"});
  metrics.push_back(
      {"cache.fleet.legacy_construct_users_per_sec",
       static_cast<double>(num_users) / legacy_cost.construct_secs, "users/s"});
  metrics.push_back({"cache.fleet.construct_speedup",
                     legacy_cost.construct_secs / arena_cost.construct_secs,
                     "x"});
  const double sweep_ops = static_cast<double>(sweep_trace.size());
  metrics.push_back({"cache.fleet.arena_sweep_ops_per_sec",
                     sweep_ops / arena_cost.drive_secs, "ops/s"});
  metrics.push_back({"cache.fleet.legacy_sweep_ops_per_sec",
                     sweep_ops / legacy_cost.drive_secs, "ops/s"});

  // Protocol-op churn.
  std::uint64_t arena_checksum = 0, legacy_checksum = 0;
  const double arena_churn_secs = bench_churn(false, &arena_checksum);
  const double legacy_churn_secs = bench_churn(true, &legacy_checksum);
  if (arena_checksum != legacy_checksum) {
    std::fprintf(stderr, "cache plane churn diverged: arena=%llu legacy=%llu\n",
                 static_cast<unsigned long long>(arena_checksum),
                 static_cast<unsigned long long>(legacy_checksum));
    return 1;
  }
  const double ops = static_cast<double>(kChurnOps);
  metrics.push_back(
      {"cache.churn.arena_ops_per_sec", ops / arena_churn_secs, "ops/s"});
  metrics.push_back(
      {"cache.churn.legacy_ops_per_sec", ops / legacy_churn_secs, "ops/s"});
  metrics.push_back({"cache.churn.arena_vs_legacy_speedup",
                     legacy_churn_secs / arena_churn_secs, "x"});

  // End-to-end replay (the arena plane only: the stack has no other).
  metrics.push_back({"cache.trace_replay.arena_requests_per_sec",
                     bench_trace_replay(), "requests/s"});

  if (!bench::write_bench_json(path, metrics)) return 1;
  return 0;
}
