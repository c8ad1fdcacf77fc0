// Differential tests: observation and streaming must not change a single
// simulated number. Telemetry on vs off, the divergence detector attached
// vs not, and streamed sources (generator, .spt cursor) vs in-RAM traces
// must reproduce bit-identical ProxySimResults for the generative proxy
// sim, trace replay, and a sharded replay. The golden digests in
// sim_trace_replay_test.cpp pin the results themselves.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/proxy_sim.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

namespace specpf {
namespace {

void expect_identical(const ProxySimResult& a, const ProxySimResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.demand_jobs, b.demand_jobs);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
  EXPECT_EQ(a.wasted_prefetch_evictions, b.wasted_prefetch_evictions);
  EXPECT_EQ(a.inflight_hits, b.inflight_hits);
  EXPECT_DOUBLE_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_DOUBLE_EQ(a.access_time_std_error, b.access_time_std_error);
  EXPECT_DOUBLE_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_DOUBLE_EQ(a.server_utilization, b.server_utilization);
  EXPECT_DOUBLE_EQ(a.retrieval_time_per_request,
                   b.retrieval_time_per_request);
  EXPECT_DOUBLE_EQ(a.retrievals_per_request, b.retrievals_per_request);
  EXPECT_DOUBLE_EQ(a.hprime_estimate, b.hprime_estimate);
  EXPECT_DOUBLE_EQ(a.prefetch_useful_fraction,
                   b.prefetch_useful_fraction);
  EXPECT_DOUBLE_EQ(a.mean_inflight_wait, b.mean_inflight_wait);
  EXPECT_DOUBLE_EQ(a.mean_demand_sojourn, b.mean_demand_sojourn);
  EXPECT_DOUBLE_EQ(a.access_time_p50, b.access_time_p50);
  EXPECT_DOUBLE_EQ(a.access_time_p95, b.access_time_p95);
  EXPECT_DOUBLE_EQ(a.access_time_p99, b.access_time_p99);
}

// --- telemetry on vs off: observation must be bit-identical -----------------

TEST(StackDifferential, ProxySimTelemetryOnMatchesOff) {
  ProxySimConfig cfg;
  cfg.num_users = 4;
  cfg.bandwidth = 30.0;
  cfg.graph.num_pages = 60;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.2;
  cfg.cache_capacity = 12;
  cfg.duration = 120.0;
  cfg.warmup = 20.0;
  cfg.seed = 9;

  ThresholdPolicy off_policy(core::InteractionModel::kModelA);
  const ProxySimResult off = run_proxy_sim(cfg, off_policy);

  TelemetryPlane plane;
  cfg.telemetry = &plane;
  ThresholdPolicy on_policy(core::InteractionModel::kModelA);
  const ProxySimResult on = run_proxy_sim(cfg, on_policy);

  expect_identical(on, off);
  EXPECT_GT(on.requests, 0u);
  // Telemetry actually recorded: rows sampled, spans opened and closed.
  EXPECT_GT(plane.series().size(), 0u);
  EXPECT_GT(plane.spans().opens(), 0u);
  EXPECT_GT(plane.spans().closes(), 0u);
  EXPECT_GT(plane.registry().counter(0), 0u);  // "req.count"
}

TEST(StackDifferential, TraceReplayTelemetryOnMatchesOff) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig cfg;
  cfg.bandwidth = 60.0;
  cfg.cache_capacity = 8;
  cfg.governor = "token-50";  // governed leg: gauges cover the governor too

  ThresholdPolicy off_policy(core::InteractionModel::kModelA);
  const ProxySimResult off = run_trace_replay(trace, cfg, off_policy);

  TelemetryPlane plane;
  cfg.telemetry = &plane;
  ThresholdPolicy on_policy(core::InteractionModel::kModelA);
  const ProxySimResult on = run_trace_replay(trace, cfg, on_policy);

  expect_identical(on, off);
  EXPECT_GT(on.requests, 0u);
  EXPECT_GT(plane.series().size(), 0u);
  EXPECT_GT(plane.spans().opens(), 0u);

  AuditReport report;
  plane.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(StackDifferential, ShardedReplayTelemetryOnMatchesOff) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 3;
  cfg.num_threads = 1;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  const ShardedReplayResult off = run_sharded_replay(trace, cfg, factory);

  TelemetryFleet fleet(TelemetryConfig{}, 3);
  cfg.telemetry = &fleet;
  const ShardedReplayResult on = run_sharded_replay(trace, cfg, factory);

  expect_identical(on.merged, off.merged);
  EXPECT_EQ(on.cross_shard_events, off.cross_shard_events);
  EXPECT_EQ(on.backbone.jobs(), off.backbone.jobs());
  EXPECT_GT(on.merged.requests, 0u);
  // Every shard sampled at the epoch barriers; the merged registry carries
  // both the runtime's and the driver's origin-uplink instruments.
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(fleet.shard(s).series().size(), 0u) << "shard " << s;
  }
  AuditReport report;
  fleet.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Per-shard load stats reconcile with the fleet totals.
  ASSERT_EQ(on.shard_load.size(), 3u);
  std::uint64_t sent = 0, received = 0;
  for (const auto& load : on.shard_load) {
    EXPECT_GT(load.events_executed, 0u);
    sent += load.mailbox_sent;
    received += load.mailbox_received;
  }
  EXPECT_EQ(sent, on.cross_shard_events);
  EXPECT_EQ(received, on.cross_shard_events);
}

// --- divergence detector on vs off: pure observation, bit-identical ---------

TEST(StackDifferential, TraceReplayDetectorOnMatchesOff) {
  // The detector's purity contract (obs/divergence.hpp): with the abort
  // hook disarmed, a replay with a detector attached is bit-identical to
  // one without — it only reads sealed recorder rows at stream-window
  // boundaries. An overloaded leg (low bandwidth) keeps the trend tests
  // exercised, not just evaluated on quiet gauges.
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  // theta 0.6 keeps the link comfortable; theta 0.02 prefetches nearly
  // everything and swamps it, so the stressed leg drives the trend tests
  // over genuinely elevated gauges.
  for (double theta : {0.6, 0.02}) {
    TraceReplayConfig cfg;
    cfg.bandwidth = 60.0;
    cfg.cache_capacity = 8;
    // Smaller than the trace so several window-boundary evaluations run,
    // not just the final post-drain pass.
    cfg.stream_window = 1024;

    TelemetryPlane off_plane;
    cfg.telemetry = &off_plane;
    FixedThresholdPolicy off_policy(theta);
    const ProxySimResult off = run_trace_replay(trace, cfg, off_policy);

    TelemetryPlane on_plane;
    DivergenceDetector detector;
    cfg.telemetry = &on_plane;
    cfg.divergence = &detector;  // abort_on_divergence stays false
    FixedThresholdPolicy on_policy(theta);
    const ProxySimResult on = run_trace_replay(trace, cfg, on_policy);

    SCOPED_TRACE("theta=" + std::to_string(theta));
    expect_identical(on, off);
    EXPECT_GT(on.requests, 0u);
    // The replay auto-configured and auto-attached the detector, and it
    // actually ran: evaluations at every stream-window boundary plus the
    // final post-drain pass.
    EXPECT_TRUE(detector.configured());
    EXPECT_GT(detector.num_signals(), 0u);
    EXPECT_GT(detector.evaluations(), 1u);
    // Telemetry rows are identical too (same cadence, same gauges).
    ASSERT_EQ(on_plane.series().size(), off_plane.series().size());
    AuditReport report;
    detector.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(StackDifferential, ShardedReplayDetectorOnMatchesOff) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 2;
  cfg.num_threads = 2;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  TelemetryFleet off_fleet(TelemetryConfig{}, 2);
  cfg.telemetry = &off_fleet;
  const ShardedReplayResult off = run_sharded_replay(trace, cfg, factory);

  TelemetryFleet on_fleet(TelemetryConfig{}, 2);
  DivergenceDetector detector;
  cfg.telemetry = &on_fleet;
  cfg.divergence = &detector;  // abort_on_divergence stays false
  const ShardedReplayResult on = run_sharded_replay(trace, cfg, factory);

  expect_identical(on.merged, off.merged);
  EXPECT_EQ(on.cross_shard_events, off.cross_shard_events);
  EXPECT_EQ(on.backbone.jobs(), off.backbone.jobs());
  EXPECT_GT(on.merged.requests, 0u);
  // One signal set per shard (fleet verdict = worst shard), evaluated on
  // the driver thread at every epoch barrier.
  EXPECT_TRUE(detector.configured());
  EXPECT_GT(detector.num_signals(), 0u);
  EXPECT_GT(detector.evaluations(), 1u);
  for (std::size_t i = 0; i < detector.num_signals(); ++i) {
    EXPECT_EQ(detector.signal_name(i).rfind("shard", 0), 0u) << i;
  }
  AuditReport report;
  detector.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- streamed sources vs in-RAM traces: the out-of-core pipeline ------------

TEST(StackDifferential, TraceReplayStreamedGeneratorMatchesInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig cfg;
  cfg.bandwidth = 60.0;
  cfg.cache_capacity = 8;

  ThresholdPolicy ram_policy(core::InteractionModel::kModelA);
  const ProxySimResult ram = run_trace_replay(trace, cfg, ram_policy);

  // Tiny stream window forces many mid-pass run_until() calls — the
  // incremental scheduling must not perturb event order.
  for (std::size_t window : {std::size_t{65536}, std::size_t{7}}) {
    cfg.stream_window = window;
    SyntheticTraceStream stream(trace_cfg);
    ThresholdPolicy stream_policy(core::InteractionModel::kModelA);
    const ProxySimResult streamed = run_trace_replay(stream, cfg, stream_policy);
    SCOPED_TRACE("stream_window=" + std::to_string(window));
    expect_identical(streamed, ram);
    EXPECT_GT(streamed.requests, 0u);
  }
}

TEST(StackDifferential, TraceReplayFileCursorMatchesDecodedInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const std::string path =
      std::string(::testing::TempDir()) + "differential_replay.spt";
  {
    SyntheticTraceStream stream(trace_cfg);
    TraceWriteOptions options;
    options.chunk_records = 512;  // several chunk crossings mid-replay
    write_trace_file(path, stream, options);
  }
  const TraceFile file(path);
  const Trace decoded = file.read_all();

  TraceReplayConfig cfg;
  cfg.bandwidth = 60.0;
  cfg.cache_capacity = 8;

  ThresholdPolicy ram_policy(core::InteractionModel::kModelA);
  const ProxySimResult ram = run_trace_replay(decoded, cfg, ram_policy);

  TraceCursor cursor(file);
  TelemetryPlane plane;  // telemetry on: observation must stay pure here too
  cfg.telemetry = &plane;
  ThresholdPolicy cursor_policy(core::InteractionModel::kModelA);
  const ProxySimResult streamed = run_trace_replay(cursor, cfg, cursor_policy);

  expect_identical(streamed, ram);
  EXPECT_GT(streamed.requests, 0u);
  EXPECT_GT(plane.series().size(), 0u);
  std::remove(path.c_str());
}

TEST(StackDifferential, ShardedReplayStreamedGeneratorMatchesInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 3;
  cfg.num_threads = 1;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  const ShardedReplayResult ram = run_sharded_replay(trace, cfg, factory);

  TelemetryFleet fleet(TelemetryConfig{}, 3);
  cfg.telemetry = &fleet;
  SyntheticTraceStream stream(trace_cfg);
  const ShardedReplayResult streamed = run_sharded_replay(stream, cfg, factory);

  expect_identical(streamed.merged, ram.merged);
  EXPECT_EQ(streamed.cross_shard_events, ram.cross_shard_events);
  EXPECT_EQ(streamed.backbone.jobs(), ram.backbone.jobs());
  ASSERT_EQ(streamed.per_shard.size(), ram.per_shard.size());
  for (std::size_t s = 0; s < ram.per_shard.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_identical(streamed.per_shard[s], ram.per_shard[s]);
  }
  EXPECT_GT(streamed.merged.requests, 0u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(fleet.shard(s).series().size(), 0u) << "shard " << s;
  }
}

TEST(StackDifferential, ShardedReplayFileCursorMatchesDecodedInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const std::string path =
      std::string(::testing::TempDir()) + "differential_sharded.spt";
  {
    SyntheticTraceStream stream(trace_cfg);
    TraceWriteOptions options;
    options.chunk_records = 512;
    write_trace_file(path, stream, options);
  }
  const TraceFile file(path);
  const Trace decoded = file.read_all();

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 3;
  cfg.num_threads = 1;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  const ShardedReplayResult ram = run_sharded_replay(decoded, cfg, factory);

  TraceCursor cursor(file);
  const ShardedReplayResult streamed = run_sharded_replay(cursor, cfg, factory);

  expect_identical(streamed.merged, ram.merged);
  EXPECT_EQ(streamed.cross_shard_events, ram.cross_shard_events);
  EXPECT_EQ(streamed.backbone.jobs(), ram.backbone.jobs());
  EXPECT_GT(streamed.merged.requests, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace specpf
