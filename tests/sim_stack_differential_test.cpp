// Differential tests: the flat-hash data plane must reproduce bit-identical
// ProxySimResults against the legacy std::map in-flight backend, the
// block-arena cache plane against the legacy per-user TaggedCache
// fleet, and the SoA predictor plane against the legacy virtual Predictor
// tables — across every predictor and cache kind, for the generative proxy
// sim, trace replay, and a sharded replay. The backends differ only in
// container layout; any divergence means behaviour changed, not just speed.
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

void expect_identical(const ProxySimResult& flat, const ProxySimResult& tree) {
  EXPECT_EQ(flat.requests, tree.requests);
  EXPECT_EQ(flat.demand_jobs, tree.demand_jobs);
  EXPECT_EQ(flat.prefetch_jobs, tree.prefetch_jobs);
  EXPECT_EQ(flat.wasted_prefetch_evictions, tree.wasted_prefetch_evictions);
  EXPECT_EQ(flat.inflight_hits, tree.inflight_hits);
  EXPECT_DOUBLE_EQ(flat.mean_access_time, tree.mean_access_time);
  EXPECT_DOUBLE_EQ(flat.access_time_std_error, tree.access_time_std_error);
  EXPECT_DOUBLE_EQ(flat.hit_ratio, tree.hit_ratio);
  EXPECT_DOUBLE_EQ(flat.server_utilization, tree.server_utilization);
  EXPECT_DOUBLE_EQ(flat.retrieval_time_per_request,
                   tree.retrieval_time_per_request);
  EXPECT_DOUBLE_EQ(flat.retrievals_per_request, tree.retrievals_per_request);
  EXPECT_DOUBLE_EQ(flat.hprime_estimate, tree.hprime_estimate);
  EXPECT_DOUBLE_EQ(flat.prefetch_useful_fraction,
                   tree.prefetch_useful_fraction);
  EXPECT_DOUBLE_EQ(flat.mean_inflight_wait, tree.mean_inflight_wait);
  EXPECT_DOUBLE_EQ(flat.mean_demand_sojourn, tree.mean_demand_sojourn);
  EXPECT_DOUBLE_EQ(flat.access_time_p50, tree.access_time_p50);
  EXPECT_DOUBLE_EQ(flat.access_time_p95, tree.access_time_p95);
  EXPECT_DOUBLE_EQ(flat.access_time_p99, tree.access_time_p99);
}

TEST(StackDifferential, FlatMatchesTreeAcrossPredictorsAndCacheKinds) {
  const ProxySimConfig::PredictorKind predictors[] = {
      ProxySimConfig::PredictorKind::kMarkov,
      ProxySimConfig::PredictorKind::kPpm,
      ProxySimConfig::PredictorKind::kDependencyGraph,
      ProxySimConfig::PredictorKind::kFrequency,
      ProxySimConfig::PredictorKind::kOracle,
  };
  const ProxySimConfig::CacheKind caches[] = {
      ProxySimConfig::CacheKind::kLru, ProxySimConfig::CacheKind::kLfu,
      ProxySimConfig::CacheKind::kFifo, ProxySimConfig::CacheKind::kClock,
      ProxySimConfig::CacheKind::kRandom,
  };
  for (auto predictor : predictors) {
    for (auto cache : caches) {
      ProxySimConfig cfg;
      cfg.num_users = 4;
      cfg.bandwidth = 30.0;
      cfg.graph.num_pages = 60;
      cfg.graph.out_degree = 3;
      cfg.graph.exit_probability = 0.2;
      cfg.cache_capacity = 12;  // tight: keeps evictions + inflight churn hot
      cfg.duration = 120.0;
      cfg.warmup = 20.0;
      cfg.seed = 9;
      cfg.predictor_kind = predictor;
      cfg.cache_kind = cache;

      cfg.use_tree_inflight = false;
      ThresholdPolicy flat_policy(core::InteractionModel::kModelA);
      const ProxySimResult flat = run_proxy_sim(cfg, flat_policy);

      cfg.use_tree_inflight = true;
      ThresholdPolicy tree_policy(core::InteractionModel::kModelA);
      const ProxySimResult tree = run_proxy_sim(cfg, tree_policy);

      SCOPED_TRACE("predictor=" + std::to_string(static_cast<int>(predictor)) +
                   " cache=" + std::to_string(static_cast<int>(cache)));
      expect_identical(flat, tree);
      EXPECT_GT(flat.requests, 0u);
    }
  }
}

// --- arena cache plane vs legacy TaggedCache fleet ---

TEST(StackDifferential, ArenaCachesMatchLegacyAcrossPredictorsAndCacheKinds) {
  const ProxySimConfig::PredictorKind predictors[] = {
      ProxySimConfig::PredictorKind::kMarkov,
      ProxySimConfig::PredictorKind::kOracle,
  };
  const ProxySimConfig::CacheKind caches[] = {
      ProxySimConfig::CacheKind::kLru, ProxySimConfig::CacheKind::kLfu,
      ProxySimConfig::CacheKind::kFifo, ProxySimConfig::CacheKind::kClock,
      ProxySimConfig::CacheKind::kRandom,
  };
  for (auto predictor : predictors) {
    for (auto cache : caches) {
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
      cfg.predictor_kind = predictor;
      cfg.cache_kind = cache;

      cfg.use_legacy_caches = false;
      ThresholdPolicy arena_policy(core::InteractionModel::kModelA);
      const ProxySimResult arena = run_proxy_sim(cfg, arena_policy);

      cfg.use_legacy_caches = true;
      ThresholdPolicy legacy_policy(core::InteractionModel::kModelA);
      const ProxySimResult legacy = run_proxy_sim(cfg, legacy_policy);

      SCOPED_TRACE("predictor=" + std::to_string(static_cast<int>(predictor)) +
                   " cache=" + std::to_string(static_cast<int>(cache)));
      expect_identical(arena, legacy);
      EXPECT_GT(arena.requests, 0u);
    }
  }
}

TEST(StackDifferential, TraceReplayArenaCachesMatchLegacyAcrossCacheKinds) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  for (auto cache :
       {ProxySimConfig::CacheKind::kLru, ProxySimConfig::CacheKind::kLfu,
        ProxySimConfig::CacheKind::kFifo, ProxySimConfig::CacheKind::kClock,
        ProxySimConfig::CacheKind::kRandom}) {
    // Capacity 8 is the benchmark workloads' cache size; 24 a wider block.
    for (std::size_t capacity : {std::size_t{8}, std::size_t{24}}) {
      TraceReplayConfig cfg;
      cfg.bandwidth = 60.0;
      cfg.cache_capacity = capacity;
      cfg.cache_kind = cache;

      cfg.use_legacy_caches = false;
      ThresholdPolicy arena_policy(core::InteractionModel::kModelA);
      const ProxySimResult arena = run_trace_replay(trace, cfg, arena_policy);

      cfg.use_legacy_caches = true;
      ThresholdPolicy legacy_policy(core::InteractionModel::kModelA);
      const ProxySimResult legacy = run_trace_replay(trace, cfg, legacy_policy);

      SCOPED_TRACE("cache=" + std::to_string(static_cast<int>(cache)) +
                   " capacity=" + std::to_string(capacity));
      expect_identical(arena, legacy);
      EXPECT_GT(arena.requests, 0u);
    }
  }
}

TEST(StackDifferential, ShardedReplayArenaCachesMatchLegacyAcrossCacheKinds) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  for (auto cache :
       {ProxySimConfig::CacheKind::kLru, ProxySimConfig::CacheKind::kLfu,
        ProxySimConfig::CacheKind::kFifo, ProxySimConfig::CacheKind::kClock,
        ProxySimConfig::CacheKind::kRandom}) {
    ShardedReplayConfig cfg;
    cfg.stack.bandwidth = 60.0;
    cfg.stack.cache_capacity = 8;
    cfg.stack.cache_kind = cache;
    cfg.num_shards = 3;
    cfg.num_threads = 1;
    const PolicyFactory factory = [] {
      return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
    };

    cfg.stack.use_legacy_caches = false;
    const ShardedReplayResult arena = run_sharded_replay(trace, cfg, factory);

    cfg.stack.use_legacy_caches = true;
    const ShardedReplayResult legacy = run_sharded_replay(trace, cfg, factory);

    SCOPED_TRACE("cache=" + std::to_string(static_cast<int>(cache)));
    expect_identical(arena.merged, legacy.merged);
    EXPECT_EQ(arena.cross_shard_events, legacy.cross_shard_events);
    EXPECT_EQ(arena.backbone.jobs(), legacy.backbone.jobs());
    EXPECT_GT(arena.merged.requests, 0u);
  }
}

// --- SoA predictor plane vs legacy virtual Predictor tables ---

TEST(StackDifferential, PredictorPlaneMatchesLegacyAcrossKinds) {
  const ProxySimConfig::PredictorKind predictors[] = {
      ProxySimConfig::PredictorKind::kMarkov,
      ProxySimConfig::PredictorKind::kPpm,
      ProxySimConfig::PredictorKind::kDependencyGraph,
      ProxySimConfig::PredictorKind::kFrequency,
      ProxySimConfig::PredictorKind::kOracle,
  };
  for (auto predictor : predictors) {
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
    cfg.predictor_kind = predictor;

    cfg.use_legacy_predictors = false;
    ThresholdPolicy plane_policy(core::InteractionModel::kModelA);
    const ProxySimResult plane = run_proxy_sim(cfg, plane_policy);

    cfg.use_legacy_predictors = true;
    ThresholdPolicy legacy_policy(core::InteractionModel::kModelA);
    const ProxySimResult legacy = run_proxy_sim(cfg, legacy_policy);

    SCOPED_TRACE("predictor=" + std::to_string(static_cast<int>(predictor)));
    expect_identical(plane, legacy);
    EXPECT_GT(plane.requests, 0u);
  }
}

TEST(StackDifferential, TraceReplayPredictorPlaneMatchesLegacy) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  // Every replayable kind (the oracle needs the generating graph).
  const TraceReplayConfig::PredictorKind predictors[] = {
      PredictorKind::kMarkov,
      PredictorKind::kPpm,
      PredictorKind::kDependencyGraph,
      PredictorKind::kFrequency,
  };
  for (auto predictor : predictors) {
    TraceReplayConfig cfg;
    cfg.bandwidth = 60.0;
    cfg.cache_capacity = 8;
    cfg.predictor_kind = predictor;

    cfg.use_legacy_predictors = false;
    ThresholdPolicy plane_policy(core::InteractionModel::kModelA);
    const ProxySimResult plane = run_trace_replay(trace, cfg, plane_policy);

    cfg.use_legacy_predictors = true;
    ThresholdPolicy legacy_policy(core::InteractionModel::kModelA);
    const ProxySimResult legacy = run_trace_replay(trace, cfg, legacy_policy);

    SCOPED_TRACE("predictor=" + std::to_string(static_cast<int>(predictor)));
    expect_identical(plane, legacy);
    EXPECT_GT(plane.requests, 0u);
  }
}

TEST(StackDifferential, ShardedReplayPredictorPlaneMatchesLegacy) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  for (auto predictor : {PredictorKind::kMarkov, PredictorKind::kPpm}) {
    ShardedReplayConfig cfg;
    cfg.stack.bandwidth = 60.0;
    cfg.stack.cache_capacity = 8;
    cfg.stack.predictor_kind = predictor;
    cfg.num_shards = 3;
    cfg.num_threads = 1;
    const PolicyFactory factory = [] {
      return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
    };

    cfg.stack.use_legacy_predictors = false;
    const ShardedReplayResult plane = run_sharded_replay(trace, cfg, factory);

    cfg.stack.use_legacy_predictors = true;
    const ShardedReplayResult legacy = run_sharded_replay(trace, cfg, factory);

    SCOPED_TRACE("predictor=" + std::to_string(static_cast<int>(predictor)));
    expect_identical(plane.merged, legacy.merged);
    EXPECT_EQ(plane.cross_shard_events, legacy.cross_shard_events);
    EXPECT_EQ(plane.backbone.jobs(), legacy.backbone.jobs());
    EXPECT_GT(plane.merged.requests, 0u);
  }
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

TEST(StackDifferential, TraceReplayFlatMatchesTree) {
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

  cfg.use_tree_inflight = false;
  ThresholdPolicy flat_policy(core::InteractionModel::kModelA);
  const ProxySimResult flat = run_trace_replay(trace, cfg, flat_policy);

  cfg.use_tree_inflight = true;
  ThresholdPolicy tree_policy(core::InteractionModel::kModelA);
  const ProxySimResult tree = run_trace_replay(trace, cfg, tree_policy);

  expect_identical(flat, tree);
  EXPECT_GT(flat.requests, 0u);
}

}  // namespace
}  // namespace specpf
