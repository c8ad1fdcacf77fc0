// Trace-driven replay: determinism, paired policy comparisons, golden
// result digests, and observability equivalence.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"
#include "workload/synthetic_trace.hpp"

namespace specpf {
namespace {

Trace make_session_trace(std::size_t sessions, std::uint64_t seed) {
  SessionGraphConfig gcfg;
  gcfg.num_pages = 80;
  gcfg.out_degree = 3;
  gcfg.exit_probability = 0.2;
  gcfg.link_skew = 1.5;
  SessionGraph graph(gcfg, seed);
  Rng rng(seed ^ 0xABCD);
  Trace trace;
  double t = 0.0;
  for (std::size_t s = 0; s < sessions; ++s) {
    t += 0.8;
    for (std::uint64_t page : graph.sample_session(rng)) {
      trace.append({t, static_cast<std::uint32_t>(s % 5), page});
      t += 0.3;
    }
  }
  return trace;
}

TEST(TraceReplay, SmokeAndConservation) {
  const Trace trace = make_session_trace(400, 11);
  TraceReplayConfig cfg;
  cfg.bandwidth = 30.0;
  cfg.cache_capacity = 32;
  NoPrefetchPolicy none;
  const auto r = run_trace_replay(trace, cfg, none);
  // Every post-warmup request is recorded exactly once.
  const auto warmup = static_cast<std::uint64_t>(0.1 * trace.size());
  EXPECT_EQ(r.requests, trace.size() - warmup);
  EXPECT_EQ(r.prefetch_jobs, 0u);
  EXPECT_GT(r.hit_ratio, 0.0);
  EXPECT_LT(r.hit_ratio, 1.0);
}

TEST(TraceReplay, DeterministicAcrossRuns) {
  const Trace trace = make_session_trace(200, 13);
  TraceReplayConfig cfg;
  ThresholdPolicy p1(core::InteractionModel::kModelA);
  ThresholdPolicy p2(core::InteractionModel::kModelA);
  const auto a = run_trace_replay(trace, cfg, p1);
  const auto b = run_trace_replay(trace, cfg, p2);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
}

TEST(TraceReplay, PairedPoliciesSeeIdenticalRequests) {
  const Trace trace = make_session_trace(300, 17);
  TraceReplayConfig cfg;
  NoPrefetchPolicy none;
  FixedThresholdPolicy spray(0.05);
  const auto a = run_trace_replay(trace, cfg, none);
  const auto b = run_trace_replay(trace, cfg, spray);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_GT(b.prefetch_jobs, 0u);
  EXPECT_GT(b.hit_ratio, a.hit_ratio);  // prefetching converts misses
}

TEST(TraceReplay, PrefetchingImprovesAccessTimeOnPredictableTrace) {
  const Trace trace = make_session_trace(600, 19);
  TraceReplayConfig cfg;
  cfg.bandwidth = 40.0;
  cfg.cache_capacity = 24;
  NoPrefetchPolicy none;
  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto base = run_trace_replay(trace, cfg, none);
  const auto pref = run_trace_replay(trace, cfg, threshold);
  EXPECT_LT(pref.mean_access_time, base.mean_access_time);
}

TEST(TraceReplay, AllPredictorsRun) {
  const Trace trace = make_session_trace(150, 23);
  for (auto kind : {TraceReplayConfig::PredictorKind::kMarkov,
                    TraceReplayConfig::PredictorKind::kPpm,
                    TraceReplayConfig::PredictorKind::kDependencyGraph,
                    TraceReplayConfig::PredictorKind::kFrequency}) {
    TraceReplayConfig cfg;
    cfg.predictor_kind = kind;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto r = run_trace_replay(trace, cfg, policy);
    EXPECT_GT(r.requests, 0u);
  }
}

TEST(TraceReplay, RejectsEmptyAndUnsortedTraces) {
  TraceReplayConfig cfg;
  NoPrefetchPolicy none;
  EXPECT_THROW(run_trace_replay(Trace{}, cfg, none), ContractViolation);
  Trace unsorted;
  unsorted.append({5.0, 0, 1});
  unsorted.append({1.0, 0, 2});
  EXPECT_THROW(run_trace_replay(unsorted, cfg, none), ContractViolation);
}

TEST(TraceReplay, SparseUserIdsAreDensified) {
  Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.append({static_cast<double>(i), 1000000u + (i % 3) * 7919u,
                  static_cast<std::uint64_t>(i % 10)});
  }
  TraceReplayConfig cfg;
  cfg.warmup_fraction = 0.0;
  NoPrefetchPolicy none;
  const auto r = run_trace_replay(trace, cfg, none);
  EXPECT_EQ(r.requests, 50u);
}

// --- golden digests ----------------------------------------------------------

/// FNV-1a over every ProxySimResult field in declaration order, doubles bit
/// for bit.
std::uint64_t digest(const ProxySimResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto bytes = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  const auto f = [&bytes](double v) { bytes(&v, sizeof v); };
  const auto u = [&bytes](std::uint64_t v) { bytes(&v, sizeof v); };
  bytes(r.policy.data(), r.policy.size());
  f(r.mean_access_time);
  f(r.access_time_std_error);
  f(r.access_time_p50);
  f(r.access_time_p95);
  f(r.access_time_p99);
  f(r.hit_ratio);
  f(r.server_utilization);
  f(r.retrieval_time_per_request);
  f(r.retrievals_per_request);
  f(r.hprime_estimate);
  f(r.prefetch_useful_fraction);
  u(r.requests);
  u(r.demand_jobs);
  u(r.prefetch_jobs);
  u(r.wasted_prefetch_evictions);
  u(r.inflight_hits);
  f(r.mean_inflight_wait);
  f(r.mean_demand_sojourn);
  u(r.throttled_prefetches);
  f(r.peak_queue_depth);
  f(r.peak_slowdown);
  return h;
}

/// 6000 requests from 400 users with the "flash" preset's 4x surge over the
/// middle fifth: enough load to overrun a 300 pages/s link mid-trace, so
/// the abort-armed legs stop partway.
Trace make_flash_trace() {
  SyntheticTraceConfig cfg;
  cfg.num_users = 400;
  cfg.num_requests = 6000;
  cfg.request_rate = 100.0;
  cfg.graph.num_pages = 120;
  cfg.seed = 41;
  EXPECT_TRUE(make_scenario_modulation("flash", 60.0, 1, &cfg.modulation));
  return generate_synthetic_trace(cfg);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Digests of the replay matrix, recorded from the stream-window replay loop
// that preceded the epoch driver: cache kind (lru, lfu, fifo, clock,
// random) x predictor (markov, ppm) x governor (none, aimd-3) x observers
// (off; telemetry; telemetry + detector with abort armed), innermost last.
constexpr std::uint64_t kGoldenDigests[] = {
    0xb15d9dac796b43fb, 0xdf3ac61d29e42637, 0x8e761566e4e44200,
    0xc729ee9ac23fa69b, 0xc729ee9ac23fa69b, 0x8e761566e4e44200,
    0xd9200ab8c745d4e8, 0x7178434ad506e02e, 0xd30d6178044dd9c7,
    0xc67a455e29932839, 0xc67a455e29932839, 0xd30d6178044dd9c7,
    0x1af274483b028115, 0xf8e960ec7cc07a65, 0x00ee24ee69d048b2,
    0x9c502c7c2512e922, 0x9c502c7c2512e922, 0x00ee24ee69d048b2,
    0x15aaf355ee6c6df9, 0x985e5a1dfc76d677, 0xe21770163e71ea07,
    0x1f44a45418399d96, 0x1f44a45418399d96, 0xe21770163e71ea07,
    0xa1041f928cabe597, 0x40ec798e45319999, 0xb530894a43f09453,
    0xd5a2a29d2d296e55, 0xd5a2a29d2d296e55, 0xb530894a43f09453,
    0x18d58932283396a4, 0x7b782955857b4156, 0xa4f91c1c491bcce3,
    0x2dbed35aafaf68dc, 0x2dbed35aafaf68dc, 0xa4f91c1c491bcce3,
    0x7ef234e7408de2e3, 0x2409d09e5bd89eb5, 0xab83b8ad85921528,
    0x8d2f27769bf8c788, 0x8d2f27769bf8c788, 0xab83b8ad85921528,
    0xcdf6465275666967, 0x5b071c3baa5d0f25, 0x3773663902770d68,
    0xd87fd2d242de30dc, 0xd87fd2d242de30dc, 0x3773663902770d68,
    0x268b91f3aeaecf44, 0x35a2db3f7016fd13, 0xa04461ab89ef2858,
    0xd9b91c6fa3d6e1ea, 0xd9b91c6fa3d6e1ea, 0xa04461ab89ef2858,
    0x4b845c9ab85b8b90, 0xe0d40231a72e3b89, 0xe756334373efe792,
    0xc5a1c11ff5cc8a27, 0xc5a1c11ff5cc8a27, 0xe756334373efe792,
};

TEST(TraceReplayGolden, MatrixDigestsMatchRecordedValues) {
  const Trace trace = make_flash_trace();
  const CacheKind caches[] = {CacheKind::kLru, CacheKind::kLfu,
                              CacheKind::kFifo, CacheKind::kClock,
                              CacheKind::kRandom};
  const PredictorKind predictors[] = {PredictorKind::kMarkov,
                                      PredictorKind::kPpm};
  std::vector<std::uint64_t> digests;
  std::size_t aborted = 0;
  for (CacheKind cache : caches) {
    for (PredictorKind predictor : predictors) {
      for (const char* governor : {"", "aimd-3"}) {
        std::uint64_t full_requests = 0;
        for (int observers = 0; observers < 3; ++observers) {
          TraceReplayConfig cfg;
          cfg.bandwidth = 300.0;
          cfg.cache_capacity = 8;
          cfg.cache_kind = cache;
          cfg.predictor_kind = predictor;
          cfg.governor = governor;
          cfg.stream_window = 512;
          TelemetryPlane plane;
          DivergenceDetector detector;
          if (observers > 0) {
            cfg.enable_load_sensor = true;
            cfg.telemetry = &plane;
          }
          if (observers == 2) {
            cfg.divergence = &detector;
            cfg.abort_on_divergence = true;
          }
          ThresholdPolicy policy(core::InteractionModel::kModelA);
          const ProxySimResult r = run_trace_replay(trace, cfg, policy);
          if (observers == 1) full_requests = r.requests;
          if (observers == 2 && r.requests < full_requests) ++aborted;
          const std::size_t i = digests.size();
          digests.push_back(digest(r));
          ASSERT_LT(i, std::size(kGoldenDigests)) << hex(digests.back());
          EXPECT_EQ(digests.back(), kGoldenDigests[i])
              << "cache=" << static_cast<int>(cache)
              << " predictor=" << static_cast<int>(predictor)
              << " governor='" << governor << "' observers=" << observers
              << " digest " << hex(digests.back());
        }
      }
    }
  }
  EXPECT_EQ(digests.size(), std::size(kGoldenDigests));
  // The abort hook really fired somewhere, so the pinned abort legs cover
  // the stop-feeding-then-drain path, not just a full replay.
  EXPECT_GT(aborted, 0u);
}

// --- observability equivalence ----------------------------------------------

TEST(TraceReplayGolden, TelemetryAndDetectorMatchRecordedValues) {
  // What a replay shows its observers, recorded from the stream-window
  // replay loop: one plane with the runtime's gauges only, sampled on its
  // own cadence (no extra barrier rows), detector signals named without a
  // shard prefix, and one evaluation per window boundary plus one after
  // the drain. The abort-armed run stops feeding at the latching boundary
  // and drains what was already scheduled.
  struct Recorded {
    bool abort;
    std::uint64_t requests;
    std::size_t rows;
    std::uint64_t evaluations;
  };
  const Trace trace = make_flash_trace();
  const std::vector<std::string> expected_gauges = {
      "link.queue_depth", "link.util_ewma",    "link.depth_ewma",
      "link.slowdown_ewma", "gov.state",       "gov.depth_limit",
      "inflight.demand",  "inflight.prefetch", "cache.residents",
      "pred.contexts",    "pred.halvings",
  };
  for (const Recorded& want : {Recorded{false, 5400, 225, 6},
                               Recorded{true, 1448, 83, 3}}) {
    SCOPED_TRACE(want.abort ? "abort armed" : "abort off");
    TraceReplayConfig cfg;
    cfg.bandwidth = 400.0;
    cfg.cache_capacity = 8;
    cfg.enable_load_sensor = true;
    cfg.stream_window = 1024;
    TelemetryPlane plane;
    DivergenceDetector detector;
    cfg.telemetry = &plane;
    cfg.divergence = &detector;
    cfg.abort_on_divergence = want.abort;
    FixedThresholdPolicy policy(0.05);
    const ProxySimResult r = run_trace_replay(trace, cfg, policy);

    std::vector<std::string> gauges;
    for (std::size_t g = 0; g < plane.registry().gauge_count(); ++g) {
      gauges.push_back(plane.registry().gauge_name(g));
    }
    EXPECT_EQ(gauges, expected_gauges);
    EXPECT_EQ(r.requests, want.requests);
    EXPECT_EQ(plane.series().size(), want.rows);
    EXPECT_EQ(plane.series().recorded(), want.rows);
    EXPECT_EQ(detector.evaluations(), want.evaluations);
    EXPECT_EQ(detector.verdict(), StabilityVerdict::kDivergent);
    EXPECT_EQ(detector.onset_time(), 12.79748377442372);
    EXPECT_EQ(detector.onset_signal(), "link.depth_ewma");
  }
}

}  // namespace
}  // namespace specpf
