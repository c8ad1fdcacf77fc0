// Trace-driven replay: determinism, paired policy comparisons, golden
// result digests (the replay matrix, and the full-stack backend matrix
// across the proxy sim, replay and a sharded fleet), and observability
// equivalence.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/proxy_sim.hpp"
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

// --- full-stack backend digests ----------------------------------------------
//
// Recorded at the last revision that still carried the legacy backends, in
// a run that also required every configuration to produce the same digest
// with the std::map in-flight index, the per-user TaggedCache fleet, the
// virtual predictor tables, and all three at once. Each table lists its
// matrix innermost-last.

/// A sharded replay's fleet result, every shard's result, and its
/// cross-shard traffic, folded into one digest.
std::uint64_t digest(const ShardedReplayResult& r) {
  std::uint64_t h = digest(r.merged);
  const auto fold = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  for (const ProxySimResult& shard : r.per_shard) fold(digest(shard));
  fold(r.cross_shard_events);
  fold(r.epochs);
  fold(r.backbone.jobs());
  return h;
}

Trace backend_trace(std::size_t users, std::size_t requests,
                    std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.num_users = users;
  cfg.num_requests = requests;
  cfg.request_rate = 50.0;
  cfg.graph.num_pages = 80;
  cfg.seed = seed;
  return generate_synthetic_trace(cfg);
}

constexpr CacheKind kAllCaches[] = {CacheKind::kLru, CacheKind::kLfu,
                                    CacheKind::kFifo, CacheKind::kClock,
                                    CacheKind::kRandom};

/// Checks `got[i]` (run `labels[i]`) against `want[i]` for every entry.
template <std::size_t N>
void expect_recorded(const std::vector<std::uint64_t>& got,
                     const std::vector<std::string>& labels,
                     const std::uint64_t (&want)[N]) {
  ASSERT_EQ(got.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(got[i], want[i]) << labels[i] << " digest " << hex(got[i]);
  }
}

// Predictor (markov, ppm, depgraph, frequency, oracle) x cache kind.
constexpr std::uint64_t kProxyBackendDigests[] = {
    0x97e774fd9897b35b, 0x10175f809009cc2a, 0xa034cbac24665f54,
    0xdea5af67bd8d53df, 0xd37416079a8dd393, 0xa7d7fa8911abffd9,
    0x024b39bab67395d2, 0x3abb713e47277657, 0xcb8ba2dc4d854bac,
    0x61dd160fd23d3326, 0xedfc891eaa0e1562, 0xc8d399cae9a83551,
    0x29751de29fd21930, 0x966f760fe5519385, 0xb4cfc292772c8928,
    0x3a41a7a22a55e388, 0x6bd3892d5c37136e, 0x7ec3a7c2ae9a5435,
    0x2c127cfe08b43510, 0xdd3fbe623ff1d45f, 0x55ff25aeec886c75,
    0x8f9e7765963ce161, 0x8cc38038d69d13e9, 0x96bc23b743af213e,
    0xe0813401cb448e89,
};

TEST(TraceReplayGolden, ProxySimBackendMatrixMatchesRecordedValues) {
  std::vector<std::uint64_t> digests;
  std::vector<std::string> labels;
  for (int p = 0; p < kNumPredictorKinds; ++p) {
    for (CacheKind cache : kAllCaches) {
      // Four users on a tight 12-entry cache keep evictions and in-flight
      // attaches hot through the whole run.
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
      cfg.predictor_kind = static_cast<PredictorKind>(p);
      cfg.cache_kind = cache;
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      const ProxySimResult r = run_proxy_sim(cfg, policy);
      EXPECT_GT(r.requests, 0u);
      digests.push_back(digest(r));
      labels.push_back(std::string(predictor_kind_name(cfg.predictor_kind)) +
                       "/" + cache_kind_name(cache));
    }
  }
  expect_recorded(digests, labels, kProxyBackendDigests);
}

// Replayable predictor (markov, ppm, depgraph, frequency) x cache kind x
// capacity (8, 24).
constexpr std::uint64_t kReplayBackendDigests[] = {
    0x4d6c506b06521d9f, 0xa3a4bf489b1e2728, 0x96d51757a6bddd39,
    0xa3a4bf489b1e2728, 0x29dc2f0ec7599729, 0xa3a4bf489b1e2728,
    0x20d5334644bc02d8, 0xa3a4bf489b1e2728, 0xa7df199615fdf65d,
    0xa3a4bf489b1e2728, 0x67692be27cbd68d0, 0x69a127b8dd329e56,
    0x43c0e17a61fcc124, 0x69a127b8dd329e56, 0xe6edb0f919cf0285,
    0x69a127b8dd329e56, 0xe6edb0f919cf0285, 0x69a127b8dd329e56,
    0x3634a152aab5d52c, 0x69a127b8dd329e56, 0xf2dd4dd5177cefdf,
    0xa1f67ccf0cc145f6, 0xa47e35ec1eba0f22, 0xa1f67ccf0cc145f6,
    0xe820bf7e5b54912d, 0xa1f67ccf0cc145f6, 0xe820bf7e5b54912d,
    0xa1f67ccf0cc145f6, 0x8cef7bc189dec838, 0xa1f67ccf0cc145f6,
    0xf2dd4dd5177cefdf, 0xa1f67ccf0cc145f6, 0xa47e35ec1eba0f22,
    0xa1f67ccf0cc145f6, 0xe820bf7e5b54912d, 0xa1f67ccf0cc145f6,
    0xe820bf7e5b54912d, 0xa1f67ccf0cc145f6, 0x8cef7bc189dec838,
    0xa1f67ccf0cc145f6,
};

TEST(TraceReplayGolden, ReplayBackendMatrixMatchesRecordedValues) {
  const Trace trace = backend_trace(500, 5000, 21);
  std::vector<std::uint64_t> digests;
  std::vector<std::string> labels;
  for (PredictorKind predictor :
       {PredictorKind::kMarkov, PredictorKind::kPpm,
        PredictorKind::kDependencyGraph, PredictorKind::kFrequency}) {
    for (CacheKind cache : kAllCaches) {
      for (std::size_t capacity : {std::size_t{8}, std::size_t{24}}) {
        TraceReplayConfig cfg;
        cfg.bandwidth = 60.0;
        cfg.cache_capacity = capacity;
        cfg.cache_kind = cache;
        cfg.predictor_kind = predictor;
        ThresholdPolicy policy(core::InteractionModel::kModelA);
        const ProxySimResult r = run_trace_replay(trace, cfg, policy);
        EXPECT_GT(r.requests, 0u);
        digests.push_back(digest(r));
        labels.push_back(std::string(predictor_kind_name(predictor)) + "/" +
                         cache_kind_name(cache) + "/" +
                         std::to_string(capacity));
      }
    }
  }
  expect_recorded(digests, labels, kReplayBackendDigests);
}

// The same trace under a fixed threshold every predictor prefetches
// through, at capacities small enough that prefetched items are evicted
// unread: predictor (markov, ppm, depgraph, frequency) x cache kind x
// capacity (4, 8). Recorded before the engine's completion timer replaced
// cancel + reschedule, so the PS link's event order is pinned across it.
constexpr std::uint64_t kReplayPrefetchDigests[] = {
    0xd24eaba2e80a8788, 0x7469c8282c61f0a8, 0x12bdfbf86bf50728,
    0x7bff0982c56aadd2, 0x47004fce3b5c0be3, 0x4e97f31665cc5dc3,
    0x9842459e90832b37, 0x40ddcae3a7aec554, 0x82c9abfca6e8a082,
    0xddbc166fbadd59e0, 0x940a48c0cacad1c9, 0x62d0fa57ec8a6e40,
    0x81cfb2e3584c3960, 0xf92b7d54f1159143, 0x01f3df6716d6ee19,
    0xc50412296eeaf369, 0x24acd296554f007c, 0x4d46aa42168fbae6,
    0xab865e3139f5b035, 0xafac5104567045eb, 0x802cbccbbc031067,
    0xce5f4823dedd7c1a, 0x5c7c21e727e82ec8, 0x935e9ec2daff267f,
    0x11b406fb9a72d2a0, 0x5eb3b30f551aaea7, 0x3b7e7784ac20aa14,
    0xaf84d0edcd0c4031, 0xf9fe187e8d95bf81, 0xd0035b371696e435,
    0xa2630a8ef374effb, 0x7a1662040a4863b2, 0xe8d365c614b8ce63,
    0xbb3db3a816cf6dd5, 0x58b04325fddd68a1, 0x1bbd081ff3748bb5,
    0x7bf4ab8eb1d3c406, 0x13a57ba4001b868f, 0xd9347e51f2315607,
    0xe4eb11a2d32d26fb,
};

TEST(TraceReplayGolden, ReplayPrefetchEvictionMatrixMatchesRecordedValues) {
  const Trace trace = backend_trace(500, 5000, 21);
  std::vector<std::uint64_t> digests;
  std::vector<std::string> labels;
  for (PredictorKind predictor :
       {PredictorKind::kMarkov, PredictorKind::kPpm,
        PredictorKind::kDependencyGraph, PredictorKind::kFrequency}) {
    for (std::size_t capacity : {std::size_t{4}, std::size_t{8}}) {
      // Every leg prefetches and evicts, so each cache kind leaves its own
      // digest: no two legs of one (predictor, capacity) row may agree.
      std::vector<std::uint64_t> row;
      for (CacheKind cache : kAllCaches) {
        TraceReplayConfig cfg;
        cfg.bandwidth = 60.0;
        cfg.cache_capacity = capacity;
        cfg.cache_kind = cache;
        cfg.predictor_kind = predictor;
        FixedThresholdPolicy policy(0.1);
        const ProxySimResult r = run_trace_replay(trace, cfg, policy);
        const std::string label = std::string(predictor_kind_name(predictor)) +
                                  "/" + cache_kind_name(cache) + "/" +
                                  std::to_string(capacity);
        EXPECT_GT(r.prefetch_jobs, 0u) << label;
        EXPECT_GT(r.wasted_prefetch_evictions, 0u) << label;
        for (std::uint64_t other : row) EXPECT_NE(digest(r), other) << label;
        row.push_back(digest(r));
        digests.push_back(digest(r));
        labels.push_back(label);
      }
    }
  }
  expect_recorded(digests, labels, kReplayPrefetchDigests);
}

// A 3-shard fleet: predictor (markov, ppm) x cache kind.
constexpr std::uint64_t kShardedBackendDigests[] = {
    0xa7bb09606594c7b4, 0xd813222beb889a5f, 0x20c3a1e0c2d3c925,
    0xfb4c5371a0eba750, 0x4f08f9f51145829e, 0xaa81d5e8002d0d01,
    0xe84872b90058c0dd, 0x57e5637d359b7078, 0x73dd7b5c285a39a9,
    0x71a60919635b10d5,
};

TEST(TraceReplayGolden, ShardedBackendMatrixMatchesRecordedValues) {
  const Trace trace = backend_trace(300, 3000, 33);
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };
  std::vector<std::uint64_t> digests;
  std::vector<std::string> labels;
  for (PredictorKind predictor : {PredictorKind::kMarkov, PredictorKind::kPpm}) {
    for (CacheKind cache : kAllCaches) {
      ShardedReplayConfig cfg;
      cfg.stack.bandwidth = 60.0;
      cfg.stack.cache_capacity = 8;
      cfg.stack.cache_kind = cache;
      cfg.stack.predictor_kind = predictor;
      cfg.num_shards = 3;
      cfg.num_threads = 1;
      const ShardedReplayResult r = run_sharded_replay(trace, cfg, factory);
      EXPECT_GT(r.merged.requests, 0u);
      digests.push_back(digest(r));
      labels.push_back(std::string(predictor_kind_name(predictor)) + "/" +
                       cache_kind_name(cache));
    }
  }
  expect_recorded(digests, labels, kShardedBackendDigests);
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
