// Micro-benchmarks for the node-based reference caches and predictor tables
// (tests/reference/), plus PPM's arena plane against its reference table.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "cache/clock_cache.hpp"
#include "cache/fifo.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/random_cache.hpp"
#include "cache/tagged_cache.hpp"
#include "predict/dependency_graph.hpp"
#include "predict/markov.hpp"
#include "predict/ppm.hpp"
#include "predict/predictor_plane.hpp"
#include "predict/reference_predictors.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace {

using namespace specpf;

template <typename CacheT>
std::unique_ptr<Cache> make_cache(std::size_t cap) {
  if constexpr (std::is_same_v<CacheT, RandomCache>) {
    return std::make_unique<RandomCache>(cap, 42);
  } else {
    return std::make_unique<CacheT>(cap);
  }
}

template <typename CacheT>
void BM_Cache_ZipfWorkload(benchmark::State& state) {
  const std::size_t cap = 1024;
  auto cache = make_cache<CacheT>(cap);
  ZipfDist zipf(16384, 0.9);
  Rng rng(11);
  for (auto _ : state) {
    const ItemId item = zipf.sample(rng);
    if (!cache->lookup(item).has_value()) {
      cache->insert(item, EntryTag::kTagged);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["hit_ratio"] = cache->stats().hit_ratio();
}
BENCHMARK_TEMPLATE(BM_Cache_ZipfWorkload, LruCache);
BENCHMARK_TEMPLATE(BM_Cache_ZipfWorkload, LfuCache);
BENCHMARK_TEMPLATE(BM_Cache_ZipfWorkload, FifoCache);
BENCHMARK_TEMPLATE(BM_Cache_ZipfWorkload, ClockCache);
BENCHMARK_TEMPLATE(BM_Cache_ZipfWorkload, RandomCache);

void BM_TaggedCache_Protocol(benchmark::State& state) {
  TaggedCache cache(std::make_unique<LruCache>(1024));
  ZipfDist zipf(8192, 0.9);
  Rng rng(13);
  for (auto _ : state) {
    const ItemId item = zipf.sample(rng);
    if (cache.access(item) == AccessOutcome::kMiss) {
      if (rng.bernoulli(0.5)) {
        cache.admit_demand(item);
      } else {
        cache.admit_prefetch(item);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TaggedCache_Protocol);

void BM_Markov_ObservePredict(benchmark::State& state) {
  MarkovPredictor predictor;
  ZipfDist zipf(2000, 0.8);
  Rng rng(17);
  for (auto _ : state) {
    predictor.observe(0, zipf.sample(rng));
    benchmark::DoNotOptimize(predictor.predict(0, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Markov_ObservePredict);

void BM_Ppm_ObservePredict(benchmark::State& state) {
  PpmPredictor predictor(static_cast<std::size_t>(state.range(0)));
  ZipfDist zipf(2000, 0.8);
  Rng rng(19);
  for (auto _ : state) {
    predictor.observe(0, zipf.sample(rng));
    benchmark::DoNotOptimize(predictor.predict(0, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ppm_ObservePredict)->Arg(2)->Arg(4);

constexpr std::size_t kFanOutUsers = 1024;

/// Interleaved session walks (400 pages, out-degree 3, exit 0.25) over
/// 1024 users: each session restart lands its entry page as a successor
/// of the previous session's last page, so order-1 contexts fan out to
/// hundreds of items — the shape the bounded ranked-head read targets.
std::vector<std::pair<UserId, std::uint64_t>> wide_fan_out_stream() {
  SessionGraphConfig gcfg;
  gcfg.num_pages = 400;
  gcfg.out_degree = 3;
  gcfg.exit_probability = 0.25;
  gcfg.link_skew = 1.6;
  const SessionGraph graph(gcfg, 7);
  Rng rng(29);
  std::vector<std::uint64_t> page(kFanOutUsers);
  for (auto& p : page) p = graph.sample_entry(rng);
  std::vector<std::pair<UserId, std::uint64_t>> stream(1u << 18);
  for (auto& [user, item] : stream) {
    user = static_cast<UserId>(rng.next_u64() % kFanOutUsers);
    item = page[user];
    if (!graph.sample_next(page[user], rng, &page[user])) {
      page[user] = graph.sample_entry(rng);
    }
  }
  return stream;
}

/// Order-3 PPM at 4 candidates on the wide-fan-out stream, arena plane
/// (arg 0) against the reference table (arg 1). The tables see the whole
/// stream once before timing, then every iteration observes one event and
/// predicts for its user.
void BM_PpmPlane_WideFanOut(benchmark::State& state) {
  const bool reference = state.range(0) != 0;
  static const auto stream = wide_fan_out_stream();
  PredictorPlaneConfig cfg;
  cfg.num_users = kFanOutUsers;
  cfg.ppm_order = 3;
  cfg.max_candidates = 4;
  auto plane = reference ? make_table_predictor_plane(PredictorKind::kPpm, cfg)
                         : make_predictor_plane(PredictorKind::kPpm, cfg);
  for (const auto& [user, item] : stream) plane->observe(user, item);
  std::vector<core::Candidate> scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [user, item] = stream[i];
    plane->observe(user, item);
    plane->predict_into(user, 4, scratch);
    benchmark::DoNotOptimize(scratch.data());
    if (++i == stream.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(reference ? "reference" : "plane");
  state.counters["full_scans"] = static_cast<double>(plane->full_scans());
}
BENCHMARK(BM_PpmPlane_WideFanOut)->Arg(0)->Arg(1);

void BM_DependencyGraph_ObservePredict(benchmark::State& state) {
  DependencyGraphPredictor predictor(4);
  ZipfDist zipf(2000, 0.8);
  Rng rng(23);
  for (auto _ : state) {
    predictor.observe(0, zipf.sample(rng));
    benchmark::DoNotOptimize(predictor.predict(0, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DependencyGraph_ObservePredict);

}  // namespace

BENCHMARK_MAIN();
