// Stack perf-trajectory recorder: isolates the request data plane — the
// in-flight transfer map, the predictor planes, and the full proxy/replay
// stacks — with a plain chrono harness (no google-benchmark dependency) and
// writes BENCH_stack.json alongside BENCH_engine.json, so the perf history
// covers the stack and not just the engine.
//
// The "tree" in-flight numbers run the same churn against std::map, the
// container the flat hash replaced. The "legacy" predictor numbers run the
// original virtual Predictor tables from tests/reference/, the baseline the
// slab-backed predictor plane replaced; both sides must predict
// identically before either is timed.
//
// Usage: perf_stack [output.json] [--check-plane-speedup]
//   (default output: BENCH_stack.json; --check-plane-speedup exits nonzero
//    if any plane predictor benches slower than its reference table, with
//    a small noise tolerance — the CI perf-smoke regression gate)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "policy/policies.hpp"
#include "predict/predictor_plane.hpp"
#include "predict/reference_predictors.hpp"
#include "sim/proxy_sim.hpp"
#include "sim/trace_replay.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using bench::best_time;
using bench::Metric;

// Mirrors StackRuntime::Inflight: a tag plus a usually-empty waiter list.
struct InflightPayload {
  bool is_prefetch = false;
  std::vector<double> waiter_times;
};

/// The in-flight access pattern of the stack, replayed against a map type:
/// submit (insert), a few lookups while the transfer is live, completion
/// (erase), over a rolling live set — the shape handle_request produces.
constexpr std::size_t kChurnOps = 400000;
constexpr std::size_t kChurnLive = 4096;

template <typename MapLike, typename FindFn, typename EraseFn>
std::uint64_t churn(MapLike& map, const FindFn& find_live,
                    const EraseFn& erase_key) {
  Rng rng(42);
  std::vector<std::uint64_t> live(kChurnLive, 0);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < kChurnOps; ++i) {
    const std::uint64_t user = rng.next_u64() % 64;
    const std::uint64_t item = rng.next_u64() % 100000;
    const std::uint64_t key = (user << 32) | item;
    const std::size_t slot = i % kChurnLive;
    if (live[slot] != 0) {
      checksum += erase_key(map, live[slot]) ? 1 : 0;
    }
    map[key].is_prefetch = (i & 1) != 0;
    live[slot] = key;
    for (int probe = 0; probe < 3; ++probe) {
      const std::uint64_t probe_key = live[rng.next_u64() % kChurnLive];
      if (probe_key != 0 && find_live(map, probe_key)) ++checksum;
    }
  }
  return checksum;
}

double bench_churn_flat(std::uint64_t* checksum) {
  return best_time([&] {
    FlatHashMap<InflightPayload> map;
    *checksum = churn(
        map,
        [](FlatHashMap<InflightPayload>& m, std::uint64_t k) {
          return m.find(k) != nullptr;
        },
        [](FlatHashMap<InflightPayload>& m, std::uint64_t k) {
          return m.erase(k);
        });
  });
}

double bench_churn_tree(std::uint64_t* checksum) {
  return best_time([&] {
    std::map<std::uint64_t, InflightPayload> map;
    *checksum = churn(
        map,
        [](std::map<std::uint64_t, InflightPayload>& m, std::uint64_t k) {
          return m.find(k) != m.end();
        },
        [](std::map<std::uint64_t, InflightPayload>& m, std::uint64_t k) {
          return m.erase(k) > 0;
        });
  });
}

/// Interleaved per-user session walks, so each user's sequence is a real
/// first-order chain (what the predictors' tables see in the stack).
constexpr std::size_t kPredictorUsers = 256;

std::vector<std::pair<UserId, std::uint64_t>> make_predictor_stream(
    const SessionGraph& graph, std::size_t events) {
  std::vector<std::pair<UserId, std::uint64_t>> stream;
  stream.reserve(events);
  Rng rng(9);
  std::vector<std::uint64_t> page(kPredictorUsers);
  for (std::size_t u = 0; u < kPredictorUsers; ++u) {
    page[u] = graph.sample_entry(rng);
  }
  for (std::size_t i = 0; i < events; ++i) {
    const std::size_t u = rng.next_u64() % kPredictorUsers;
    stream.emplace_back(static_cast<UserId>(u), page[u]);
    if (!graph.sample_next(page[u], rng, &page[u])) {
      page[u] = graph.sample_entry(rng);
    }
  }
  return stream;
}

/// The plane for `kind`, or its reference table when `reference` is set.
std::unique_ptr<PredictorPlane> make_bench_plane(PredictorKind kind,
                                                 const SessionGraph& graph,
                                                 bool reference) {
  PredictorPlaneConfig config;
  config.num_users = kPredictorUsers;
  config.graph = &graph;
  return reference ? make_table_predictor_plane(kind, config)
                    : make_predictor_plane(kind, config);
}

/// Replays a prefix of the stream through the plane and its reference
/// table, comparing predictions exactly — a cheap pre-timing guard so the
/// perf gate can never bless a plane that silently diverged.
bool predictor_backends_agree(
    PredictorKind kind, const SessionGraph& graph,
    const std::vector<std::pair<UserId, std::uint64_t>>& stream) {
  auto plane = make_bench_plane(kind, graph, false);
  auto legacy = make_bench_plane(kind, graph, true);
  std::vector<core::Candidate> got, want;
  const std::size_t prefix = std::min<std::size_t>(stream.size(), 20000);
  for (std::size_t i = 0; i < prefix; ++i) {
    const auto& [user, item] = stream[i];
    plane->observe(user, item);
    legacy->observe(user, item);
    if (i % 16 != 0) continue;
    plane->predict_into(user, 8, got);
    legacy->predict_into(user, 8, want);
    if (got.size() != want.size()) return false;
    for (std::size_t c = 0; c < got.size(); ++c) {
      if (got[c].item != want[c].item ||
          got[c].probability != want[c].probability) {
        return false;
      }
    }
  }
  return true;
}

/// Observe-throughput phase: table construction from a cold start, no
/// prediction — isolates intern/counter-bump cost.
double bench_predictor_observe(
    PredictorKind kind, const SessionGraph& graph, bool reference,
    const std::vector<std::pair<UserId, std::uint64_t>>& stream) {
  return best_time([&] {
    auto predictor = make_bench_plane(kind, graph, reference);
    for (const auto& [user, item] : stream) predictor->observe(user, item);
  });
}

/// Predict-throughput phase: tables pre-built outside the timer, one
/// predict_into(8) per event into a reused scratch buffer — isolates
/// ranking/top-k cost.
double bench_predictor_predict(
    PredictorKind kind, const SessionGraph& graph, bool reference,
    const std::vector<std::pair<UserId, std::uint64_t>>& stream) {
  auto predictor = make_bench_plane(kind, graph, reference);
  for (const auto& [user, item] : stream) predictor->observe(user, item);
  std::vector<core::Candidate> scratch;
  return best_time([&] {
    std::size_t sink = 0;
    for (const auto& [user, item] : stream) {
      predictor->predict_into(user, 8, scratch);
      sink += scratch.size();
    }
    if (sink == 0) std::fprintf(stderr, "predictor produced nothing\n");
  });
}

/// Requests per second of the generative proxy sim (markov + threshold).
double bench_proxy_sim() {
  ProxySimConfig config;
  config.num_users = 8;
  config.duration = 300.0;
  config.warmup = 30.0;
  config.seed = 11;
  config.predictor_kind = ProxySimConfig::PredictorKind::kMarkov;
  std::uint64_t requests = 0;
  const double secs = best_time([&] {
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    requests = run_proxy_sim(config, policy).requests;
  });
  return static_cast<double>(requests) / secs;
}

/// Requests per second of a 50k-user trace replay (markov + threshold).
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
  replay_cfg.cache_capacity = 8;
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
  const char* path = "BENCH_stack.json";
  bool check_plane_speedup = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-plane-speedup") == 0) {
      check_plane_speedup = true;
    } else {
      path = argv[i];
    }
  }
  std::vector<Metric> metrics;

  std::uint64_t flat_checksum = 0, tree_checksum = 0;
  const double flat_churn_secs = bench_churn_flat(&flat_checksum);
  const double tree_churn_secs = bench_churn_tree(&tree_checksum);
  if (flat_checksum != tree_checksum) {
    std::fprintf(stderr, "inflight churn diverged: flat=%llu tree=%llu\n",
                 static_cast<unsigned long long>(flat_checksum),
                 static_cast<unsigned long long>(tree_checksum));
    return 1;
  }
  const double ops = static_cast<double>(kChurnOps);
  metrics.push_back(
      {"stack.inflight_churn.flat_ops_per_sec", ops / flat_churn_secs, "ops/s"});
  metrics.push_back(
      {"stack.inflight_churn.tree_ops_per_sec", ops / tree_churn_secs, "ops/s"});
  metrics.push_back({"stack.inflight_churn.flat_vs_tree_speedup",
                     tree_churn_secs / flat_churn_secs, "x"});

  // Predictor plane vs reference tables: all five kinds, observe and predict
  // phases timed separately over one shared session-structured stream.
  const std::size_t kPredictorEvents = 200000;
  SessionGraphConfig pred_gcfg;
  pred_gcfg.num_pages = 400;
  pred_gcfg.out_degree = 3;
  const SessionGraph pred_graph(pred_gcfg, 7);
  const auto pred_stream = make_predictor_stream(pred_graph, kPredictorEvents);
  const double pred_events = static_cast<double>(kPredictorEvents);
  bool plane_regressed = false;
  for (int k = 0; k < kNumPredictorKinds; ++k) {
    const auto kind = static_cast<PredictorKind>(k);
    const std::string name = predictor_kind_name(kind);
    if (!predictor_backends_agree(kind, pred_graph, pred_stream)) {
      std::fprintf(stderr, "%s plane diverged from its reference table\n",
                   name.c_str());
      return 1;
    }
    const double op = bench_predictor_observe(kind, pred_graph, false,
                                              pred_stream);
    const double ol = bench_predictor_observe(kind, pred_graph, true,
                                              pred_stream);
    const double pp = bench_predictor_predict(kind, pred_graph, false,
                                              pred_stream);
    const double pl = bench_predictor_predict(kind, pred_graph, true,
                                              pred_stream);
    metrics.push_back({"stack.predictor." + name + ".observe_plane_events_per_sec",
                       pred_events / op, "events/s"});
    metrics.push_back({"stack.predictor." + name + ".observe_legacy_events_per_sec",
                       pred_events / ol, "events/s"});
    metrics.push_back({"stack.predictor." + name + ".predict_plane_events_per_sec",
                       pred_events / pp, "events/s"});
    metrics.push_back({"stack.predictor." + name + ".predict_legacy_events_per_sec",
                       pred_events / pl, "events/s"});
    // Combined observe+predict speedup — what a stack request actually pays.
    const double speedup = (ol + pl) / (op + pp);
    metrics.push_back({"stack.predictor." + name + ".plane_vs_legacy_speedup",
                       speedup, "x"});
    // 5% tolerance absorbs timer noise on the cheap kinds without letting a
    // real regression through.
    if (speedup < 0.95) {
      std::fprintf(stderr, "%s plane slower than its reference table: %.3fx\n",
                   name.c_str(), speedup);
      plane_regressed = true;
    }
  }
  if (check_plane_speedup && plane_regressed) return 1;

  metrics.push_back(
      {"stack.proxy_sim.requests_per_sec", bench_proxy_sim(), "requests/s"});
  metrics.push_back({"stack.trace_replay.requests_per_sec",
                     bench_trace_replay(), "requests/s"});

  if (!bench::write_bench_json(path, metrics)) return 1;
  return 0;
}
