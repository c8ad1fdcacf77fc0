#include "sim/proxy_sim.hpp"

#include <functional>

#include "cache/cache_arena.hpp"
#include "des/simulator.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/stack_runtime.hpp"
#include "util/contract.hpp"
#include "workload/request_stream.hpp"

namespace specpf {

void ProxySimConfig::validate() const {
  SPECPF_EXPECTS(num_users >= 1);
  SPECPF_EXPECTS(bandwidth > 0.0);
  SPECPF_EXPECTS(session_rate_per_user > 0.0);
  SPECPF_EXPECTS(think_time_mean > 0.0);
  SPECPF_EXPECTS(item_size > 0.0);
  SPECPF_EXPECTS(cache_capacity >= 1);
  SPECPF_EXPECTS(cache_capacity <= arena::kMaxCacheCapacity);
  SPECPF_EXPECTS(max_prefetch_per_request >= 1);
  SPECPF_EXPECTS(duration > 0.0);
  SPECPF_EXPECTS(warmup >= 0.0);
}

namespace {

std::unique_ptr<PredictorPlane> make_predictor(const ProxySimConfig& config,
                                               const SessionGraph& graph) {
  PredictorPlaneConfig plane_config;
  plane_config.num_users = config.num_users;
  plane_config.max_candidates = config.max_prefetch_per_request;
  plane_config.graph = &graph;
  return make_predictor_plane(config.predictor_kind, plane_config);
}

}  // namespace

ProxySimResult run_proxy_sim(const ProxySimConfig& config,
                             PrefetchPolicy& policy) {
  config.validate();

  Rng root(config.seed);
  SessionGraph graph(config.graph, root.substream(0).next_u64());
  auto predictor = make_predictor(config, graph);

  // Analytic fallback request-rate estimate until enough data accumulates:
  // mean session length L = 1/exit_p; cycle = gap + (L-1)·think.
  const double session_len = 1.0 / config.graph.exit_probability;
  const double cycle = 1.0 / config.session_rate_per_user +
                       (session_len - 1.0) * config.think_time_mean;

  StackRuntimeConfig runtime_config;
  runtime_config.bandwidth = config.bandwidth;
  runtime_config.item_size = config.item_size;
  runtime_config.num_users = config.num_users;
  runtime_config.cache_capacity = config.cache_capacity;
  runtime_config.cache_kind = config.cache_kind;
  runtime_config.estimator_model = config.estimator_model;
  runtime_config.max_prefetch_per_request = config.max_prefetch_per_request;
  runtime_config.seed = config.seed;
  runtime_config.lambda_prior =
      static_cast<double>(config.num_users) * session_len / cycle;
  runtime_config.telemetry = config.telemetry;

  Simulator sim;
  StackRuntime runtime(sim, *predictor, policy, std::move(runtime_config));
  const double end_time = config.warmup + config.duration;

  std::vector<std::unique_ptr<SessionStream>> streams;
  streams.reserve(config.num_users);
  for (std::size_t u = 0; u < config.num_users; ++u) {
    streams.push_back(std::make_unique<SessionStream>(
        graph, config.session_rate_per_user, config.think_time_mean,
        root.substream(200 + u)));
  }

  // One recursive closure per run, captured by reference in the inline
  // engine callbacks.
  std::function<void(UserId)> schedule_next_request =  // lint:allow(std::function)
      [&](UserId user) {
    const Request req = streams[user]->next();
    if (req.time > end_time) return;
    sim.schedule_at(req.time, [&, user, req] {
      runtime.handle_request(user, req.item);
      schedule_next_request(user);
    });
  };
  for (std::size_t u = 0; u < config.num_users; ++u) {
    schedule_next_request(static_cast<UserId>(u));
  }

  if (config.warmup > 0.0) {
    sim.schedule_at(config.warmup, [&] { runtime.begin_measurement(); });
  } else {
    runtime.begin_measurement();
  }
  ServerStats horizon_stats;
  sim.schedule_at(end_time, [&] { horizon_stats = runtime.snapshot_server(); });

  sim.run_until(end_time);
  sim.run();  // drain in-flight transfers

  return runtime.finalize(horizon_stats, policy.name());
}

}  // namespace specpf
