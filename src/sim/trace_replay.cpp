#include "sim/trace_replay.hpp"

#include <utility>

#include "cache/cache_arena.hpp"
#include "shard/sharded_sim.hpp"
#include "util/contract.hpp"

namespace specpf {

void TraceReplayConfig::validate() const {
  SPECPF_EXPECTS(bandwidth > 0.0);
  SPECPF_EXPECTS(item_size > 0.0);
  SPECPF_EXPECTS(cache_capacity >= 1);
  SPECPF_EXPECTS(cache_capacity <= arena::kMaxCacheCapacity);
  SPECPF_EXPECTS(max_prefetch_per_request >= 1);
  SPECPF_EXPECTS(warmup_fraction >= 0.0 && warmup_fraction < 1.0);
  SPECPF_EXPECTS(governor.empty() || is_governor_name(governor));
  SPECPF_EXPECTS(stream_window >= 1);
  // The detector reads gauge streams; without a plane there is nothing to
  // watch, and aborting needs a verdict to abort on.
  SPECPF_EXPECTS(divergence == nullptr || telemetry != nullptr);
  SPECPF_EXPECTS(!abort_on_divergence || divergence != nullptr);
  // Replay has no generating graph for the oracle to read.
  SPECPF_EXPECTS(predictor_kind != PredictorKind::kOracle);
}

std::unique_ptr<PredictorPlane> make_replay_predictor(
    TraceReplayConfig::PredictorKind kind, std::size_t num_users,
    bool use_legacy, std::size_t max_candidates) {
  SPECPF_EXPECTS(kind != PredictorKind::kOracle);
  SPECPF_EXPECTS(!use_legacy);
  PredictorPlaneConfig plane_config;
  plane_config.num_users = num_users;
  plane_config.max_candidates = max_candidates;
  return make_predictor_plane(kind, plane_config);
}

namespace {

/// Lends the caller's policy to the one shard: the driver holds one policy
/// per shard, and the replay must run (and leave its state in) the
/// caller's instance.
class BorrowedPolicy final : public PrefetchPolicy {
 public:
  explicit BorrowedPolicy(PrefetchPolicy& policy) : policy_(policy) {}

  std::vector<core::Candidate> select(
      const std::vector<core::Candidate>& predictions,
      const PolicyContext& ctx) override {
    return policy_.select(predictions, ctx);
  }
  std::string name() const override { return policy_.name(); }

 private:
  PrefetchPolicy& policy_;
};

/// One-shard driver config: the stack as given, the caller's plane on the
/// shard, the detector (and its abort hook) on the fleet.
ShardedReplayConfig one_shard(const TraceReplayConfig& config) {
  ShardedReplayConfig sharded;
  sharded.stack = config;
  sharded.divergence = std::exchange(sharded.stack.divergence, nullptr);
  sharded.abort_on_divergence =
      std::exchange(sharded.stack.abort_on_divergence, false);
  return sharded;
}

PolicyFactory borrow(PrefetchPolicy& policy) {
  return [&policy] { return std::make_unique<BorrowedPolicy>(policy); };
}

}  // namespace

ProxySimResult run_trace_replay(TraceSource& source,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy) {
  return run_sharded_replay(source, one_shard(config), borrow(policy)).merged;
}

ProxySimResult run_trace_replay(const Trace& trace,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy) {
  return run_sharded_replay(trace, one_shard(config), borrow(policy)).merged;
}

}  // namespace specpf
