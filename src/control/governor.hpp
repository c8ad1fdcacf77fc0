// Prefetch governors — the decision half of the congestion-aware control
// plane. A PrefetchGovernor sits between the prefetch policy and the link:
// after the policy has selected candidates, the runtime consults the
// governor once per candidate before admitting the transfer, and feeds
// usefulness/waste signals back as prefetches land, get claimed, or are
// evicted untouched.
//
// Every open-loop policy in the repo computes its threshold from per-user
// ĥ' estimates and never looks at the link. The governors close that loop
// against what the LinkLoadSensor measures — the feedback-directed
// throttling that keeps speculative traffic from destabilizing the network
// once load turns nonstationary (flash crowds, diurnal peaks):
//
//   * NoopGovernor        — admits everything; installing it is
//                           bit-identical to running ungoverned (the
//                           control-plane differential baseline).
//   * TokenBucketGovernor — a prefetch byte budget per user-group: tokens
//                           refill at a configured bytes/sec rate and each
//                           admitted prefetch spends its size. Demand
//                           traffic is never gated, so the worst case a
//                           misbehaving predictor can add to the link is
//                           the configured budget.
//   * AimdGovernor        — multiplicative threshold scaling: keeps its own
//                           admission threshold θ_g on the candidate
//                           probability, multiplying it up whenever the
//                           measured slowdown crosses the setpoint and
//                           letting it decay additively when the link is
//                           calm (AIMD, throttle-direction).
//   * ConfidenceGovernor  — confidence-gated depth: tracks predictor
//                           precision (useful vs wasted prefetches, EWMA)
//                           and cuts the per-request prefetch depth as
//                           precision drops.
//
// Governors are engine-local state machines: they draw no randomness and
// are mutated only by their own shard between epoch barriers, so governed
// sharded runs stay bit-deterministic across worker-thread counts. Fleet
// coordination happens exclusively through set_fleet_signal(), which the
// sharded driver calls on its own thread at the barrier.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "control/load_sensor.hpp"
#include "core/planner.hpp"
#include "predict/predictor_plane.hpp"

namespace specpf {

/// Tuning knobs shared by the name-constructed governors; the name suffix
/// (token-<rate>, aimd-<setpoint>, conf-<precision>) overrides the primary
/// parameter, everything else comes from here.
struct GovernorConfig {
  // Token bucket: bytes (item-size units) per second, per user group.
  double token_rate = 1000.0;
  /// Burst capacity = token_rate * token_burst_seconds.
  double token_burst_seconds = 1.0;
  /// Users are folded into user % token_groups buckets.
  std::size_t token_groups = 64;

  // AIMD threshold scaling.
  double aimd_setpoint = 2.0;    ///< target measured slowdown
  double aimd_interval = 0.5;    ///< seconds between adjustments
  double aimd_mult = 1.5;        ///< multiplicative step when congested
  double aimd_decrease = 0.02;   ///< additive decay when calm
  double aimd_kick = 0.05;       ///< first step up from θ_g = 0
  double aimd_ceiling = 0.98;    ///< θ_g never exceeds this

  // Confidence-gated depth.
  double conf_alpha = 0.05;  ///< per-outcome EWMA weight on precision
  double conf_high = 0.5;    ///< precision at/above which depth is full
  double conf_low = 0.1;     ///< precision at/below which depth is zero
};

class PrefetchGovernor {
 public:
  virtual ~PrefetchGovernor() = default;

  virtual std::string name() const = 0;

  /// Admission decision for one policy-selected prefetch candidate.
  /// `size` is the transfer size in the same units as the sensed link's
  /// bandwidth numerator; `load` is the proxy-link sensor snapshot.
  virtual bool admit(double now, UserId user, const core::Candidate& candidate,
                     double size, const LoadSignals& load) = 0;

  /// Cap on prefetches admitted for a single request (consulted once per
  /// request before the admission loop). Default: the configured depth.
  virtual std::size_t depth_limit(std::size_t configured) const {
    return configured;
  }

  /// Feedback: a prefetched item was claimed by a real request (first
  /// touch after landing, or a demand miss attaching in flight).
  virtual void on_prefetch_useful() {}
  /// Feedback: a prefetched item was evicted without ever being touched.
  virtual void on_prefetch_wasted() {}

  /// The scalar this governor contributes to the fleet-wide congestion
  /// exchange at epoch barriers (default: measured slowdown).
  virtual double epoch_signal(const LoadSignals& load) const {
    return load.slowdown;
  }

  /// Internal control state as one telemetry gauge (token mean level /
  /// AIMD θ_g / confidence precision). Pure read, sampled by the telemetry
  /// plane at its own cadence; never consulted on the admission path.
  virtual double state_gauge() const { return 0.0; }

  /// The configured primary knob — the governor's "aggressiveness" axis in
  /// stability sweeps (token → refill rate, aimd → slowdown setpoint,
  /// conf → full-depth precision bound). Noop (and the default) reports
  /// +inf: fully permissive, no configured ceiling. Pure read of
  /// construction-time config; never changes over a run.
  virtual double aggressiveness() const {
    return std::numeric_limits<double>::infinity();
  }

  /// Fleet aggregate pushed back by the sharded driver at the barrier
  /// (canonical order, driver thread — the only cross-shard mutation).
  void set_fleet_signal(double signal) noexcept { fleet_signal_ = signal; }
  double fleet_signal() const noexcept { return fleet_signal_; }

 protected:
  double fleet_signal_ = 0.0;
};

/// Admits everything. Wiring it in must be bit-identical to no governor.
class NoopGovernor final : public PrefetchGovernor {
 public:
  std::string name() const override { return "noop"; }
  bool admit(double, UserId, const core::Candidate&, double,
             const LoadSignals&) override {
    return true;
  }
};

class TokenBucketGovernor final : public PrefetchGovernor {
 public:
  explicit TokenBucketGovernor(const GovernorConfig& config);

  std::string name() const override;
  bool admit(double now, UserId user, const core::Candidate& candidate,
             double size, const LoadSignals& load) override;

  double tokens(std::size_t group) const { return buckets_[group].tokens; }
  double aggressiveness() const override { return rate_; }

  /// Mean token level across groups, as of each bucket's last refill (no
  /// clock access, so sampling cannot perturb refill arithmetic).
  double state_gauge() const override {
    double sum = 0.0;
    for (const Bucket& b : buckets_) sum += b.tokens;
    return sum / static_cast<double>(buckets_.size());
  }

 private:
  struct Bucket {
    double tokens = 0.0;
    double last_refill = 0.0;
  };
  double rate_;
  double burst_;
  std::vector<Bucket> buckets_;
};

class AimdGovernor final : public PrefetchGovernor {
 public:
  explicit AimdGovernor(const GovernorConfig& config);

  std::string name() const override;
  bool admit(double now, UserId user, const core::Candidate& candidate,
             double size, const LoadSignals& load) override;

  double theta() const noexcept { return theta_; }
  double state_gauge() const override { return theta_; }
  double aggressiveness() const override { return config_.aimd_setpoint; }

 private:
  void maybe_adjust(double now, double slowdown);

  GovernorConfig config_;
  double theta_ = 0.0;
  double last_adjust_ = 0.0;
  bool have_last_ = false;
};

class ConfidenceGovernor final : public PrefetchGovernor {
 public:
  explicit ConfidenceGovernor(const GovernorConfig& config);

  std::string name() const override;
  bool admit(double, UserId, const core::Candidate&, double,
             const LoadSignals&) override {
    return true;
  }
  std::size_t depth_limit(std::size_t configured) const override;
  void on_prefetch_useful() override { precision_.add(1.0); }
  void on_prefetch_wasted() override { precision_.add(0.0); }

  double precision() const noexcept { return precision_.value(); }
  double state_gauge() const override { return precision_.value(); }
  double aggressiveness() const override { return config_.conf_high; }

 private:
  GovernorConfig config_;
  EventEwma precision_;  ///< starts optimistic at 1.0
};

/// Fresh governor by CLI-friendly name: noop, token-<rate>,
/// aimd-<setpoint>, conf-<precision>. Returns nullptr for unknown names
/// (and for the empty string — "ungoverned" is spelled by not installing a
/// governor at all). Numeric suffixes are parsed strictly (trailing
/// garbage rejects the name). Shared by the examples, the replay
/// frontends, and the sharded driver's per-shard construction so
/// name→governor mappings cannot drift.
std::unique_ptr<PrefetchGovernor> make_governor_by_name(
    const std::string& name, const GovernorConfig& config = {});

/// Cheap name check (no construction): true iff make_governor_by_name
/// would recognize `name`. Config validation uses this; parameter-domain
/// errors still surface at construction.
bool is_governor_name(const std::string& name);

}  // namespace specpf
