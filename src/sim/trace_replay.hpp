// Trace-driven replay: runs the full prefetching stack (per-user tagged
// caches, predictor, policy, shared PS server) against a *recorded* request
// trace instead of a generative workload.
//
// Replay gives paired comparisons — every policy sees byte-identical
// request sequences — and lets users evaluate the threshold rule on their
// own logs (Trace::load_csv_file). Timing semantics are open-loop: requests
// fire at their recorded instants regardless of fetch completions, matching
// the paper's fixed-λ assumption.
//
// TraceReplayConfig is the per-shard stack configuration of the one replay
// driver, ShardedSim (shard/sharded_sim.hpp). run_trace_replay is that
// driver with one shard, run under the caller's policy, telemetry plane,
// and detector.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "control/governor.hpp"
#include "policy/policy.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/proxy_sim.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stream.hpp"

namespace specpf {

struct TraceReplayConfig {
  double bandwidth = 50.0;
  double item_size = 1.0;
  std::size_t cache_capacity = 64;  ///< 1 .. arena::kMaxCacheCapacity
  ProxySimConfig::CacheKind cache_kind = ProxySimConfig::CacheKind::kLru;

  /// Access model (the fleet-wide enum from predict/factory.hpp). Replay
  /// has no generating graph, so kOracle is rejected by validate().
  using PredictorKind = specpf::PredictorKind;
  PredictorKind predictor_kind = PredictorKind::kMarkov;

  core::InteractionModel estimator_model = core::InteractionModel::kModelA;
  std::size_t max_prefetch_per_request = 8;

  /// Fraction of the trace treated as warmup (metrics reset after it).
  double warmup_fraction = 0.1;
  std::uint64_t seed = 1;  ///< only used by the random cache kind

  /// Read only by specbench/src/layers.hpp; always false. Delete with that
  /// file's copy of the replay loop.
  static constexpr bool use_tree_inflight = false;
  static constexpr bool use_legacy_caches = false;
  static constexpr bool use_legacy_predictors = false;

  /// Prefetch governor by name (control/governor.hpp): noop, token-<rate>,
  /// aimd-<setpoint>, conf-<precision>. Empty = ungoverned (today's
  /// open-loop behaviour). The driver builds one instance per shard from
  /// the same name.
  std::string governor;
  /// Tuning knobs behind the name's primary parameter.
  GovernorConfig governor_config;
  /// Run the proxy-link load sensor even when ungoverned, so baselines
  /// report the same peak-load metrics governed runs do (pure
  /// observation: results stay bit-identical to a sensor-less run apart
  /// from the peak_* fields themselves).
  bool enable_load_sensor = false;
  LoadSensorConfig sensor;

  /// Telemetry plane to record into (borrowed; must outlive the run).
  /// Pure observation: results are bit-identical with this null or
  /// installed. Serves a one-shard run only; a fleet of S > 1 takes a
  /// TelemetryFleet through ShardedReplayConfig (one plane cannot serve S
  /// independent engines).
  class TelemetryPlane* telemetry = nullptr;

  /// Online divergence detector (obs/divergence.hpp; borrowed, must
  /// outlive the run). Requires `telemetry`: run_trace_replay attaches it
  /// to the sealed plane (configuring it with defaults and watching the
  /// standard gauge set if the caller did neither) and evaluates it on the
  /// driver thread at every epoch barrier, the last one after the drain.
  /// Pure observation — results are bit-identical with this null or
  /// installed — unless `abort_on_divergence` is also set. ShardedSim
  /// takes its detector through ShardedReplayConfig and requires this to
  /// stay null.
  class DivergenceDetector* divergence = nullptr;
  /// Stop feeding records as soon as the detector's verdict turns
  /// divergent: snapshot server stats at that barrier and drain only the
  /// work already scheduled, instead of simulating an exploding queue to
  /// the horizon. The result then covers only the simulated prefix;
  /// callers read the detector for the verdict and onset.
  bool abort_on_divergence = false;

  /// Streaming granularity, for any shard count: the most trace records
  /// one epoch feeds into the engines before running them forward (an
  /// epoch ends at the arrival of the stream_window-th unfed record).
  /// Bounds engine occupancy at ~stream_window events (plus in-flight
  /// fetches) regardless of trace length — the knob that keeps
  /// billion-request replays at bounded RSS. With one shard the epochs are
  /// exactly these windows.
  std::size_t stream_window = 65536;

  void validate() const;
};

/// Replays `trace` (must be time-ordered) under `policy` — ShardedSim with
/// one shard, borrowing `policy` and the config's plane and detector.
ProxySimResult run_trace_replay(const Trace& trace,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy);

/// Streaming form: pulls requests from `source` (time-ordered) in
/// stream_window batches instead of materializing a Trace. Two sequential
/// passes over the source (metadata, then schedule); results are
/// bit-identical to the in-RAM overload fed the same record sequence.
ProxySimResult run_trace_replay(TraceSource& source,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy);

/// Fresh predictor plane for a replay kind (`num_users` sizes the plane's
/// user-indexed history slab; `max_candidates` is the largest predict_into
/// limit it must serve). kOracle is not replayable. Called only by
/// specbench/src/layers.hpp; `use_legacy` must be false and stays only so
/// that call's `false` does not bind to max_candidates.
std::unique_ptr<PredictorPlane> make_replay_predictor(
    TraceReplayConfig::PredictorKind kind, std::size_t num_users,
    bool use_legacy,
    std::size_t max_candidates = PredictorPlaneConfig{}.max_candidates);

}  // namespace specpf
