// The replay driver: S regions, each owning an independent slab Simulator
// + StackRuntime data plane, synchronized with conservative epoch barriers
// and exchanging cross-shard traffic through mailboxes. run_trace_replay
// (sim/trace_replay.hpp) is this driver with S = 1.
//
// Topology. Users are partitioned across shards (shard of user u is
// u % S); items have a home shard (item % S). Every user request is served
// by the regional proxy stack exactly as in a one-shard run; any
// retrieval whose item is homed elsewhere additionally contributes a
// backbone job on the home region's origin uplink (net/backbone.hpp),
// delivered after the cross-region latency.
//
// Synchronization. Conservative epochs with lookahead L = backbone_latency,
// the minimum cross-shard delay: every epoch runs each shard to
// t_min + L, where t_min is the earliest pending event fleet-wide, so no
// shard can receive a cross-shard event timestamped inside the window it
// already executed. An epoch also ends early at the arrival of the
// stream_window-th record not yet fed, which bounds engine occupancy. With
// S = 1 nothing crosses shards: the lookahead is unbounded, so the epochs
// are exactly the stream windows, and no origin links, origin gauges, or
// barrier telemetry rows are built. Mailboxes are drained at the barrier
// in canonical order (destination-major, source 0..S-1) and bulk-scheduled
// into the destination engine.
//
// Determinism. Results are bit-identical regardless of worker thread
// count: each shard's RNG stream is counter-derived from the root seed,
// shards only touch their own state between barriers, and every merge
// (mailboxes, SimMetrics via RunningStats::merge, ServerStats, backbone
// stats) happens in canonical shard order on the driver thread. Shard 0
// inherits the root seed, so a 1-shard run uses the configured seed
// verbatim.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_types.hpp"
#include "net/backbone.hpp"
#include "sim/trace_replay.hpp"

namespace specpf {

class ThreadPool;

struct ShardedReplayConfig {
  /// Per-shard stack configuration (bandwidth is per regional link; the
  /// seed is the root seed shard streams derive from).
  TraceReplayConfig stack;
  std::size_t num_shards = 1;
  /// Worker threads driving shards between barriers; 0 means
  /// hardware_concurrency, 1 runs the epoch loop serially.
  std::size_t num_threads = 1;
  /// Minimum cross-shard delivery latency — also the epoch lookahead.
  double backbone_latency = 0.05;
  /// Bandwidth of each region's origin uplink.
  double backbone_bandwidth = 1000.0;
  /// Per-shard telemetry (borrowed; must outlive the run; size must equal
  /// num_shards). Shard s records into plane s between barriers; with
  /// S > 1 the driver adds origin-uplink gauges and forces a sample row at
  /// every epoch barrier. Pure observation — results are bit-identical
  /// with this null or installed. One plane cannot serve S independent
  /// engines, so `stack.telemetry` may be set instead only when S = 1.
  class TelemetryFleet* telemetry = nullptr;

  /// Fleet divergence detector (borrowed; must outlive the run). Requires
  /// `telemetry` (or, at S = 1, `stack.telemetry`): init() attaches it to
  /// every shard's sealed plane, under a "shard<s>/" signal-name prefix
  /// when S > 1, so the fleet verdict is naturally the worst shard's.
  /// Evaluated on the driver thread at every epoch barrier, the last one
  /// after the drain. Pure observation — bit-identical results with this
  /// null or installed — unless `abort_on_divergence` is also set.
  /// `stack.divergence` must stay null here.
  class DivergenceDetector* divergence = nullptr;
  /// Stop feeding records as soon as the fleet verdict turns divergent:
  /// horizon stats are snapshotted at the abort barrier on the driver
  /// thread (canonical shard order) instead of simulating every shard's
  /// exploding queue out to the trace horizon; work already scheduled
  /// still drains. The result then covers only the simulated prefix.
  bool abort_on_divergence = false;

  void validate() const;
};

/// Per-shard load/traffic breakdown (whole run, not just the measurement
/// window): where the events ran and which shards the mailbox traffic
/// actually moved between — the skew view `--per-shard-stats` prints.
struct ShardLoadStats {
  std::uint64_t events_executed = 0;  ///< engine events this shard ran
  std::uint64_t mailbox_sent = 0;     ///< remote fetches this shard emitted
  std::uint64_t mailbox_received = 0; ///< remote fetches homed here
};

struct ShardedReplayResult {
  /// Fleet-wide result, merged in canonical shard order.
  ProxySimResult merged;
  /// Cross-shard traffic at the measurement horizon (all zero when S = 1).
  BackboneStats backbone;
  /// Per-shard results, index = shard id.
  std::vector<ProxySimResult> per_shard;
  /// Per-shard event counts and mailbox volumes, index = shard id.
  std::vector<ShardLoadStats> shard_load;
  std::size_t num_shards = 1;
  std::uint64_t epochs = 0;
  std::uint64_t cross_shard_events = 0;
};

/// Creates one fresh policy instance per shard (policies may carry state,
/// so shards cannot share one).
using PolicyFactory =  // invoked once per shard at setup
    std::function<std::unique_ptr<PrefetchPolicy>()>;  // lint:allow(std::function)

class ShardedSim {
 public:
  /// Builds the per-shard engines over an in-RAM trace (time-ordered,
  /// borrowed for the lifetime of the object). Wraps the trace in a
  /// TraceVectorSource and streams it like any other source.
  ShardedSim(const Trace& trace, const ShardedReplayConfig& config,
             const PolicyFactory& make_policy);

  /// Streaming form: `source` (time-ordered, borrowed for the lifetime of
  /// the object) is scanned once up front for per-shard metadata (record
  /// counts, time spans, user densification), then records are fed to the
  /// shard engines epoch-by-epoch during run() — engine occupancy tracks
  /// the epoch window, not the trace length, so billion-request sources
  /// replay at bounded RSS.
  ShardedSim(TraceSource& source, const ShardedReplayConfig& config,
             const PolicyFactory& make_policy);

  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  /// Runs the epoch loop to completion and merges results. Call once.
  ShardedReplayResult run();

  static std::uint32_t shard_of_user(std::uint32_t user, std::size_t shards) {
    return static_cast<std::uint32_t>(user % shards);
  }
  static std::uint32_t home_shard(ItemId item, std::size_t shards) {
    return static_cast<std::uint32_t>(item % shards);
  }

 private:
  struct Shard;

  /// Shared constructor body: metadata scan + per-shard engine build.
  void init(TraceSource& source, const PolicyFactory& make_policy);
  /// Feeds pending records with arrival time ≤ epoch_end into their shard
  /// engines (global trace order), at most stream_window of them,
  /// interleaving the fleet-wide warmup events at the warmup boundary
  /// record and the horizon snapshots after the last record. Returns where
  /// the epoch ends: epoch_end, or the arrival of the first unfed record
  /// when the window filled first.
  double feed_records(double epoch_end);
  /// Schedules begin_measurement / origin stat resets on every shard at
  /// the global warmup instant (canonical shard order).
  void schedule_warmup_events();
  /// Schedules the per-shard measurement-horizon snapshots at end_time_.
  void schedule_horizons();
  /// Runs every shard to `epoch_end` (serially or on the pool).
  void run_epoch(double epoch_end);
  /// Drains all mailboxes into destination engines, canonical order.
  void exchange_mailboxes();
  /// Control-plane barrier step: averages the per-shard governors'
  /// congestion signals (canonical shard order, driver thread) and pushes
  /// the fleet mean back into every governor. No-op when S = 1 (a lone
  /// governor keeps its own signal) or the run is ungoverned.
  void exchange_setpoints();
  /// Earliest pending event across the fleet (+inf when drained).
  double fleet_next_event_time();
  /// Telemetry barrier step: refreshes every shard's origin-uplink gauges
  /// and forces a sample row at the epoch boundary (driver thread,
  /// canonical order). No-op without telemetry or origin links.
  void sample_telemetry(double now);
  /// SPECPF_AUDIT epoch-barrier sweep: audits every shard's engine slab and
  /// stack slice on the driver thread, throwing ContractViolation (with the
  /// failing shard named) on the first corrupt structure. Sampled at
  /// power-of-two epochs plus once after the loop drains.
  void audit_fleet() const;

  ShardedReplayConfig config_;
  std::string policy_name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t epochs_ = 0;
  std::uint64_t cross_shard_events_ = 0;
  bool ran_ = false;

  /// Record supply (borrowed; the Trace ctor routes through owned_source_).
  TraceSource* source_ = nullptr;
  std::unique_ptr<TraceVectorSource> owned_source_;
  std::uint64_t total_records_ = 0;
  std::size_t warmup_records_ = 0;
  double t0_ = 0.0;        ///< raw time of the first record
  double end_time_ = 0.0;  ///< measurement horizon (shifted)
  /// Feeder cursor: the next unscheduled record and its global index.
  TraceRecord pending_record_;
  std::uint64_t fed_index_ = 0;
  bool have_pending_ = false;
};

/// Convenience wrapper: construct, run, return.
ShardedReplayResult run_sharded_replay(const Trace& trace,
                                       const ShardedReplayConfig& config,
                                       const PolicyFactory& make_policy);

/// Streaming form of the wrapper (see ShardedSim's TraceSource ctor).
ShardedReplayResult run_sharded_replay(TraceSource& source,
                                       const ShardedReplayConfig& config,
                                       const PolicyFactory& make_policy);

}  // namespace specpf
