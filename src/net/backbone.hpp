// Shared-origin / backbone link model for the sharded runtime.
//
// In the sharded topology each shard is a region: its users hit the
// regional proxy link (the shard's PsServer), and every retrieval for an
// item whose *home* region is elsewhere additionally loads the backbone —
// the job is replayed onto the home region's origin uplink after the
// cross-region latency. This is the network the paper's question is about
// at datacenter scale: speculative prefetching converts user-perceived
// latency into extra backbone/origin load, and the OriginLink is where that
// conversion becomes measurable (demand vs prefetch split, utilization,
// sojourn under processor sharing).
//
// Origin traffic is accounting-plane: completions update statistics but do
// not gate the user-facing fetch (the regional proxy serves it), so the
// regional dynamics are untouched by backbone load. A 1-shard run builds no
// origin links at all.
#pragma once

#include <cstdint>
#include <vector>

#include "control/load_sensor.hpp"
#include "net/ps_server.hpp"

namespace specpf {

/// Aggregate backbone measurements (per origin link, or merged across the
/// fleet in canonical shard order).
struct BackboneStats {
  std::uint64_t demand_jobs = 0;    ///< cross-shard demand fetches submitted
  std::uint64_t prefetch_jobs = 0;  ///< cross-shard prefetches submitted
  std::uint64_t completed = 0;      ///< transfers finished by the horizon
  double mean_sojourn = 0.0;        ///< per-transfer time on the uplink
  double utilization = 0.0;         ///< busy fraction (mean across links)
  double total_service_demand = 0.0;  ///< Σ size/bandwidth over completions
  /// Load-sensor peaks (smoothed queue depth / slowdown; 0 when the
  /// uplink's sensor is off). Merged by max across links.
  double peak_queue_depth = 0.0;
  double peak_slowdown = 0.0;

  std::uint64_t jobs() const { return demand_jobs + prefetch_jobs; }
};

/// Merges per-link snapshots: counters add, mean_sojourn is weighted by
/// completions, utilization averages across links (parallel uplinks). A
/// single-element merge returns that element verbatim.
BackboneStats merge_backbone_stats(const std::vector<BackboneStats>& links);

/// One region's origin uplink: a processor-sharing server fed by the
/// cross-shard mailbox deliveries for items homed in this region.
class OriginLink {
 public:
  OriginLink(Simulator& sim, double bandwidth);

  /// Submits a cross-shard transfer (called at delivery time).
  void submit(double size, bool is_prefetch);

  /// Clears accumulators at the warmup boundary (in-flight jobs keep
  /// running, like the proxy link's reset).
  void reset_stats();

  /// Snapshot at the measurement horizon.
  BackboneStats stats() const;

  std::size_t active_jobs() const { return server_.active_jobs(); }

  /// Attaches a load sensor to the uplink (pure observation, like the
  /// proxy-link sensor; the sharded driver enables it whenever the control
  /// plane is on so origin congestion is measurable per region).
  void enable_sensor(const LoadSensorConfig& config);
  const LoadSignals& load_signals() const { return sensor_.signals(); }

 private:
  PsServer server_;
  LinkLoadSensor sensor_;
  bool sense_ = false;
  std::uint64_t demand_jobs_ = 0;
  std::uint64_t prefetch_jobs_ = 0;
};

}  // namespace specpf
