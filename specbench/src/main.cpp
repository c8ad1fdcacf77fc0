// specbench — the benchmark of record. One process replays one named
// workload through the public replay entry points (run_trace_replay,
// run_sharded_replay), times it, checks its outputs, and prints one JSON
// object on stdout: end-to-end metrics, per-layer metrics from the
// decorated replays in layers.hpp, the output checks, and provenance.
// specbench/run.py builds this binary and turns that object into the
// benchmark's report; see specbench/NOTES.md for the workloads and
// metrics.
//
// Usage: specbench --workload replay-markov|fleet-ppm|flash-open
//                  --seed N --seconds S --data-dir DIR [--spans FILE]
//
// Every run does the same work whatever is reported: build the input
// several times (setup), replay it untraced for S host seconds, then the
// check and traced replays. Host time and simulated time are kept apart:
// units "s", "ms", "us", "ns" are host time, "sim_s" is simulated time.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "util/argparse.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

#ifndef SPECBENCH_BUILD_TYPE
#define SPECBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SPECBENCH_CXX_FLAGS
#define SPECBENCH_CXX_FLAGS "unknown"
#endif
#if defined(__clang__)
#define SPECBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define SPECBENCH_COMPILER "gcc " __VERSION__
#else
#define SPECBENCH_COMPILER "unknown"
#endif

namespace {

using namespace specbench;

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  SyntheticTraceConfig trace;
  std::string scenario = "stationary";
  TraceReplayConfig stack;
  std::string policy;
  bool spt = false;             ///< written to .spt, replayed via TraceCursor
  std::size_t shards = 0;       ///< 0 = unsharded run_trace_replay
  std::size_t threads = 1;
  double backbone_bandwidth = 0.0;
  double backbone_latency = 0.0;
  bool telemetry = false;       ///< telemetry plane + divergence detector
};

SyntheticTraceConfig site_trace(std::size_t users, std::size_t requests,
                                double rate, std::uint64_t seed) {
  SyntheticTraceConfig cfg;
  cfg.num_users = users;
  cfg.num_requests = requests;
  cfg.request_rate = rate;
  cfg.graph.num_pages = 400;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.graph.link_skew = 1.6;
  cfg.seed = seed;
  return cfg;
}

TraceReplayConfig site_stack(double bandwidth, PredictorKind predictor) {
  TraceReplayConfig cfg;
  cfg.bandwidth = bandwidth;
  cfg.cache_capacity = 8;
  cfg.predictor_kind = predictor;
  cfg.max_prefetch_per_request = 4;
  return cfg;
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload* out) {
  Workload w;
  w.name = name;
  if (name == "replay-markov") {
    w.trace = site_trace(200000, 600000, 10000.0, seed);
    w.stack = site_stack(20000.0, PredictorKind::kMarkov);
    w.policy = "threshold-a";
  } else if (name == "fleet-ppm") {
    w.trace = site_trace(200000, 600000, 10000.0, seed);
    w.stack = site_stack(20000.0, PredictorKind::kPpm);
    w.stack.governor = "aimd-3";
    w.policy = "threshold-a";
    w.spt = true;
    w.shards = 4;
    w.threads = 4;
    w.backbone_bandwidth = 40000.0;
    w.backbone_latency = 0.05;
  } else if (name == "flash-open") {
    w.trace = site_trace(100000, 400000, 4000.0, seed);
    w.scenario = "flash";
    const double span = static_cast<double>(w.trace.num_requests) /
                        w.trace.request_rate;
    if (!make_scenario_modulation(w.scenario, span, 1, &w.trace.modulation)) {
      return false;
    }
    w.stack = site_stack(23000.0, PredictorKind::kMarkov);
    w.stack.enable_load_sensor = true;
    w.policy = "fixed-0.05";
    w.telemetry = true;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

// --- the replay input -------------------------------------------------------

/// What setup builds: an in-RAM trace, or an opened .spt file.
struct Input {
  Trace trace;
  std::unique_ptr<TraceFile> file;
  std::uint64_t records = 0;
};

Input build_input(const Workload& w, const std::string& spt_path) {
  Input in;
  if (!w.spt) {
    in.trace = generate_synthetic_trace(w.trace);
    in.records = in.trace.size();
    return in;
  }
  SyntheticTraceStream stream(w.trace);
  write_trace_file(spt_path, stream);
  in.file = std::make_unique<TraceFile>(spt_path);
  in.records = in.file->record_count();
  return in;
}

/// A fresh telemetry plane and detector per replay (the runtime seals the
/// plane it is given). Empty when the workload runs without telemetry.
struct Observers {
  std::unique_ptr<TelemetryPlane> plane;
  std::unique_ptr<DivergenceDetector> detector;

  TraceReplayConfig attach(TraceReplayConfig cfg, bool on) {
    if (!on) return cfg;
    plane = std::make_unique<TelemetryPlane>();
    detector = std::make_unique<DivergenceDetector>();
    cfg.telemetry = plane.get();
    cfg.divergence = detector.get();
    cfg.abort_on_divergence = false;
    return cfg;
  }
};

ShardedReplayConfig fleet_config(const Workload& w, std::size_t threads) {
  ShardedReplayConfig cfg;
  cfg.stack = w.stack;
  cfg.num_shards = w.shards;
  cfg.num_threads = threads;
  cfg.backbone_bandwidth = w.backbone_bandwidth;
  cfg.backbone_latency = w.backbone_latency;
  return cfg;
}

// --- fingerprints -----------------------------------------------------------

/// FNV-1a over the bytes of every field, doubles bit for bit.
struct Fingerprint {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void f(double v) { bytes(&v, sizeof v); }
  void u(std::uint64_t v) { bytes(&v, sizeof v); }

  void result(const ProxySimResult& r) {
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
  }
  void fleet(const ShardedReplayResult& r) {
    result(r.merged);
    for (const ProxySimResult& s : r.per_shard) result(s);
    for (const ShardLoadStats& s : r.shard_load) {
      u(s.events_executed);
      u(s.mailbox_sent);
      u(s.mailbox_received);
    }
    u(r.backbone.demand_jobs);
    u(r.backbone.prefetch_jobs);
    u(r.backbone.completed);
    f(r.backbone.mean_sojourn);
    f(r.backbone.utilization);
    f(r.backbone.total_service_demand);
    f(r.backbone.peak_queue_depth);
    f(r.backbone.peak_slowdown);
    u(r.epochs);
    u(r.cross_shard_events);
  }
};

std::uint64_t fingerprint(const ProxySimResult& r) {
  Fingerprint fp;
  fp.result(r);
  return fp.h;
}
std::uint64_t fingerprint(const ShardedReplayResult& r) {
  Fingerprint fp;
  fp.fleet(r);
  return fp.h;
}

// --- small helpers ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double seconds_since(std::int64_t begin) {
  return static_cast<double>(now_ns() - begin) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Cost of one steady_clock read, so span figures can be read against it.
double timer_ns() {
  constexpr int kReads = 1 << 16;
  std::int64_t sink = 0;
  const std::int64_t begin = now_ns();
  for (int i = 0; i < kReads; ++i) sink ^= now_ns();
  const double per = static_cast<double>(now_ns() - begin) / kReads;
  return sink == 0x5eed ? per + 1e-12 : per;
}

/// Host-speed reference: a fixed kernel that uses no library code (a random
/// pointer chase through a 16 MB table, which lives in the shared L3 like
/// the replay's working set, then integer hashing), run once on each of
/// the workload's worker threads at the same time. It is timed before and
/// after every untraced replay; a replay's host seconds are scaled by
/// kNominalS over the mean of its two reference times. On a shared host
/// whose speed drifts by 10-30% over seconds to minutes, this cancels the
/// drift both the replay and the kernel see, while a change to the library
/// moves only the replay. The slowest thread's time is the reference,
/// because the sharded replay waits for its slowest shard at every
/// barrier. kNominalS is the one-thread kernel's median time on the host
/// the benchmark was defined on (4-core Xeon VM), so one-thread reference
/// seconds stay close to host seconds there.
class HostReference {
 public:
  static constexpr double kNominalS = 0.165;

  explicit HostReference(std::size_t threads)
      : next_(std::size_t{4} << 20), sinks_(threads, 0) {
    for (std::size_t i = 0; i < next_.size(); ++i) {
      next_[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t x = 88172645463325252ull;  // xorshift64 Sattolo shuffle
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Runs the kernel on every thread at once; returns the slowest
  /// thread's host seconds.
  double run() {
    std::vector<double> seconds(sinks_.size());
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < sinks_.size(); ++t) {
      helpers.emplace_back([this, &seconds, t] { seconds[t] = kernel(t); });
    }
    seconds[0] = kernel(0);
    for (std::thread& h : helpers) h.join();
    return *std::max_element(seconds.begin(), seconds.end());
  }

  std::uint64_t sink() const {
    std::uint64_t all = 0;
    for (const std::uint64_t s : sinks_) all ^= s;
    return all;
  }

 private:
  double kernel(std::size_t t) {
    const std::int64_t begin = now_ns();
    std::uint64_t& sink = sinks_[t];
    auto p = static_cast<std::uint32_t>((sink + t * 7919) % next_.size());
    for (int i = 0; i < 1'000'000; ++i) p = next_[p];
    std::uint64_t h = sink | 1;
    for (int i = 0; i < 20'000'000; ++i) {
      h = (h * 6364136223846793005ull + 1442695040888963407ull) ^ (h >> 13);
    }
    sink += p ^ h;
    return static_cast<double>(now_ns() - begin) * 1e-9;
  }

  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> sinks_;  ///< one per thread, so no sharing
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Minimal JSON object writer (keys are plain identifiers).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- checks ---------------------------------------------------------------------

struct Checks {
  Json json;
  std::uint64_t attempted = 0;  ///< replays whose outputs were checked
  std::uint64_t failed = 0;

  /// Counts one checked replay; `detail` says what it was compared with.
  void expect(const std::string& name, bool ok, const std::string& detail) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "specbench: check failed: %s (%s)\n", name.c_str(),
                   detail.c_str());
    }
    json.raw(name, Json().boolean("ok", ok).str("detail", detail).done());
  }
};

/// Result invariants every replay must satisfy, whatever the seed.
bool sane(const ProxySimResult& r, std::uint64_t measured_requests) {
  return r.requests == measured_requests && std::isfinite(r.mean_access_time) &&
         r.mean_access_time > 0.0 && r.hit_ratio >= 0.0 && r.hit_ratio <= 1.0 &&
         r.retrievals_per_request > 0.0 &&
         r.demand_jobs + r.prefetch_jobs > 0 && r.server_utilization > 0.0;
}

// --- metrics --------------------------------------------------------------------

struct Metrics {
  Json json;
  void add(const std::string& name, double value, const std::string& unit) {
    json.raw(name, Json().num("value", value).str("unit", unit).done());
  }
};

/// Per-request layers of one bench-side traced replay.
void add_request_layers(Metrics& m, const TracedReplay& t) {
  const double events = static_cast<double>(t.events);
  m.add("des.events", events, "count");
  m.add("des.self_ns_per_event",
        safe_div(static_cast<double>(t.engine.ns - t.handle.ns), events, 0.0),
        "ns");
  const std::int64_t children =
      t.observe.ns + t.predict.ns + t.policy.select.ns + t.admit.ns;
  m.add("sim.handle_request_self_ns",
        safe_div(static_cast<double>(t.handle.ns - children),
                 static_cast<double>(t.handle.calls), 0.0),
        "ns");
  m.add("predict.observe_ns", t.observe.ns_per_call(), "ns");
  m.add("predict.predict_ns", t.predict.ns_per_call(), "ns");
  m.add("predict.candidates_per_call", t.predict.items_per_call(), "count");
  m.add("predict.contexts", static_cast<double>(t.contexts), "count");
  m.add("predict.share_of_wall",
        static_cast<double>(t.observe.ns + t.predict.ns) / (t.wall_s * 1e9),
        "ratio");
  m.add("control.admit_calls", static_cast<double>(t.admit.calls), "count");
  // Every selected candidate is either admitted (admit() returned true) or
  // throttled (refused, or cut by the depth limit before admit()).
  const double selected = static_cast<double>(t.policy.select.items);
  m.add("control.throttled_frac",
        t.has_governor
            ? safe_div(selected - static_cast<double>(t.admit.items), selected,
                       0.0)
            : 0.0,
        "ratio");
  m.add("net.peak_queue_depth", t.peak_link_jobs, "jobs");
}

void add_policy_layer(Metrics& m, const PolicyStats& p) {
  m.add("policy.select_ns", p.select.ns_per_call(), "ns");
  m.add("policy.selected_per_call", p.select.items_per_call(), "count");
  m.add("policy.accept_ratio",
        safe_div(static_cast<double>(p.select.items),
                 static_cast<double>(p.offered), 0.0),
        "ratio");
}

void add_result_layers(Metrics& m, const ProxySimResult& r) {
  m.add("net.mean_demand_sojourn_s", r.mean_demand_sojourn, "sim_s");
  m.add("net.link_util", r.server_utilization, "ratio");
  m.add("cache.hit_ratio", r.hit_ratio, "ratio");
  m.add("cache.prefetch_useful_frac", r.prefetch_useful_fraction, "ratio");
  m.add("cache.wasted_evictions",
        static_cast<double>(r.wasted_prefetch_evictions), "count");
  m.add("cache.inflight_hits", static_cast<double>(r.inflight_hits), "count");
}

struct FleetShardStats {
  double epochs = 0, requests_per_epoch = 0, epoch_us_p50 = 0,
         epoch_us_p99 = 0, event_skew = 0, cross_shard_events = 0,
         speedup = 0;
};

void add_shard_layer(Metrics& m, const FleetShardStats& s) {
  m.add("shard.epochs", s.epochs, "count");
  m.add("shard.requests_per_epoch", s.requests_per_epoch, "count");
  m.add("shard.epoch_us_p50", s.epoch_us_p50, "us");
  m.add("shard.epoch_us_p99", s.epoch_us_p99, "us");
  m.add("shard.event_skew", s.event_skew, "ratio");
  m.add("shard.cross_shard_events", s.cross_shard_events, "count");
  m.add("shard.speedup_4t_over_1t", s.speedup, "x");
}

// --- the run ----------------------------------------------------------------------

struct Run {
  Run(const Workload& workload, const Input& input) : w(workload), in(input) {}

  const Workload& w;
  const Input& in;
  std::uint64_t measured_requests = 0;  ///< records after the warmup cut
  Checks checks;
  Metrics e2e;
  Metrics layers;
  SpanLog spans;
  std::uint64_t layer_checksum = 14695981039346656037ull;
  std::vector<double> replay_walls;  ///< timed untraced replays, host s
  std::vector<double> ref_walls;     ///< the same, in reference seconds
  std::vector<double> ref_kernel;    ///< HostReference times, in order
  ProxySimResult result;             ///< the workload's (fleet: merged)
  std::uint64_t fp = 0;              ///< fingerprint of the workload's output

  void consume(std::uint64_t v) {
    layer_checksum = (layer_checksum ^ v) * 1099511628211ull;
  }
  std::unique_ptr<TraceSource> source() const {
    if (in.file) return std::make_unique<TraceCursor>(*in.file);
    return std::make_unique<TraceVectorSource>(in.trace);
  }

  /// One untraced replay of the workload as configured; returns its
  /// fingerprint and host seconds.
  std::uint64_t replay(std::size_t threads, double* wall) {
    auto src = source();
    if (w.shards > 0) {
      const ShardedReplayConfig cfg = fleet_config(w, threads);
      const PolicyFactory factory = [&] { return make_policy_by_name(w.policy); };
      const std::int64_t begin = now_ns();
      const ShardedReplayResult r = run_sharded_replay(*src, cfg, factory);
      *wall = seconds_since(begin);
      result = r.merged;
      return fingerprint(r);
    }
    Observers obs;
    const TraceReplayConfig cfg = obs.attach(w.stack, w.telemetry);
    auto policy = make_policy_by_name(w.policy);
    const std::int64_t begin = now_ns();
    result = run_trace_replay(*src, cfg, *policy);
    *wall = seconds_since(begin);
    return fingerprint(result);
  }

  /// The first untraced replay: the reference fingerprint every later
  /// replay of this seed must reproduce. It is not timed; it warms up and
  /// is the one replay peak_rss_mb sees.
  void first_replay() {
    double wall = 0.0;
    fp = replay(w.threads, &wall);
    checks.expect("sane_result", sane(result, measured_requests),
                  "requests == records after warmup, finite positive access "
                  "time, hit ratio in [0,1]");
  }

  /// Timed untraced replays for `seconds` host seconds (at least three),
  /// each bracketed by HostReference runs; every one must reproduce the
  /// first replay's fingerprint.
  void timed_loop(double seconds) {
    HostReference reference(w.threads);
    double before = reference.run();
    ref_kernel.push_back(before);
    const std::int64_t begin = now_ns();
    while (replay_walls.size() < 3 || seconds_since(begin) < seconds) {
      double wall = 0.0;
      const std::uint64_t h = replay(w.threads, &wall);
      const double after = reference.run();
      ref_kernel.push_back(after);
      replay_walls.push_back(wall);
      ref_walls.push_back(wall * HostReference::kNominalS /
                          (0.5 * (before + after)));
      before = after;
      checks.expect("repeat_" + std::to_string(replay_walls.size()), h == fp,
                    "fingerprint " + hex(h) + " vs first " + hex(fp));
    }
    consume(reference.sink());
  }

  /// A bench-side traced replay over `src`, checked against `expect_fp`.
  TracedReplay traced(TraceSource& src, bool telemetry,
                      std::uint64_t expect_fp, const std::string& check,
                      const std::string& against) {
    Observers obs;
    const TraceReplayConfig cfg = obs.attach(w.stack, telemetry);
    TimedSource timed(src);
    TracedReplay t =
        traced_trace_replay(timed, cfg, make_policy_by_name(w.policy), spans);
    const std::uint64_t h = fingerprint(t.result);
    checks.expect(check, h == expect_fp,
                  "traced " + hex(h) + " vs " + against + " " + hex(expect_fp));
    consume(timed.checksum());
    consume(timed.stat().items);
    consume(t.predict.items);
    consume(t.policy.select.items);
    consume(t.admit.items);
    t.next = timed.stat();
    return t;
  }

  void unsharded_layers() {
    auto src = source();
    TracedReplay t = traced(*src, w.telemetry, fp, "traced_driver_matches",
                            "run_trace_replay");
    add_request_layers(layers, t);
    add_policy_layer(layers, t.policy);
    layers.add("workload.next_ns", t.next.ns_per_call(), "ns");
    layers.add("workload.spt_bytes_per_record", 0.0, "B/record");
    add_result_layers(layers, result);
    double cost = 0.0;
    double verdict = -1.0;
    if (w.telemetry) {
      auto off_src = source();
      const TracedReplay off =
          traced(*off_src, false, fp, "telemetry_off_matches",
                 "run_trace_replay with telemetry on");
      cost = t.wall_s / off.wall_s - 1.0;
      verdict = static_cast<double>(t.verdict);
    }
    layers.add("obs.cost_frac", cost, "ratio");
    layers.add("obs.verdict", verdict, "code");
    add_shard_layer(layers, FleetShardStats{});
    layers.add("bench.trace_overhead_frac",
               t.wall_s / median(replay_walls) - 1.0, "ratio");
  }

  void fleet_layers() {
    // 1 worker thread: must match the 4-thread fingerprint, and gives the
    // thread-scaling figure.
    double wall_1t = 0.0;
    const std::uint64_t h1 = replay(1, &wall_1t);
    checks.expect("fleet_1t_matches_4t", h1 == fp,
                  "1 thread " + hex(h1) + " vs " + std::to_string(w.threads) +
                      " threads " + hex(fp));

    // Decorated fleet: timed driver-thread source, timed per-shard policies.
    std::vector<std::unique_ptr<PolicyStats>> policies;
    const PolicyFactory factory = [&] {
      policies.push_back(std::make_unique<PolicyStats>());
      return std::make_unique<TimedPolicy>(make_policy_by_name(w.policy),
                                           *policies.back(), nullptr);
    };
    auto cursor = source();
    TimedSource timed(*cursor);
    timed.watch_epochs(policies, spans);
    spans.next_replay();
    const std::int64_t begin = now_ns();
    const ShardedReplayResult r =
        run_sharded_replay(timed, fleet_config(w, w.threads), factory);
    const double traced_wall = seconds_since(begin);
    const std::uint64_t ht = fingerprint(r);
    checks.expect("traced_fleet_matches", ht == fp,
                  "decorated fleet " + hex(ht) + " vs " + hex(fp));

    PolicyStats fleet_policy;
    for (const auto& p : policies) {
      fleet_policy.select.calls += p->select.calls;
      fleet_policy.select.ns += p->select.ns;
      fleet_policy.select.items += p->select.items;
      fleet_policy.offered += p->offered;
    }
    consume(timed.checksum());
    consume(timed.stat().items);
    consume(fleet_policy.select.items);
    add_policy_layer(layers, fleet_policy);
    layers.add("workload.next_ns", timed.stat().ns_per_call(), "ns");
    layers.add("workload.spt_bytes_per_record", in.file->bytes_per_record(),
               "B/record");
    add_result_layers(layers, r.merged);

    FleetShardStats s;
    s.epochs = static_cast<double>(r.epochs);
    s.requests_per_epoch = safe_div(static_cast<double>(in.records),
                                    static_cast<double>(r.epochs), 0.0);
    std::vector<double> gaps_us;
    for (const std::int64_t g : timed.epoch_gaps_ns()) {
      gaps_us.push_back(static_cast<double>(g) * 1e-3);
    }
    s.epoch_us_p50 = percentile(gaps_us, 0.50);
    s.epoch_us_p99 = percentile(gaps_us, 0.99);
    double max_events = 0.0;
    double sum_events = 0.0;
    for (const ShardLoadStats& l : r.shard_load) {
      max_events = std::max(max_events, static_cast<double>(l.events_executed));
      sum_events += static_cast<double>(l.events_executed);
    }
    s.event_skew = safe_div(max_events * static_cast<double>(r.shard_load.size()),
                            sum_events, 0.0);
    s.cross_shard_events = static_cast<double>(r.cross_shard_events);
    s.speedup = wall_1t / median(replay_walls);
    add_shard_layer(layers, s);
    layers.add("bench.trace_overhead_frac",
               traced_wall / median(replay_walls) - 1.0, "ratio");

    // Per-request layers the fleet does not expose (its predictors,
    // governors, runtimes, and engines are built inside ShardedSim) come
    // from shard 0's slice of the same file through the bench-side driver.
    TraceCursor slice(*in.file, 0, static_cast<std::uint32_t>(w.shards));
    auto policy = make_policy_by_name(w.policy);
    const std::uint64_t slice_fp =
        fingerprint(run_trace_replay(slice, w.stack, *policy));
    const TracedReplay t =
        traced(slice, false, slice_fp, "traced_driver_matches",
               "run_trace_replay on shard 0's slice");
    add_request_layers(layers, t);
    layers.add("obs.cost_frac", 0.0, "ratio");
    layers.add("obs.verdict", -1.0, "code");
  }
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("specbench", "Benchmark of record for the replay stack");
  args.add_flag("workload", "", "replay-markov | fleet-ppm | flash-open");
  args.add_flag("seed", "2001", "workload seed (the trace generator's)");
  args.add_flag("seconds", "10", "host seconds of untraced replays");
  args.add_flag("data-dir", ".", "directory for the .spt input file");
  args.add_flag("spans", "", "write the traced replays' spans here");
  if (!args.parse(argc, argv)) return 2;

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  Workload w;
  if (!make_workload(args.get_string("workload"), seed, &w)) {
    std::fprintf(stderr, "specbench: unknown workload '%s'\n",
                 args.get_string("workload").c_str());
    return 2;
  }
  const std::string spt_path = args.get_string("data-dir") + "/" + w.name +
                               "-" + std::to_string(seed) + "-" +
                               std::to_string(getpid()) + ".spt";

  // Setup is timed nine times and reported as the median, so one slow
  // build does not move the figure.
  std::vector<double> setup_walls;
  Input in;
  const auto setup = [&] {
    in = Input{};
    const std::int64_t begin = now_ns();
    in = build_input(w, spt_path);
    setup_walls.push_back(seconds_since(begin));
  };
  setup();
  Run run(w, in);
  run.measured_requests =
      in.records - static_cast<std::uint64_t>(w.stack.warmup_fraction *
                                              static_cast<double>(in.records));
  // Peak RSS is read after one setup and one replay: what a fresh process
  // that replays this workload once needs. Later replays reuse freed heap
  // in an order that varies from run to run, so they are not counted.
  run.first_replay();
  const double rss_mb = peak_rss_mb();
  for (int i = 1; i < 9; ++i) setup();
  run.timed_loop(args.get_double("seconds"));

  if (w.shards > 0) {
    run.fleet_layers();
  } else {
    run.unsharded_layers();
  }
  if (in.file) std::remove(spt_path.c_str());

  const auto records = static_cast<double>(in.records);
  run.e2e.add("req_per_s", records / median(run.ref_walls), "req/ref_s");
  run.e2e.add("req_per_s_raw", records / median(run.replay_walls), "req/s");
  run.e2e.add("setup_s", median(setup_walls), "s");
  run.e2e.add("peak_rss_mb", rss_mb, "MB");
  run.e2e.add("failed_frac",
              safe_div(static_cast<double>(run.checks.failed),
                       static_cast<double>(run.checks.attempted), 0.0),
              "ratio");
  run.e2e.add("sim.access_time_s", run.result.mean_access_time, "sim_s");
  run.e2e.add("sim.load_per_request", run.result.retrievals_per_request,
              "retrievals/req");

  const std::string spans_path = args.get_string("spans");
  bool spans_ok = true;
  if (!spans_path.empty()) spans_ok = run.spans.write_json(spans_path);

  Json params;
  params.num("users", static_cast<double>(w.trace.num_users))
      .num("requests", static_cast<double>(in.records))
      .num("request_rate", w.trace.request_rate)
      .num("pages", static_cast<double>(w.trace.graph.num_pages))
      .str("scenario", w.scenario)
      .num("cache_pages", static_cast<double>(w.stack.cache_capacity))
      .num("bandwidth_pages_per_s", w.stack.bandwidth)
      .str("predictor", predictor_kind_name(w.stack.predictor_kind))
      .str("policy", w.policy)
      .str("governor", w.stack.governor.empty() ? "none" : w.stack.governor)
      .num("max_prefetch", static_cast<double>(w.stack.max_prefetch_per_request))
      .str("input", w.spt ? "spt file via TraceCursor" : "in-RAM trace")
      .num("shards", static_cast<double>(w.shards))
      .num("threads", static_cast<double>(w.threads))
      .boolean("telemetry", w.telemetry);

  Json prov;
  prov.str("build_type", SPECBENCH_BUILD_TYPE)
      .str("compiler", SPECBENCH_COMPILER)
      .str("cxx_flags", SPECBENCH_CXX_FLAGS)
      .num("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()))
      .num("seed", static_cast<double>(seed))
      .num("timer_ns", timer_ns());

  Json samples;
  samples.raw("replay_wall_s", json_array(run.replay_walls))
      .raw("reference_s", json_array(run.ref_kernel))
      .raw("setup_s", json_array(setup_walls));

  Json out;
  out.str("workload", w.name)
      .raw("params", params.done())
      .raw("provenance", prov.done())
      .raw("end_to_end", run.e2e.json.done())
      .raw("per_layer", run.layers.json.done())
      .raw("samples", samples.done())
      .raw("checks", run.checks.json.done())
      .num("attempted", static_cast<double>(run.checks.attempted))
      .num("failed", static_cast<double>(run.checks.failed))
      .str("fingerprint", hex(run.fp))
      .str("layer_checksum", hex(run.layer_checksum))
      .num("spans", static_cast<double>(run.spans.size()))
      .num("spans_dropped", static_cast<double>(run.spans.dropped()))
      .boolean("spans_written", spans_ok && !spans_path.empty());
  std::printf("%s\n", out.done().c_str());
  return run.checks.failed == 0 && spans_ok ? 0 : 1;
}
