// Telemetry-plane perf recorder: measures what observability costs the
// replay hot loop, with the same plain chrono harness as perf_stack, and
// writes BENCH_obs.json.
//
// Three legs over an identical 50k-user markov replay:
//   * baseline — telemetry pointer null (the shipping default),
//   * disabled — telemetry pointer null again, timed after the enabled
//     leg, so the gate compares two independent measurements of the
//     null-hook path bracketing the run that exercised telemetry,
//   * enabled  — a full TelemetryPlane installed (counters, gauges,
//     sampling, span tracing).
//
// The CI gate (--check-obs-overhead) fails when disabled/baseline exceeds
// 2%: the null-telemetry hooks must stay free. The enabled overhead is
// recorded as a trajectory metric but not gated (it is allowed to cost a
// few percent — it does real work). The legs also re-verify the purity
// contract end to end: all three must produce bit-identical results.
//
// Usage: perf_obs [output.json] [--check-obs-overhead]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` repeatedly until ~0.5s elapses; returns best seconds/call.
double best_time(const std::function<void()>& body) {
  double best = 1e30;
  double total = 0.0;
  int calls = 0;
  while (total < 0.5 || calls < 3) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt < best) best = dt;
    total += dt;
    ++calls;
  }
  return best;
}

/// Compiler barrier in the style of benchmark::DoNotOptimize +
/// ClobberMemory: the compiler must assume `p` escapes and that all memory
/// is read and written here, so a timed loop of stores cannot be folded
/// into a single add.
inline void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

Trace make_bench_trace() {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 50000;
  trace_cfg.num_requests = 200000;
  trace_cfg.request_rate = 1000.0;
  trace_cfg.graph.num_pages = 400;
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.seed = 5;
  return generate_synthetic_trace(trace_cfg);
}

TraceReplayConfig make_replay_config() {
  TraceReplayConfig replay_cfg;
  replay_cfg.bandwidth = 1200.0;
  replay_cfg.cache_capacity = 8;
  replay_cfg.max_prefetch_per_request = 4;
  return replay_cfg;
}

/// One replay leg; when `enabled`, a fresh TelemetryPlane per call (the
/// per-run setup cost is part of what "enabled" costs).
double bench_replay(const Trace& trace, bool enabled, ProxySimResult* out) {
  const TraceReplayConfig base_cfg = make_replay_config();
  ProxySimResult result;
  const double secs = best_time([&] {
    TraceReplayConfig cfg = base_cfg;
    TelemetryPlane plane;
    if (enabled) cfg.telemetry = &plane;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    result = run_trace_replay(trace, cfg, policy);
  });
  *out = result;
  return secs;
}

bool results_identical(const ProxySimResult& a, const ProxySimResult& b) {
  return a.requests == b.requests && a.demand_jobs == b.demand_jobs &&
         a.prefetch_jobs == b.prefetch_jobs &&
         a.mean_access_time == b.mean_access_time &&
         a.hit_ratio == b.hit_ratio;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = "BENCH_obs.json";
  bool check_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-obs-overhead") == 0) {
      check_overhead = true;
    } else {
      path = argv[i];
    }
  }
  std::vector<Metric> metrics;

  const Trace trace = make_bench_trace();
  const double requests = static_cast<double>(trace.size());

  ProxySimResult baseline_r, enabled_r, disabled_r;
  const double baseline_secs = bench_replay(trace, false, &baseline_r);
  const double enabled_secs = bench_replay(trace, true, &enabled_r);
  const double disabled_secs = bench_replay(trace, false, &disabled_r);

  // Purity contract, re-proven on the bench workload: telemetry on or off
  // must not change a single simulated number.
  if (!results_identical(baseline_r, enabled_r) ||
      !results_identical(baseline_r, disabled_r)) {
    std::fprintf(stderr, "telemetry changed simulation results\n");
    return 1;
  }

  const double disabled_overhead = disabled_secs / baseline_secs;
  const double enabled_overhead = enabled_secs / baseline_secs;
  metrics.push_back({"obs.trace_replay.baseline_requests_per_sec",
                     requests / baseline_secs, "requests/s"});
  metrics.push_back({"obs.trace_replay.disabled_requests_per_sec",
                     requests / disabled_secs, "requests/s"});
  metrics.push_back({"obs.trace_replay.enabled_requests_per_sec",
                     requests / enabled_secs, "requests/s"});
  metrics.push_back(
      {"obs.trace_replay.disabled_overhead", disabled_overhead, "x"});
  metrics.push_back(
      {"obs.trace_replay.enabled_overhead", enabled_overhead, "x"});

  // Microbenches for the three hot primitives, so a regression names the
  // primitive and not just the end-to-end loop.
  {
    TelemetryRegistry reg;
    const auto c = reg.register_counter("bench.counter");
    constexpr std::size_t kAdds = 1 << 22;
    std::uint64_t issued = 0;
    const double secs = best_time([&] {
      for (std::size_t i = 0; i < kAdds; ++i) {
        reg.add(c);
        escape(&reg);
      }
      issued += kAdds;
    });
    if (reg.counter(c) != issued) {
      std::fprintf(stderr, "counter reads %llu after %llu adds\n",
                   static_cast<unsigned long long>(reg.counter(c)),
                   static_cast<unsigned long long>(issued));
      return 1;
    }
    metrics.push_back({"obs.registry.counter_adds_per_sec",
                       static_cast<double>(kAdds) / secs, "ops/s"});
  }
  {
    SpanTracer spans;
    spans.configure(1 << 16);
    constexpr std::size_t kSpans = 1 << 20;
    const double secs = best_time([&] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        const auto ref = spans.open(SpanTracer::SpanKind::kDemandFetch,
                                    static_cast<double>(i), 1, i);
        spans.close(ref, static_cast<double>(i) + 0.5);
      }
    });
    metrics.push_back({"obs.spans.open_close_pairs_per_sec",
                       static_cast<double>(kSpans) / secs, "ops/s"});
  }
  {
    TelemetryRegistry reg;
    for (int g = 0; g < 12; ++g) {
      reg.register_gauge("bench.gauge." + std::to_string(g));
    }
    TimeSeriesRecorder rec;
    rec.configure(reg.gauge_count(), 4096, 0.25);
    constexpr std::size_t kRows = 1 << 18;
    const double secs = best_time([&] {
      for (std::size_t i = 0; i < kRows; ++i) {
        rec.record(static_cast<double>(i), reg.gauge_values());
      }
    });
    metrics.push_back({"obs.recorder.rows_per_sec",
                       static_cast<double>(kRows) / secs, "rows/s"});
  }

  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": 1,\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}%s\n",
                 metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str(), i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
  for (const auto& m : metrics) {
    std::printf("  %-48s %14.4g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  // 2% tolerance: the disabled path is the same machine code as the
  // baseline apart from untaken null tests, so anything beyond timer noise
  // means a hook leaked real work onto the null path.
  if (check_overhead && disabled_overhead > 1.02) {
    std::fprintf(stderr,
                 "disabled-telemetry overhead %.3fx exceeds 1.02x budget\n",
                 disabled_overhead);
    return 1;
  }
  return 0;
}
