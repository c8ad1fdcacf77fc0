// Trace-pipeline perf recorder: measures what the out-of-core .spt path
// costs and saves, with the same plain chrono harness as perf_stack, and
// writes BENCH_trace.json.
//
// Legs:
//   * encode  — write_trace_file over a streamed 1M-record synthetic
//     source: records/s and payload MB/s out, plus bytes/record (the
//     on-disk compression the varint+delta format buys vs the 24-byte
//     in-RAM TraceRecord).
//   * decode  — full TraceCursor scan of that file: records/s back in.
//   * replay  — streamed-source replay vs the in-RAM vector replay over
//     an identical 300k-record workload; the two results are verified
//     bit-identical before either leg is timed, so the overhead number
//     can only describe runs that agree.
//   * rss     — peak resident set of a streamed generator replay vs the
//     bytes the same trace would pin as an in-RAM vector. The streamed
//     leg runs first (peak RSS is a high-water mark, monotone within a
//     process), so the in-RAM leg cannot inflate its reading.
//
// --rss-sweep N replaces the default 4M-request rss leg with an N-request
// streamed run (no in-RAM counterpart — at N = 1e9 there isn't enough RAM,
// which is the point) and reports the measured streamed peak against the
// 24·N-byte vector floor the in-RAM path would need before event overhead.
//
// Usage: perf_trace [output.json] [--rss-sweep N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "util/mem.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace specpf;
using bench::Clock;
using bench::best_time;
using bench::seconds_since;
using bench::Metric;

SyntheticTraceConfig make_trace_config(std::size_t requests) {
  SyntheticTraceConfig cfg;
  cfg.num_users = 50000;
  cfg.num_requests = requests;
  cfg.request_rate = 1000.0;
  cfg.graph.num_pages = 400;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.seed = 5;
  return cfg;
}

TraceReplayConfig make_replay_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 1200.0;
  cfg.cache_capacity = 8;
  cfg.max_prefetch_per_request = 4;
  return cfg;
}

bool results_identical(const ProxySimResult& a, const ProxySimResult& b) {
  return a.requests == b.requests && a.demand_jobs == b.demand_jobs &&
         a.prefetch_jobs == b.prefetch_jobs &&
         a.mean_access_time == b.mean_access_time &&
         a.hit_ratio == b.hit_ratio;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = "BENCH_trace.json";
  std::size_t rss_sweep = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rss-sweep") == 0 && i + 1 < argc) {
      rss_sweep = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      path = argv[i];
    }
  }
  std::vector<Metric> metrics;
  const char* tmp_spt = "perf_trace_tmp.spt";

  // --- rss leg first: peak RSS is a process-lifetime high-water mark, so
  // the streamed reading must be taken before anything materializes a big
  // vector. The streamed replay's peak should track the epoch window and
  // the 50k-user stack, not the request count.
  {
    const std::size_t n = rss_sweep ? rss_sweep : 4000000;
    const SyntheticTraceConfig cfg = make_trace_config(n);
    SyntheticTraceStream stream(cfg);
    const TraceReplayConfig replay_cfg = make_replay_config();
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto t0 = Clock::now();
    const ProxySimResult r = run_trace_replay(stream, replay_cfg, policy);
    const double secs = seconds_since(t0);
    const double streamed_peak =
        static_cast<double>(read_memory_usage().peak_resident_bytes);
    const double in_ram_floor = 24.0 * static_cast<double>(n);
    metrics.push_back({"trace.rss.requests", static_cast<double>(n), "records"});
    metrics.push_back({"trace.rss.streamed_replay_requests_per_sec",
                       static_cast<double>(r.requests) / secs, "requests/s"});
    metrics.push_back(
        {"trace.rss.streamed_peak_bytes", streamed_peak, "bytes"});
    metrics.push_back(
        {"trace.rss.in_ram_vector_floor_bytes", in_ram_floor, "bytes"});
    metrics.push_back({"trace.rss.in_ram_floor_over_streamed_peak",
                       in_ram_floor / streamed_peak, "x"});
    if (!rss_sweep) {
      // Small enough to also measure the in-RAM path for real: regenerate
      // the identical trace as a vector and replay it.
      const Trace trace = generate_synthetic_trace(cfg);
      ThresholdPolicy ram_policy(core::InteractionModel::kModelA);
      const ProxySimResult ram_r =
          run_trace_replay(trace, replay_cfg, ram_policy);
      if (!results_identical(r, ram_r)) {
        std::fprintf(stderr, "rss leg: streamed result diverged from in-RAM\n");
        return 1;
      }
      const double ram_peak =
          static_cast<double>(read_memory_usage().peak_resident_bytes);
      metrics.push_back({"trace.rss.in_ram_peak_bytes", ram_peak, "bytes"});
    }
  }

  // --- encode: stream 1M generated records straight into an .spt file.
  const SyntheticTraceConfig enc_cfg = make_trace_config(1000000);
  {
    std::uint64_t written = 0;
    const double secs = best_time([&] {
      SyntheticTraceStream stream(enc_cfg);
      written = write_trace_file(tmp_spt, stream);
    });
    const TraceFile file(tmp_spt);
    const double payload_mb =
        static_cast<double>(file.header().payload_bytes) / 1e6;
    metrics.push_back({"trace.encode.records_per_sec",
                       static_cast<double>(written) / secs, "records/s"});
    metrics.push_back(
        {"trace.encode.payload_mb_per_sec", payload_mb / secs, "MB/s"});
    metrics.push_back(
        {"trace.encode.bytes_per_record", file.bytes_per_record(), "bytes"});
  }

  // --- decode: full cursor scan of the file just written.
  {
    const TraceFile file(tmp_spt);
    std::uint64_t decoded = 0;
    const double secs = best_time([&] {
      TraceCursor cursor(file);
      TraceRecord r;
      decoded = 0;
      while (cursor.next(&r)) ++decoded;
    });
    if (decoded != file.record_count()) {
      std::fprintf(stderr, "decode leg lost records\n");
      return 1;
    }
    metrics.push_back({"trace.decode.records_per_sec",
                       static_cast<double>(decoded) / secs, "records/s"});
  }
  std::remove(tmp_spt);

  // --- replay: streamed generator source vs in-RAM vector, identical
  // workload. Bit-identity is checked before timing.
  {
    const SyntheticTraceConfig cfg = make_trace_config(300000);
    const TraceReplayConfig replay_cfg = make_replay_config();
    const Trace trace = generate_synthetic_trace(cfg);
    const double requests = static_cast<double>(trace.size());

    ProxySimResult ram_r, streamed_r;
    {
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      ram_r = run_trace_replay(trace, replay_cfg, policy);
    }
    {
      SyntheticTraceStream stream(cfg);
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      streamed_r = run_trace_replay(stream, replay_cfg, policy);
    }
    if (!results_identical(ram_r, streamed_r)) {
      std::fprintf(stderr, "streamed replay diverged from in-RAM replay\n");
      return 1;
    }

    const double ram_secs = best_time([&] {
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      ram_r = run_trace_replay(trace, replay_cfg, policy);
    });
    const double streamed_secs = best_time([&] {
      SyntheticTraceStream stream(cfg);
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      streamed_r = run_trace_replay(stream, replay_cfg, policy);
    });
    metrics.push_back({"trace.replay.in_ram_requests_per_sec",
                       requests / ram_secs, "requests/s"});
    metrics.push_back({"trace.replay.streamed_requests_per_sec",
                       requests / streamed_secs, "requests/s"});
    metrics.push_back({"trace.replay.streamed_overhead",
                       streamed_secs / ram_secs, "x"});
  }

  if (!bench::write_bench_json(path, metrics)) return 1;
  return 0;
}
