// ProgressTraceSource — a pass-through TraceSource decorator that prints a
// wall-clock heartbeat to stderr while a long replay streams its records:
// pass number, records fed this pass, feed rate, and peak RSS. The replay
// frontends make two sequential passes over a source (metadata, then
// schedule), so a heartbeat on the source is the one place that sees every
// record both passes touch — no hooks inside the engines needed.
//
// The decorator is wall-clock-only instrumentation: it forwards records
// unchanged, draws no randomness, and touches no simulation state, so
// results are bit-identical with or without it (the same source-decorator
// purity argument the telemetry plane makes for gauges). The steady_clock
// read is amortized: the clock is consulted every `check_every` records,
// not per record.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "util/mem.hpp"
#include "workload/trace_stream.hpp"

namespace specpf {

class ProgressTraceSource final : public TraceSource {
 public:
  /// `inner` is borrowed and must outlive the decorator. `label` names the
  /// stream in the heartbeat lines (e.g. "replay"); `interval_seconds` is
  /// the minimum wall-clock spacing between lines.
  ProgressTraceSource(TraceSource& inner, const char* label,
                      double interval_seconds = 2.0)
      : inner_(&inner), label_(label), interval_(interval_seconds) {}

  bool next(TraceRecord* out) override {
    if (!inner_->next(out)) return false;
    ++records_;
    if (records_ % kCheckEvery == 0) maybe_report();
    return true;
  }

  void reset() override {
    inner_->reset();
    ++pass_;
    records_ = 0;
    // Restart the rate window so the first heartbeat of the new pass does
    // not average in the previous pass's feed rate.
    have_mark_ = false;
  }

  std::uint64_t records_this_pass() const noexcept { return records_; }
  /// 1-based once the consumer has reset() for its first scan (the replay
  /// driver resets before every pass, including the first).
  std::uint64_t pass() const noexcept { return pass_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Clock-check stride: cheap relative to even the fastest record decode,
  /// while still giving sub-second heartbeat granularity at realistic feed
  /// rates (millions of records/sec → several checks per second).
  static constexpr std::uint64_t kCheckEvery = 65536;

  void maybe_report() {
    const Clock::time_point now = Clock::now();
    if (!have_mark_) {
      have_mark_ = true;
      mark_ = now;
      mark_records_ = records_;
      return;
    }
    const double elapsed =
        std::chrono::duration<double>(now - mark_).count();
    if (elapsed < interval_) return;
    const double rate =
        static_cast<double>(records_ - mark_records_) / elapsed;
    const MemoryUsage mem = read_memory_usage();
    std::fprintf(stderr,
                 "[%s] pass %llu: %llu records fed, %.3g rec/s, "
                 "peak rss %.1f MiB\n",
                 label_, static_cast<unsigned long long>(pass_),
                 static_cast<unsigned long long>(records_), rate,
                 static_cast<double>(mem.peak_resident_bytes) /
                     (1024.0 * 1024.0));
    mark_ = now;
    mark_records_ = records_;
  }

  TraceSource* inner_;
  const char* label_;
  double interval_;
  std::uint64_t records_ = 0;
  std::uint64_t pass_ = 0;
  bool have_mark_ = false;
  Clock::time_point mark_{};
  std::uint64_t mark_records_ = 0;
};

}  // namespace specpf
