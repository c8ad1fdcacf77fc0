// Egalitarian processor-sharing server (paper §2.1's round-robin queue in
// the quantum→0 limit).
//
// Implementation: virtual-time bookkeeping. Define V(t) as the cumulative
// per-job service delivered since the server became busy; V advances at rate
// bandwidth/n(t) while n(t) jobs are active. A job arriving at virtual time
// V_a with size S completes when V reaches V_a + S. Jobs therefore finish in
// order of (arrival virtual time + size), and only the earliest completion
// is pending in the engine: the link owns one re-armable engine timer, and
// every arrival and departure re-arms it (or disarms it when idle). Each
// arrival/departure is O(log n) via an ordered multiset keyed by finish
// virtual time — no O(n) remaining-work rescans.
#pragma once

#include <cstdint>
#include <map>

#include "net/server.hpp"

namespace specpf {

class PsServer final : public Server {
 public:
  PsServer(Simulator& sim, double bandwidth);
  /// Disarms the completion timer, so a link destroyed mid-run never fires
  /// on an engine that keeps running.
  ~PsServer() override;

  std::uint64_t submit(double size, Callback on_complete) override;
  std::size_t active_jobs() const override { return jobs_.size(); }

 private:
  struct Job {
    std::uint64_t id;
    double size;
    double submit_time;
    Callback on_complete;
  };

  /// Advances the virtual clock to wall-clock time `now`.
  void sync_virtual_time(double now);

  /// Arms the completion timer for the job with least finish virtual time,
  /// or disarms it when no job is left.
  void schedule_next_completion();

  void complete_front();

  // Jobs keyed by finish virtual time; multimap tolerates exact ties (two
  // equal-size jobs arriving at the same instant), preserving FIFO order
  // among them by insertion. Completion callbacks are stored inline in the
  // Job (Server::Callback is an InlineFunction), so the only per-job
  // allocation left is the map node itself.
  std::multimap<double, Job> jobs_;
  double virtual_time_ = 0.0;
  double last_sync_ = 0.0;
  Simulator::TimerId completion_timer_;
  std::uint64_t next_job_id_ = 1;
};

}  // namespace specpf
