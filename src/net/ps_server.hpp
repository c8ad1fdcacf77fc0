// Egalitarian processor-sharing server (paper §2.1's round-robin queue in
// the quantum→0 limit).
//
// Implementation: virtual-time bookkeeping. Define V(t) as the cumulative
// per-job service delivered since the server became busy; V advances at rate
// bandwidth/n(t) while n(t) jobs are active. A job arriving at virtual time
// V_a with size S completes when V reaches V_a + S. Jobs therefore finish in
// order of (arrival virtual time + size), and only the earliest completion
// is pending in the engine: the link owns one re-armable engine timer, and
// every arrival and departure re-arms it (or disarms it when idle).
//
// Job storage is ordered by (finish V, job id); ids rise with arrivals, so
// equal finish values leave in arrival order. V never decreases, so when all
// sizes are equal — every replay and origin link — finish keys arrive in
// order and each job is appended to a FIFO run (JobRing) and popped from its
// front: O(1) per arrival and departure, no O(n) remaining-work rescans. A
// job whose key falls below the run's back (mixed sizes only) goes to a
// 4-ary min-heap instead, whose job bodies sit in a JobSlab; a departure
// takes the lesser of the run front and the heap top.
#pragma once

#include <cstdint>
#include <vector>

#include "net/job_ring.hpp"
#include "net/server.hpp"
#include "util/audit.hpp"

namespace specpf {

class PsServer final : public Server {
 public:
  PsServer(Simulator& sim, double bandwidth);
  /// Disarms the completion timer, so a link destroyed mid-run never fires
  /// on an engine that keeps running.
  ~PsServer() override;

  std::uint64_t submit(double size, Callback on_complete) override;
  std::size_t active_jobs() const override {
    return run_.size() + heap_.size();
  }

  /// Deep-invariant walker (util/audit.hpp): the run sorted by (finish V,
  /// id), the heap property, every key at or past the virtual clock, the
  /// heap's slab holding exactly the heap's jobs, run + heap equal to the
  /// link's live-job count, and the completion timer armed exactly while
  /// jobs are live.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  // Completion order: finish V, ties broken by arrival (ids rise with
  // arrivals).
  struct Key {
    double finish_v;
    std::uint64_t id;
    bool operator<(const Key& other) const {
      if (finish_v != other.finish_v) return finish_v < other.finish_v;
      return id < other.id;
    }
  };
  struct Job {
    Key key;
    double size;
    double submit_time;
    Callback on_complete;
  };
  // Heap entries carry the key so sifts never touch the slab.
  struct HeapEntry {
    Key key;
    std::uint32_t slot;
  };

  /// True when the next job to finish is the heap top, not the run front.
  bool heap_leads() const;

  /// Advances the virtual clock to wall-clock time `now`.
  void sync_virtual_time(double now);

  /// Arms the completion timer for the job with least finish virtual time,
  /// or disarms it when no job is left.
  void schedule_next_completion();

  void complete_front();

  void heap_push(Job&& job);
  Job heap_pop();

  JobRing<Job> run_;              // ascending keys
  std::vector<HeapEntry> heap_;   // 4-ary min-heap, root at 0
  JobSlab<Job> heap_jobs_;        // bodies of the jobs the heap orders
  double virtual_time_ = 0.0;
  double last_sync_ = 0.0;
  Simulator::TimerId completion_timer_;
  std::uint64_t next_job_id_ = 1;
};

}  // namespace specpf
