#include "net/ps_server.hpp"

#include <algorithm>
#include <string>

#include "util/contract.hpp"

namespace specpf {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

PsServer::PsServer(Simulator& sim, double bandwidth)
    : Server(sim, bandwidth),
      last_sync_(sim.now()),
      completion_timer_(sim.add_timer([this] { complete_front(); })) {}

PsServer::~PsServer() { sim_.disarm_timer(completion_timer_); }

void PsServer::sync_virtual_time(double now) {
  const std::size_t n = active_jobs();
  if (n > 0) {
    const double rate = bandwidth_ / static_cast<double>(n);
    virtual_time_ += rate * (now - last_sync_);
  }
  last_sync_ = now;
}

std::uint64_t PsServer::submit(double size, Callback on_complete) {
  SPECPF_EXPECTS(size > 0.0);
  sync_virtual_time(sim_.now());
  const std::uint64_t id = next_job_id_++;
  Job job{{virtual_time_ + size, id}, size, sim_.now(), std::move(on_complete)};
  // Ids only grow, so a key no smaller than the back's finish value sorts
  // after it.
  if (run_.empty() || job.key.finish_v >= run_.back().key.finish_v) {
    run_.push_back(std::move(job));
  } else {
    heap_push(std::move(job));
  }
  record_arrival();
  schedule_next_completion();
  return id;
}

bool PsServer::heap_leads() const {
  if (heap_.empty()) return false;
  if (run_.empty()) return true;
  return heap_[0].key < run_.front().key;
}

void PsServer::schedule_next_completion() {
  const std::size_t n = active_jobs();
  if (n == 0) {
    sim_.disarm_timer(completion_timer_);
    return;
  }
  const double finish_v =
      (heap_leads() ? heap_[0].key : run_.front().key).finish_v;
  const double remaining_v = finish_v - virtual_time_;
  SPECPF_ASSERT(remaining_v >= -1e-9);
  const double rate = bandwidth_ / static_cast<double>(n);
  const double delay = remaining_v > 0.0 ? remaining_v / rate : 0.0;
  sim_.arm_timer(completion_timer_, sim_.now() + delay);
}

void PsServer::complete_front() {
  SPECPF_ASSERT(active_jobs() > 0);
  sync_virtual_time(sim_.now());
  Job job = heap_leads() ? heap_pop() : run_.pop_front();
  // Snap the virtual clock to the exact finish value to prevent drift from
  // accumulating across millions of completions.
  virtual_time_ = job.key.finish_v;

  TransferResult result;
  result.job_id = job.key.id;
  result.size = job.size;
  result.submit_time = job.submit_time;
  result.finish_time = sim_.now();
  record_completion(result);
  schedule_next_completion();
  if (job.on_complete) job.on_complete(result);
}

void PsServer::heap_push(Job&& job) {
  const Key key = job.key;
  const HeapEntry entry{key, heap_jobs_.insert(std::move(job))};
  std::size_t hole = heap_.size();
  heap_.push_back(entry);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!(key < heap_[parent].key)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

PsServer::Job PsServer::heap_pop() {
  Job out = heap_jobs_.take(heap_[0].slot);
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return out;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kHeapArity, size);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].key < heap_[least].key) least = c;
    }
    if (!(heap_[least].key < last.key)) break;
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = last;
  return out;
}

void PsServer::audit(AuditReport& report) const {
  const AuditScope scope(report, "PsServer");
  const double floor_v = virtual_time_ - 1e-9;
  for (std::size_t i = 0; i < run_.size(); ++i) {
    const Job& job = run_[i];
    report.check(job.key.finish_v >= floor_v,
                 "run job " + std::to_string(job.key.id) +
                     " finishes behind the virtual clock");
    if (i == 0) continue;
    report.check(run_[i - 1].key < job.key,
                 "run out of (finish V, id) order at index " +
                     std::to_string(i));
  }
  for (std::size_t j = 0; j < heap_.size(); ++j) {
    const HeapEntry& entry = heap_[j];
    report.check(entry.key.finish_v >= floor_v,
                 "heap job " + std::to_string(entry.key.id) +
                     " finishes behind the virtual clock");
    if (report.check(entry.slot < heap_jobs_.capacity(),
                     "heap entry " + std::to_string(j) +
                         " names a slot outside the slab")) {
      const Key& body = heap_jobs_[entry.slot].key;
      report.check(body.id == entry.key.id &&
                       body.finish_v == entry.key.finish_v,
                   "heap entry " + std::to_string(j) +
                       " disagrees with its slab body");
    }
    if (j == 0) continue;
    report.check(!(entry.key < heap_[(j - 1) / kHeapArity].key),
                 "4-ary heap property violated at index " + std::to_string(j));
  }
  report.check(heap_jobs_.live() == heap_.size(),
               "heap slab holds " + std::to_string(heap_jobs_.live()) +
                   " jobs but the heap orders " +
                   std::to_string(heap_.size()));
  report.check(live_jobs() == run_.size() + heap_.size(),
               "link counts " + std::to_string(live_jobs()) +
                   " live jobs but run + heap hold " +
                   std::to_string(run_.size() + heap_.size()));
  report.check(sim_.timer_armed(completion_timer_) == (active_jobs() > 0),
               "completion timer armed state disagrees with the queue");
}

}  // namespace specpf
