#include "net/ps_server.hpp"

#include "util/contract.hpp"

namespace specpf {

PsServer::PsServer(Simulator& sim, double bandwidth)
    : Server(sim, bandwidth),
      last_sync_(sim.now()),
      completion_timer_(sim.add_timer([this] { complete_front(); })) {}

PsServer::~PsServer() { sim_.disarm_timer(completion_timer_); }

void PsServer::sync_virtual_time(double now) {
  if (!jobs_.empty()) {
    const double rate = bandwidth_ / static_cast<double>(jobs_.size());
    virtual_time_ += rate * (now - last_sync_);
  }
  last_sync_ = now;
}

std::uint64_t PsServer::submit(double size, Callback on_complete) {
  SPECPF_EXPECTS(size > 0.0);
  sync_virtual_time(sim_.now());
  const std::uint64_t id = next_job_id_++;
  jobs_.emplace(virtual_time_ + size,
                Job{id, size, sim_.now(), std::move(on_complete)});
  record_arrival();
  schedule_next_completion();
  return id;
}

void PsServer::schedule_next_completion() {
  if (jobs_.empty()) {
    sim_.disarm_timer(completion_timer_);
    return;
  }
  const double finish_v = jobs_.begin()->first;
  const double remaining_v = finish_v - virtual_time_;
  SPECPF_ASSERT(remaining_v >= -1e-9);
  const double rate = bandwidth_ / static_cast<double>(jobs_.size());
  const double delay = remaining_v > 0.0 ? remaining_v / rate : 0.0;
  sim_.arm_timer(completion_timer_, sim_.now() + delay);
}

void PsServer::complete_front() {
  SPECPF_ASSERT(!jobs_.empty());
  sync_virtual_time(sim_.now());
  auto it = jobs_.begin();
  Job job = std::move(it->second);
  // Snap the virtual clock to the exact finish value to prevent drift from
  // accumulating across millions of completions.
  virtual_time_ = it->first;
  jobs_.erase(it);

  TransferResult result;
  result.job_id = job.id;
  result.size = job.size;
  result.submit_time = job.submit_time;
  result.finish_time = sim_.now();
  record_completion(result);
  schedule_next_completion();
  if (job.on_complete) job.on_complete(result);
}

}  // namespace specpf
