// Shared engine benchmark workloads, used by both the google-benchmark
// harness (perf_engine.cpp) and the JSON trajectory recorder
// (emit_bench_json.cpp) so the two always measure the same thing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace specpf::benchwork {

/// Schedules `events` empty actions at random times and drains the queue.
inline std::uint64_t schedule_and_run(Rng& rng, std::size_t events) {
  Simulator sim;
  for (std::size_t i = 0; i < events; ++i) {
    sim.schedule_at(rng.next_double() * 1000.0, [] {});
  }
  sim.run();
  return sim.events_executed();
}

/// Schedules 10000 events at random times; each one re-arms a shared timer
/// up to 1 s ahead, the way every arrival moves a PS link's next
/// completion. Drains; the timer fires whenever no event intervenes.
inline std::uint64_t timer_rearm(Rng& rng) {
  Simulator sim;
  const Simulator::TimerId timer = sim.add_timer([] {});
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at(rng.next_double() * 100.0, [&sim, &rng, timer] {
      sim.arm_timer(timer, sim.now() + rng.next_double());
    });
  }
  sim.run();
  return sim.events_executed();
}

/// Sustained M/M/1-PS at rho = 0.7 for 2000 simulated seconds; returns jobs
/// completed.
inline std::uint64_t ps_server_throughput() {
  Simulator sim;
  PsServer server(sim, 10.0);
  Rng rng(3);
  ExponentialDist interarrival(1.0 / 7.0);
  ExponentialDist sizes(1.0);
  std::function<void()> arrive = [&] {
    server.submit(sizes.sample(rng), nullptr);
    const double dt = interarrival.sample(rng);
    if (sim.now() + dt < 2000.0) {
      sim.schedule_in(dt, [&arrive] { arrive(); });
    }
  };
  sim.schedule_in(interarrival.sample(rng), [&arrive] { arrive(); });
  sim.run();
  return server.stats().completed;
}

/// Deep equal-size PS link, the shape of a flash crowd on one regional
/// link: 100000 unit-size jobs arrive 1 ms apart on a 10 units/s link, so
/// almost none finishes during the burst (V grows only ~0.01·ln n) and the
/// queue peaks near 10^5 live jobs, then drains in arrival order. Every
/// job takes the O(1) FIFO-run path. Returns jobs completed.
inline std::uint64_t ps_server_deep_equal() {
  constexpr int kJobs = 100000;
  Simulator sim;
  PsServer server(sim, 10.0);
  for (int i = 0; i < kJobs; ++i) {
    sim.schedule_at(1e-3 * i, [&server] { server.submit(1.0, nullptr); });
  }
  sim.run();
  return server.stats().completed;
}

}  // namespace specpf::benchwork
