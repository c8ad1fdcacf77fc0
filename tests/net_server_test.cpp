// Processor-sharing and FIFO server tests: exact sharing behaviour on
// hand-constructed scenarios, then statistical agreement with M/G/1-PS and
// Pollaczek–Khinchine closed forms (the paper's eq. 2 substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/fifo_server.hpp"
#include "net/job_ring.hpp"
#include "util/contract.hpp"
#include "net/ps_server.hpp"
#include "queueing/mg1_ps.hpp"
#include "queueing/mm1.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

TEST(PsServer, SingleJobRunsAtFullBandwidth) {
  Simulator sim;
  PsServer server(sim, 10.0);
  double finish = -1.0;
  server.submit(5.0, [&](const TransferResult& r) { finish = r.finish_time; });
  sim.run();
  EXPECT_DOUBLE_EQ(finish, 0.5);  // 5 units / 10 units-per-s
}

TEST(PsServer, TwoEqualJobsShareEqually) {
  Simulator sim;
  PsServer server(sim, 10.0);
  std::vector<double> finishes;
  server.submit(5.0, [&](const TransferResult& r) {
    finishes.push_back(r.finish_time);
  });
  server.submit(5.0, [&](const TransferResult& r) {
    finishes.push_back(r.finish_time);
  });
  sim.run();
  ASSERT_EQ(finishes.size(), 2u);
  // Each gets 5 units/s: both complete at t = 1.0.
  EXPECT_DOUBLE_EQ(finishes[0], 1.0);
  EXPECT_DOUBLE_EQ(finishes[1], 1.0);
}

TEST(PsServer, ShortJobOvertakesLongJob) {
  Simulator sim;
  PsServer server(sim, 10.0);
  double long_finish = -1, short_finish = -1;
  server.submit(10.0, [&](const TransferResult& r) {
    long_finish = r.finish_time;
  });
  server.submit(2.0, [&](const TransferResult& r) {
    short_finish = r.finish_time;
  });
  sim.run();
  // Both run at 5 u/s; short finishes at 0.4 having consumed 2 units; the
  // long one then speeds up to 10 u/s with 8 units left: 0.4 + 0.8 = 1.2.
  EXPECT_DOUBLE_EQ(short_finish, 0.4);
  EXPECT_DOUBLE_EQ(long_finish, 1.2);
}

TEST(PsServer, LateArrivalSlowsExistingJob) {
  Simulator sim;
  PsServer server(sim, 10.0);
  double first_finish = -1;
  server.submit(10.0, [&](const TransferResult& r) {
    first_finish = r.finish_time;
  });
  sim.schedule_at(0.5, [&] {
    server.submit(10.0, [](const TransferResult&) {});
  });
  sim.run();
  // First job: 5 units alone (0.5s), then shares: needs 5 more units at
  // 5 u/s = 1.0s; finishes at 1.5.
  EXPECT_DOUBLE_EQ(first_finish, 1.5);
}

TEST(PsServer, SojournRecordedPerJob) {
  Simulator sim;
  PsServer server(sim, 1.0);
  double sojourn = -1;
  sim.schedule_at(2.0, [&] {
    server.submit(3.0, [&](const TransferResult& r) { sojourn = r.sojourn(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sojourn, 3.0);
}

TEST(PsServer, ActiveJobsTracksOccupancy) {
  Simulator sim;
  PsServer server(sim, 1.0);
  server.submit(10.0, [](const TransferResult&) {});
  server.submit(10.0, [](const TransferResult&) {});
  EXPECT_EQ(server.active_jobs(), 2u);
  sim.run();
  EXPECT_EQ(server.active_jobs(), 0u);
}

TEST(PsServer, RejectsNonPositiveSize) {
  Simulator sim;
  PsServer server(sim, 1.0);
  EXPECT_THROW(server.submit(0.0, nullptr), ContractViolation);
}

// The link owns one engine timer. Destroying a busy link disarms it, so the
// engine keeps running without ever calling back into the freed link (a
// heap use-after-free under ASan if it did), and a link built afterwards
// on the same engine completes on its own timer.
TEST(PsServer, DestroyedWhileBusyNeverFires) {
  Simulator sim;
  bool dead_link_completed = false;
  auto doomed = std::make_unique<PsServer>(sim, 10.0);
  doomed->submit(5.0, [&](const TransferResult&) {
    dead_link_completed = true;
  });
  sim.schedule_at(0.25, [&] { doomed.reset(); });  // mid-transfer
  std::unique_ptr<PsServer> survivor;
  double survivor_finish = -1.0;
  sim.schedule_at(0.3, [&] {
    survivor = std::make_unique<PsServer>(sim, 10.0);
    survivor->submit(5.0, [&](const TransferResult& r) {
      survivor_finish = r.finish_time;
    });
  });
  sim.schedule_at(2.0, [] {});  // the engine runs on past the old finish
  EXPECT_EQ(sim.next_event_time(), 0.25);
  sim.run();
  EXPECT_FALSE(dead_link_completed);
  EXPECT_DOUBLE_EQ(survivor_finish, 0.8);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PsServer, ManyEqualJobsFairness) {
  Simulator sim;
  PsServer server(sim, 10.0);
  std::vector<double> finishes;
  for (int i = 0; i < 10; ++i) {
    server.submit(1.0, [&](const TransferResult& r) {
      finishes.push_back(r.finish_time);
    });
  }
  sim.run();
  // All ten share: each sees 1 u/s; all complete together at t = 1.
  for (double f : finishes) EXPECT_NEAR(f, 1.0, 1e-9);
}

// --- Statistical agreement with queueing theory ---

struct MG1Case {
  double rho;
  bool exponential;  // service-time distribution
};

class PsServerQueueing : public ::testing::TestWithParam<MG1Case> {};

TEST_P(PsServerQueueing, MeanSojournMatchesMG1PS) {
  // Drive Poisson arrivals into the PS server and compare the measured mean
  // sojourn to x̄/(1-ρ) — including the *insensitivity* property (same
  // answer for deterministic and exponential service).
  const auto [rho, exponential] = GetParam();
  const double bandwidth = 10.0;
  const double mean_size = 1.0;
  const double lambda = rho * bandwidth / mean_size;

  Simulator sim;
  PsServer server(sim, bandwidth);
  Rng rng(12345);
  ExponentialDist interarrival(1.0 / lambda);
  std::unique_ptr<Distribution> sizes;
  if (exponential) {
    sizes = std::make_unique<ExponentialDist>(mean_size);
  } else {
    sizes = std::make_unique<DeterministicDist>(mean_size);
  }

  const double warmup = 200.0;
  const double horizon = 6000.0;
  std::function<void()> arrive = [&] {
    server.submit(sizes->sample(rng), nullptr);
    const double dt = interarrival.sample(rng);
    if (sim.now() + dt < horizon) sim.schedule_in(dt, arrive);
  };
  sim.schedule_in(interarrival.sample(rng), arrive);
  sim.schedule_at(warmup, [&] { server.reset_stats(); });
  sim.run_until(horizon);

  const ServerStats stats = server.stats();
  const MG1PS theory(lambda, mean_size / bandwidth);
  ASSERT_GT(stats.completed, 1000u);
  EXPECT_NEAR(stats.mean_sojourn / theory.mean_sojourn(), 1.0, 0.08)
      << "rho=" << rho << " exp=" << exponential;
  EXPECT_NEAR(stats.utilization, rho, 0.03);
  EXPECT_NEAR(stats.mean_jobs_in_system / theory.mean_jobs_in_system(), 1.0,
              0.10);
}

INSTANTIATE_TEST_SUITE_P(
    LoadGrid, PsServerQueueing,
    ::testing::Values(MG1Case{0.3, true}, MG1Case{0.3, false},
                      MG1Case{0.6, true}, MG1Case{0.6, false},
                      MG1Case{0.8, true}, MG1Case{0.8, false}));

TEST(FifoServer, ServesInOrder) {
  Simulator sim;
  FifoServer server(sim, 10.0);
  std::vector<int> order;
  server.submit(5.0, [&](const TransferResult&) { order.push_back(1); });
  server.submit(1.0, [&](const TransferResult&) { order.push_back(2); });
  server.submit(1.0, [&](const TransferResult&) { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FifoServer, QueueingDelaysAccumulate) {
  Simulator sim;
  FifoServer server(sim, 1.0);
  std::vector<double> finishes;
  for (int i = 0; i < 3; ++i) {
    server.submit(2.0, [&](const TransferResult& r) {
      finishes.push_back(r.finish_time);
    });
  }
  sim.run();
  EXPECT_EQ(finishes, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(FifoServer, MatchesMM1Sojourn) {
  const double bandwidth = 10.0, mean_size = 1.0, rho = 0.6;
  const double lambda = rho * bandwidth / mean_size;
  Simulator sim;
  FifoServer server(sim, bandwidth);
  Rng rng(777);
  ExponentialDist interarrival(1.0 / lambda);
  ExponentialDist sizes(mean_size);
  const double horizon = 6000.0;
  std::function<void()> arrive = [&] {
    server.submit(sizes.sample(rng), nullptr);
    const double dt = interarrival.sample(rng);
    if (sim.now() + dt < horizon) sim.schedule_in(dt, arrive);
  };
  sim.schedule_in(interarrival.sample(rng), arrive);
  sim.schedule_at(200.0, [&] { server.reset_stats(); });
  sim.run_until(horizon);

  MM1 theory(lambda, bandwidth / mean_size);
  EXPECT_NEAR(server.stats().mean_sojourn / theory.mean_sojourn(), 1.0, 0.08);
}

TEST(FifoServer, DeterministicServiceBeatsExponentialUnderFCFS) {
  // PK: FCFS wait halves with deterministic service. PS is insensitive —
  // this contrast justifies the paper's choice of the PS model for shared
  // links with heterogeneous transfers.
  const double bandwidth = 10.0, mean_size = 1.0, rho = 0.7;
  const double lambda = rho * bandwidth / mean_size;
  auto run = [&](bool exponential) {
    Simulator sim;
    FifoServer server(sim, bandwidth);
    Rng rng(31337);
    ExponentialDist interarrival(1.0 / lambda);
    ExponentialDist exp_sizes(mean_size);
    DeterministicDist det_sizes(mean_size);
    const double horizon = 8000.0;
    std::function<void()> arrive = [&] {
      const double s =
          exponential ? exp_sizes.sample(rng) : det_sizes.sample(rng);
      server.submit(s, nullptr);
      const double dt = interarrival.sample(rng);
      if (sim.now() + dt < horizon) sim.schedule_in(dt, arrive);
    };
    sim.schedule_in(interarrival.sample(rng), arrive);
    sim.schedule_at(300.0, [&] { server.reset_stats(); });
    sim.run_until(horizon);
    return server.stats().mean_sojourn;
  };
  const double exp_sojourn = run(true);
  const double det_sojourn = run(false);
  EXPECT_LT(det_sojourn, exp_sojourn * 0.85);
}

TEST(FifoServer, RingGrowsAndWrapsInOrder) {
  // A burst several blocks deep widens the ring's block index; a steady
  // stream of ~1.5 blocks afterwards walks the index around many times.
  // Service must stay first-come-first-served with exact FCFS finish times.
  Simulator sim;
  FifoServer server(sim, 1.0);
  std::vector<std::uint64_t> order;
  std::vector<double> finishes;
  auto on_done = [&](const TransferResult& r) {
    order.push_back(r.job_id);
    finishes.push_back(r.finish_time);
  };
  const std::size_t burst = 5 * kJobBlockSize + 17;
  for (std::size_t i = 0; i < burst; ++i) server.submit(1.0, on_done);
  EXPECT_EQ(server.active_jobs(), burst);
  // From t = burst on, keep the queue about 1.5 blocks deep: two arrivals
  // per unit of time for a while, then one per unit.
  const std::size_t stream = 40 * kJobBlockSize;
  const std::size_t lead = 3 * kJobBlockSize / 2;
  for (std::size_t i = 0; i < stream; ++i) {
    const double at = static_cast<double>(burst) +
                      (i < 2 * lead ? 0.5 * static_cast<double>(i)
                                    : static_cast<double>(i - lead));
    sim.schedule_at(at, [&] { server.submit(1.0, on_done); });
  }
  std::size_t peak_mid_stream = 0;
  sim.schedule_at(static_cast<double>(burst + 20 * kJobBlockSize), [&] {
    peak_mid_stream = server.active_jobs();
  });
  sim.run();
  ASSERT_EQ(order.size(), burst + stream);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], i + 1) << "served out of order at " << i;
    ASSERT_DOUBLE_EQ(finishes[i], static_cast<double>(i + 1));
  }
  EXPECT_GT(peak_mid_stream, kJobBlockSize);
  EXPECT_EQ(server.active_jobs(), 0u);
}

TEST(JobRing, MatchesDequeUnderRandomPushPop) {
  // Random pushes and pops against std::deque in alternating phases (3:1
  // pushes, then 7:1 pops): the size swings between empty and ~20 blocks,
  // so the index grows and wraps and drained blocks are recycled through
  // the spare list.
  JobRing<std::uint64_t> ring;
  std::deque<std::uint64_t> oracle;
  Rng rng(42);
  std::uint64_t next = 0;
  std::size_t peak = 0;
  int drains = 0;
  for (int round = 0; round < 400; ++round) {
    const bool grow = (round / 25) % 2 == 0;
    const std::size_t n = rng.next_below(3 * kJobBlockSize);
    for (std::size_t i = 0; i < n; ++i) {
      const bool push =
          grow ? rng.next_below(4) != 0 : rng.next_below(8) == 0;
      if (push) {
        ring.push_back(std::uint64_t{next});
        oracle.push_back(next++);
      } else if (!oracle.empty()) {
        ASSERT_EQ(ring.front(), oracle.front());
        ASSERT_EQ(ring.pop_front(), oracle.front());
        oracle.pop_front();
        if (oracle.empty()) ++drains;
      }
    }
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring.empty(), oracle.empty());
    peak = std::max(peak, oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(ring.back(), oracle.back());
      const std::size_t probe = rng.next_below(oracle.size());
      ASSERT_EQ(ring[probe], oracle[probe]);
    }
  }
  EXPECT_GT(peak, 8 * kJobBlockSize);
  EXPECT_GT(drains, 2);
  while (!oracle.empty()) {
    ASSERT_EQ(ring.pop_front(), oracle.front());
    oracle.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(JobSlab, ReusesFreedSlotsAcrossBlocks) {
  JobSlab<std::uint64_t> slab;
  std::vector<std::uint32_t> slots;
  const std::uint64_t n = 3 * kJobBlockSize + 5;
  for (std::uint64_t v = 0; v < n; ++v) slots.push_back(slab.insert(v * 3));
  EXPECT_EQ(slab.live(), n);
  for (std::uint64_t v = 0; v < n; v += 2) {
    EXPECT_EQ(slab.take(slots[v]), v * 3);
  }
  EXPECT_EQ(slab.live(), n / 2);
  const std::size_t capacity = slab.capacity();
  for (std::uint64_t v = 0; v < n; v += 2) slots[v] = slab.insert(v * 7);
  EXPECT_EQ(slab.capacity(), capacity) << "freed slots were not reused";
  for (std::uint64_t v = 0; v < n; ++v) {
    EXPECT_EQ(slab[slots[v]], v * (v % 2 == 0 ? 7 : 3));
  }
}

}  // namespace
}  // namespace specpf
