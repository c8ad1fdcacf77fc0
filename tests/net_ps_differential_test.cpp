// Differential test for the virtual-time PS server: an independent, naive
// O(n²) processor-sharing simulator (advance all remaining works between
// events) must produce identical completion times on random workloads,
// including mixed sizes that exercise both the server's FIFO run and its
// heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

struct Arrival {
  double time;
  double size;
};

/// Reference PS: event-by-event remaining-work bookkeeping, no virtual time.
std::vector<double> naive_ps_completions(const std::vector<Arrival>& arrivals,
                                         double bandwidth) {
  struct Job {
    double remaining;
    std::size_t index;
  };
  std::vector<double> completions(arrivals.size(), -1.0);
  std::vector<Job> active;
  double now = 0.0;
  std::size_t next_arrival = 0;

  while (next_arrival < arrivals.size() || !active.empty()) {
    // Next completion among active jobs at current sharing rate.
    double next_completion = std::numeric_limits<double>::infinity();
    if (!active.empty()) {
      const double rate = bandwidth / static_cast<double>(active.size());
      double min_remaining = std::numeric_limits<double>::infinity();
      for (const Job& j : active) {
        min_remaining = std::min(min_remaining, j.remaining);
      }
      next_completion = now + min_remaining / rate;
    }
    const double next_arrival_time =
        next_arrival < arrivals.size()
            ? arrivals[next_arrival].time
            : std::numeric_limits<double>::infinity();

    if (next_arrival_time <= next_completion) {
      // Advance work to the arrival instant, then admit.
      if (!active.empty()) {
        const double rate = bandwidth / static_cast<double>(active.size());
        for (Job& j : active) j.remaining -= rate * (next_arrival_time - now);
      }
      now = next_arrival_time;
      active.push_back(Job{arrivals[next_arrival].size, next_arrival});
      ++next_arrival;
    } else {
      const double rate = bandwidth / static_cast<double>(active.size());
      for (Job& j : active) j.remaining -= rate * (next_completion - now);
      now = next_completion;
      // Retire every job whose remaining work hit zero (ties complete
      // together, matching the egalitarian server).
      for (auto it = active.begin(); it != active.end();) {
        if (it->remaining <= 1e-9 * bandwidth) {
          completions[it->index] = now;
          it = active.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  return completions;
}

std::vector<double> server_ps_completions(const std::vector<Arrival>& arrivals,
                                          double bandwidth) {
  Simulator sim;
  PsServer server(sim, bandwidth);
  std::vector<double> completions(arrivals.size(), -1.0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    sim.schedule_at(arrivals[i].time, [&, i] {
      server.submit(arrivals[i].size, [&completions, i](const TransferResult& r) {
        completions[i] = r.finish_time;
      });
    });
  }
  sim.run();
  return completions;
}

class PsDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsDifferential, MatchesNaiveReferenceOnRandomWorkload) {
  Rng rng(GetParam());
  const double bandwidth = 1.0 + rng.next_double() * 9.0;
  std::vector<Arrival> arrivals;
  double t = 0.0;
  const std::size_t n = 200 + rng.next_below(300);
  for (std::size_t i = 0; i < n; ++i) {
    t += -0.2 * std::log1p(-rng.next_double());
    arrivals.push_back({t, 0.01 + rng.next_double() * 3.0});
  }
  const auto expected = naive_ps_completions(arrivals, bandwidth);
  const auto actual = server_ps_completions(arrivals, bandwidth);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_GT(actual[i], 0.0) << "job " << i << " never completed";
    EXPECT_NEAR(actual[i], expected[i], 1e-6)
        << "job " << i << " of " << n << " (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

/// Mixed sizes that alternate between the run and the heap: an arrival
/// whose finish key is below the run's back goes to the heap. Every few
/// instants a triple (s, 2s + x, s) arrives at once, so the third job lands
/// in the heap with a finish V bit-equal to the first job's, which sits in
/// the run: the pair must leave together, in id order. The server's own
/// audit walker runs between events.
class PsMixedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsMixedDifferential, RunAndHeapMatchNaiveReference) {
  Rng rng(GetParam());
  const double bandwidth = 2.0 + rng.next_double() * 6.0;
  std::vector<Arrival> arrivals;
  double t = 0.0;
  std::size_t tied_triples = 0;
  while (arrivals.size() < 400) {
    t += -0.15 * std::log1p(-rng.next_double());
    if (rng.next_below(3) == 0) {
      const double s = 0.05 + rng.next_double();
      arrivals.push_back({t, s});
      arrivals.push_back({t, 2.0 * s + rng.next_double()});
      arrivals.push_back({t, s});
      ++tied_triples;
    } else {
      // Alternate long and short so later arrivals keep undercutting the
      // run's back.
      const double scale = arrivals.size() % 2 == 0 ? 2.5 : 0.2;
      arrivals.push_back({t, 0.01 + rng.next_double() * scale});
    }
  }
  ASSERT_GT(tied_triples, 50u);

  const auto expected = naive_ps_completions(arrivals, bandwidth);
  Simulator sim;
  PsServer server(sim, bandwidth);
  struct Probe {
    std::vector<double> actual;
    std::vector<std::uint64_t> finish_order;  // job ids as they complete
    std::vector<std::uint64_t> id_of;
    std::size_t audits = 0;
  } probe;
  probe.actual.assign(arrivals.size(), -1.0);
  probe.id_of.assign(arrivals.size(), 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    sim.schedule_at(arrivals[i].time, [&probe, &server, &arrivals, i] {
      probe.id_of[i] = server.submit(
          arrivals[i].size, [&probe, i](const TransferResult& r) {
            probe.actual[i] = r.finish_time;
            probe.finish_order.push_back(r.job_id);
          });
      if (i % 7 == 0) {
        AuditReport report;
        server.audit(report);
        ASSERT_TRUE(report.ok()) << report.summary();
        ++probe.audits;
      }
    });
  }
  sim.run();
  EXPECT_GT(probe.audits, 0u);
  const std::vector<double>& actual = probe.actual;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_GT(actual[i], 0.0) << "job " << i << " never completed";
    EXPECT_NEAR(actual[i], expected[i], 1e-6)
        << "job " << i << " (seed " << GetParam() << ")";
  }
  // Every tied pair (first and third job of a triple) finishes at the same
  // instant, lower id first.
  std::vector<std::size_t> rank(arrivals.size() + 1, 0);
  for (std::size_t k = 0; k < probe.finish_order.size(); ++k) {
    rank[probe.finish_order[k]] = k;
  }
  for (std::size_t i = 0; i + 2 < arrivals.size(); ++i) {
    const bool triple = arrivals[i].time == arrivals[i + 2].time &&
                        arrivals[i].size == arrivals[i + 2].size;
    if (!triple) continue;
    EXPECT_EQ(actual[i], actual[i + 2]) << "tied pair at job " << i;
    EXPECT_LT(rank[probe.id_of[i]], rank[probe.id_of[i + 2]])
        << "tie at job " << i << " left out of id order";
  }
  AuditReport drained;
  server.audit(drained);
  EXPECT_TRUE(drained.ok()) << drained.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsMixedDifferential,
                         ::testing::Values(3, 7, 11, 19, 42, 101));

TEST(PsDifferential, SimultaneousArrivalsAndEqualSizes) {
  // Adversarial ties: equal sizes arriving at identical instants.
  std::vector<Arrival> arrivals;
  for (int batch = 0; batch < 5; ++batch) {
    for (int j = 0; j < 4; ++j) {
      arrivals.push_back({batch * 0.5, 1.0});
    }
  }
  const auto expected = naive_ps_completions(arrivals, 4.0);
  const auto actual = server_ps_completions(arrivals, 4.0);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-6) << i;
  }
}

TEST(PsDifferential, ExtremeSizeContrast) {
  // A giant job with a stream of tiny ones riding through it.
  std::vector<Arrival> arrivals{{0.0, 100.0}};
  for (int i = 1; i <= 50; ++i) {
    arrivals.push_back({static_cast<double>(i) * 0.1, 0.01});
  }
  const auto expected = naive_ps_completions(arrivals, 2.0);
  const auto actual = server_ps_completions(arrivals, 2.0);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-5) << i;
  }
}

}  // namespace
}  // namespace specpf
