// Tests for the zero-allocation engine internals: determinism differentials
// against a reference (time, seq)-ordered engine, for one-shot events and
// for re-armable timers under random arm / re-arm / disarm interleavings.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "des/simulator.hpp"
#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

// Reference engine with the seed implementation's semantics: closures
// ordered by (time, insertion sequence), lazily deleted on cancel. A timer
// re-arm here is cancel + schedule. Any divergence between this and
// Simulator is an ordering bug.
class ReferenceEngine {
 public:
  using Handle = std::shared_ptr<bool>;

  Handle schedule_at(double when, std::function<void()> action) {
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(Entry{when, next_seq_++, std::move(action), cancelled});
    return cancelled;
  }

  static void cancel(const Handle& handle) { *handle = true; }

  double now() const { return now_; }

  void run() { run_until(std::numeric_limits<double>::infinity()); }

  void run_until(double end_time) {
    while (next_event_time() <= end_time && !queue_.empty()) {
      Entry entry = queue_.top();
      queue_.pop();
      now_ = entry.time;
      entry.action();
    }
    if (!std::isinf(end_time)) now_ = end_time;
  }

  double next_event_time() {
    while (!queue_.empty() && *queue_.top().cancelled) queue_.pop();
    return queue_.empty() ? std::numeric_limits<double>::infinity()
                          : queue_.top().time;
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::function<void()> action;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

// A scripted random workload: bulk-scheduled events (exercising the sorted
// run), duplicate timestamps (exercising the seq tie-break), and events that
// schedule children dynamically (exercising the heap path). Both engines
// must fire the events in the identical order.
TEST(EngineDifferential, ExecutionOrderMatchesReferenceEngine) {
  constexpr int kInitial = 4000;  // above the sorted-run threshold
  Rng rng(42);
  std::vector<double> times;
  times.reserve(kInitial);
  for (int i = 0; i < kInitial; ++i) {
    // Coarse grid so many events share a timestamp.
    times.push_back(static_cast<double>(rng.next_u64() % 512));
  }

  std::vector<int> new_order;
  std::vector<int> ref_order;
  const auto record = [](std::vector<int>& log, int id) {
    log.push_back(id);
  };

  Simulator sim;
  ReferenceEngine ref;
  for (int i = 0; i < kInitial; ++i) {
    const double t = times[i];
    sim.schedule_at(t, [&, i, t] {
      record(new_order, i);
      if (i % 7 == 0) {
        sim.schedule_at(t + 1.5, [&, i] { record(new_order, i + 100000); });
      }
    });
    ref.schedule_at(t, [&, i, t] {
      record(ref_order, i);
      if (i % 7 == 0) {
        ref.schedule_at(t + 1.5, [&, i] { record(ref_order, i + 100000); });
      }
    });
  }

  sim.run();
  ref.run();

  ASSERT_EQ(new_order.size(), ref_order.size());
  EXPECT_EQ(new_order, ref_order);
  EXPECT_DOUBLE_EQ(sim.now(), ref.now());
}

// --- timer differential -------------------------------------------------
//
// One script drives both engines through the same small interface:
// events are one-shot closures, timers are re-armable. On the reference
// engine a timer is a handle to its pending event, so re-arming cancels the
// old event and schedules a new one.

class SimulatorUnderTest {
 public:
  template <typename F>
  void schedule_at(double when, F fn) {
    sim_.schedule_at(when, std::move(fn));
  }
  template <typename F>
  void add_timer(F fn) {
    timers_.push_back(sim_.add_timer(std::move(fn)));
  }
  void arm(std::size_t k, double when) { sim_.arm_timer(timers_[k], when); }
  void disarm(std::size_t k) { sim_.disarm_timer(timers_[k]); }
  double now() const { return sim_.now(); }
  void run_until(double end_time) { sim_.run_until(end_time); }
  void run() { sim_.run(); }
  double next_event_time() { return sim_.next_event_time(); }
  void expect_clean() const {
    AuditReport report;
    sim_.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }

 private:
  Simulator sim_;
  std::vector<Simulator::TimerId> timers_;
};

class ReferenceUnderTest {
 public:
  template <typename F>
  void schedule_at(double when, F fn) {
    ref_.schedule_at(when, std::move(fn));
  }
  template <typename F>
  void add_timer(F fn) {
    timers_.push_back(Timer{std::move(fn), nullptr});
  }
  void arm(std::size_t k, double when) {
    disarm(k);
    timers_[k].pending = ref_.schedule_at(when, [this, k] {
      timers_[k].pending = nullptr;  // fired: disarmed before it runs
      timers_[k].action();
    });
  }
  void disarm(std::size_t k) {
    if (timers_[k].pending) ReferenceEngine::cancel(timers_[k].pending);
    timers_[k].pending = nullptr;
  }
  double now() const { return ref_.now(); }
  void run_until(double end_time) { ref_.run_until(end_time); }
  void run() { ref_.run(); }
  double next_event_time() { return ref_.next_event_time(); }
  void expect_clean() const {}

 private:
  struct Timer {
    std::function<void()> action;
    ReferenceEngine::Handle pending;
  };
  ReferenceEngine ref_;
  std::vector<Timer> timers_;
};

/// What one engine did under the random script: the firing order (events
/// as ids >= 0, timers as -1 - k, horizons as kHorizonMark) and the answers
/// next_event_time gave at each horizon.
struct TimerTrace {
  std::vector<int> fired;
  std::vector<double> next_times;
  double end_time = 0.0;
};

constexpr int kHorizonMark = -1000;

/// Bulk-loads coarse-timestamped events (enough for the sorted run), then
/// runs in run_until slices. Every event and timer firing draws a random
/// action: arm or re-arm any timer (possibly to the current instant),
/// disarm any timer, or schedule a child event; a timer also re-arms
/// itself half the time. Both engines draw from identically seeded
/// generators, so their draws agree for as long as their orders do.
template <typename Engine>
TimerTrace run_timer_script(std::uint64_t seed) {
  constexpr std::size_t kTimers = 4;
  constexpr int kBulk = 3000;
  struct Script {
    Engine engine;
    Rng rng;
    TimerTrace trace;
    int next_child = kBulk;

    explicit Script(std::uint64_t s) : rng(s) {}
    double coarse_delay(std::uint64_t spread) {
      return static_cast<double>(rng.next_u64() % spread);
    }
    void act() {
      switch (rng.next_u64() % 10) {
        case 0:
        case 1:
        case 2: {
          const std::size_t k = rng.next_u64() % kTimers;
          engine.arm(k, engine.now() + coarse_delay(4));
          break;
        }
        case 3:
          engine.disarm(rng.next_u64() % kTimers);
          break;
        case 4: {
          const int child = next_child++;
          engine.schedule_at(engine.now() + coarse_delay(3),
                             [this, child] { on_event(child); });
          break;
        }
        default:
          break;
      }
    }
    void on_event(int id) {
      trace.fired.push_back(id);
      act();
    }
    void on_timer(std::size_t k) {
      trace.fired.push_back(-1 - static_cast<int>(k));
      if (rng.next_u64() % 2 == 0) {
        engine.arm(k, engine.now() + 1.0 + coarse_delay(3));
      }
      act();
    }
  };

  Script script(seed);
  for (std::size_t k = 0; k < kTimers; ++k) {
    script.engine.add_timer([&script, k] { script.on_timer(k); });
  }
  for (std::size_t k = 0; k < kTimers; ++k) {
    script.engine.arm(k, script.coarse_delay(8));
  }
  for (int i = 0; i < kBulk; ++i) {
    script.engine.schedule_at(script.coarse_delay(256),
                              [&script, i] { script.on_event(i); });
  }
  // Integer horizons land exactly on the coarse timestamps, so timers and
  // events sit at the horizon itself.
  for (double horizon = 0.0; horizon <= 300.0; horizon += 7.0) {
    script.engine.run_until(horizon);
    script.trace.fired.push_back(kHorizonMark);
    script.trace.next_times.push_back(script.engine.next_event_time());
    script.engine.expect_clean();
  }
  script.engine.run();
  script.trace.end_time = script.engine.now();
  return script.trace;
}

TEST(TimerDifferential, RandomArmRearmDisarmMatchesReferenceEngine) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const TimerTrace got = run_timer_script<SimulatorUnderTest>(seed);
    const TimerTrace want = run_timer_script<ReferenceUnderTest>(seed);
    std::size_t timer_firings = 0;
    for (int id : want.fired) timer_firings += (id < 0 && id > kHorizonMark);
    EXPECT_GT(timer_firings, 100u);  // the timers really carried the script
    ASSERT_EQ(got.fired.size(), want.fired.size());
    EXPECT_EQ(got.fired, want.fired);
    EXPECT_EQ(got.next_times, want.next_times);
    EXPECT_EQ(got.end_time, want.end_time);
  }
}

TEST(TimerDifferential, TimerAtHorizonFiresInsideRunUntil) {
  Simulator sim;
  std::vector<int> order;
  const Simulator::TimerId timer = sim.add_timer([&] { order.push_back(0); });
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  sim.arm_timer(timer, 5.0);  // armed after the event: fires after it
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  sim.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TimerDifferential, NextEventTimeSeesOnlyArmedTimer) {
  Simulator sim;
  int fired = 0;
  const Simulator::TimerId timer = sim.add_timer([&] { ++fired; });
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
  sim.arm_timer(timer, 3.0);
  EXPECT_EQ(sim.next_event_time(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.arm_timer(timer, 2.0);  // re-arm replaces, never adds
  EXPECT_EQ(sim.next_event_time(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
}

// Full-stack determinism: identical seeds must give bit-identical metrics
// through caches, predictor, policy, and the shared PS server.
TEST(EngineDifferential, ProxySimMetricsAreReproducible) {
  ProxySimConfig config;
  config.num_users = 4;
  config.duration = 150.0;
  config.warmup = 20.0;
  config.seed = 7;

  ThresholdPolicy policy_a(core::InteractionModel::kModelA);
  ThresholdPolicy policy_b(core::InteractionModel::kModelA);
  const ProxySimResult a = run_proxy_sim(config, policy_a);
  const ProxySimResult b = run_proxy_sim(config, policy_b);

  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.demand_jobs, b.demand_jobs);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
  EXPECT_EQ(a.inflight_hits, b.inflight_hits);
  EXPECT_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.server_utilization, b.server_utilization);
  EXPECT_EQ(a.retrieval_time_per_request, b.retrieval_time_per_request);
  EXPECT_EQ(a.hprime_estimate, b.hprime_estimate);
}

// InlineFunction is move-only, so move-only captures now work (they could
// not with std::function).
TEST(EngineActions, MoveOnlyCapturesAreSupported) {
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  sim.schedule_at(1.0, [p = std::move(payload), &seen] { seen = *p + 1; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

}  // namespace
}  // namespace specpf
