// Audit-layer tests: clean structures sweep clean, corrupted structures get
// caught. The corruption half works through AuditPeer (declared in
// util/audit.hpp, defined only here, friend of every auditable structure):
// each test builds a healthy structure, verifies audit() reports nothing,
// injects exactly the defect class the walker exists to catch — a scribbled
// freed slot or a timer armed in the past in the engine, a broken or cyclic
// intrusive chain in the cache arenas, a free-list cycle, successor-total
// drift, a misranked head or a shared or missing head block in the context
// arena, metadata corruption in the robin-hood tables, a PS link's run
// out of finish order, a demand-count desync in the stack — and asserts
// the sweep fails with a message naming the defect.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/cache_plane.hpp"
#include "cache/factory.hpp"
#include "cache/reference_caches.hpp"
#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "predict/context_arena.hpp"
#include "predict/factory.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/stack_runtime.hpp"
#include "util/audit.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

/// Test-only invariant breaker. Every auditable class befriends this
/// struct; the library never defines it, so these mutators are the only
/// code that can reach into the slabs from outside.
struct AuditPeer {
  // --- cache arenas (per-user blocks) ------------------------------------
  static void break_chain(arena::LruArena& a, std::uint32_t user) {
    // The chain head's prev must be the null slot; pointing it anywhere
    // else is the signature of a botched unlink/splice.
    a.node(user, a.users_[user].head).prev = 7;
  }
  static void cycle_chain(arena::LruArena& a, std::uint32_t user) {
    // Link the tail back to the head: the walk must stop at the revisit.
    a.node(user, a.users_[user].tail).next = a.users_[user].head;
  }

  // --- context arena ------------------------------------------------------
  static void drift_successor_total(ContextArena& a, ContextArena::CtxId c) {
    ++a.total_[c];  // context total no longer equals the successor-count sum
  }
  static void orphan_successor(ContextArena& a, ContextArena::CtxId c) {
    a.head_[c] = ContextArena::kNoSucc;  // leak the whole successor chain
  }
  static void swap_top_entries(ContextArena& a, ContextArena::CtxId c,
                               std::uint32_t i, std::uint32_t j) {
    std::swap(a.top_of(c)[i], a.top_of(c)[j]);  // head no longer sorted
  }
  static void replace_top_tail(ContextArena& a, ContextArena::CtxId c,
                               std::uint64_t item) {
    // The head's last entry becomes `item`'s slot; the entry it displaces
    // now outranks the head from outside it.
    a.top_of(c)[a.top_len(c) - 1] =
        *a.succ_index_.find(ContextArena::succ_key(c, *a.item_index_.find(item)));
  }
  static void share_top_block(ContextArena& a, ContextArena::CtxId c,
                              ContextArena::CtxId owner) {
    a.top_block_[c] = a.top_block_[owner];  // two contexts on one block
  }
  static void drop_top_block(ContextArena& a, ContextArena::CtxId c) {
    a.top_block_[c] = ContextArena::kNoBlock;  // multi-successor, no head
  }

  // --- flat hash tables ---------------------------------------------------
  static void corrupt_meta(FlatHashMap<std::uint32_t>& m) {
    for (std::size_t i = 0; i < m.capacity_; ++i) {
      if (m.meta_[i] != 0) {
        ++m.meta_[i];  // stored probe distance no longer matches the key
        return;
      }
    }
  }

  // --- DES engine slab ----------------------------------------------------
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static std::uint32_t freed_tracked_slot(const Simulator& s) {
    for (std::uint32_t slot = s.free_head_; slot != kNoSlot;
         slot = s.node_at(slot).next_free) {
      if (slot < s.poisoned_.size() && s.poisoned_[slot]) return slot;
    }
    return kNoSlot;
  }
  static void scribble_freed_slot(Simulator& s, std::uint32_t slot) {
    // A write through a stale handle lands in freed storage: simulate the
    // scribble by repainting the poison fill.
    s.node_at(slot).action.poison_storage(0xAB);
  }
  static void cycle_engine_free_list(Simulator& s) {
    s.node_at(s.free_head_).next_free = s.free_head_;
  }
  static void leave_seqs(Simulator& s, std::uint64_t left) {
    s.next_seq_ = Simulator::kMaxSeq - left;
  }
  static void move_timer_into_past(Simulator& s, Simulator::TimerId id) {
    s.timers_[id].key.time = s.now() - 1.0;  // a completion that was missed
  }
  static bool break_pending_order(Simulator& s) {
    if (s.sorted_run_.size() >= 2) {
      std::swap(s.sorted_run_.front(), s.sorted_run_.back());
      return true;
    }
    if (s.heapified_ > Simulator::kHeapBase + 1) {
      s.heap_[Simulator::kHeapBase].time += 1e9;
      return true;
    }
    return false;
  }

  // --- PS link ------------------------------------------------------------
  static void break_ps_run_order(PsServer& s) {
    // The run's front now finishes after its successor: the signature of a
    // submit that appended a key below the run's back.
    const_cast<PsServer::Job&>(s.run_[0]).key.finish_v =
        s.run_[1].key.finish_v + 1.0;
  }

  // --- stack runtime ------------------------------------------------------
  static void desync_demand_count(StackRuntime& rt) {
    ++rt.demand_inflight_[0];
  }
  static void drift_estimate_sum(StackRuntime& rt) {
    rt.estimate_sum_ += 0.5;
  }

  // --- telemetry plane ----------------------------------------------------
  static void reverse_recorder_timestamps(TimeSeriesRecorder& r) {
    // A row stamped before its predecessor: the signature of a sample taken
    // outside the engine's time order.
    r.times_[1] = r.times_[0] - 1.0;
  }
  static void unbalance_span_counters(SpanTracer& t) {
    ++t.closes_;  // closes no longer reconcile with opens/overwrites
  }
  static void desync_registry_names(TelemetryRegistry& r) {
    r.counter_names_.pop_back();  // slot with no name
  }

  // --- divergence detector ------------------------------------------------
  static void advance_detector_cursor(DivergenceDetector& d) {
    // A staleness cursor ahead of its recorder means evaluate() would skip
    // rows that were never seen — the signature of a recorder swap or a
    // torn read of recorded().
    d.signals_[0].last_recorded = d.signals_[0].series->recorded() + 5;
  }
  static void latch_without_onset(DivergenceDetector& d) {
    // A divergent latch with no onset estimate: the latch path always
    // records one, so this state can only come from memory corruption.
    d.signals_[0].diverged = true;
    d.signals_[0].onset = -1.0;
  }
};

namespace {

/// Deterministic LCG so the sweeps need no <random> plumbing.
struct TinyRng {
  std::uint64_t s;
  std::uint64_t next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>((next() >> 33) % n);
  }
};

void expect_failure_containing(const AuditReport& report,
                               const std::string& needle) {
  EXPECT_FALSE(report.ok()) << "corruption was not detected";
  const auto& fails = report.failures();
  const bool found = std::any_of(
      fails.begin(), fails.end(), [&](const std::string& f) {
        return f.find(needle) != std::string::npos;
      });
  EXPECT_TRUE(found) << "no failure mentions '" << needle
                     << "'; got:\n" << report.summary();
}

// ---------------------------------------------------------------------------
// Clean sweeps: healthy structures audit clean in every configuration.
// ---------------------------------------------------------------------------

TEST(AuditClean, CachePlanesAllKindsNarrowAndWideBlocks) {
  for (int k = 0; k < kNumCacheKinds; ++k) {
    // 48 slots is wider than a 32-bit per-walk bitmap could track.
    for (std::size_t capacity : {std::size_t{4}, std::size_t{48}}) {
      CachePlaneConfig cfg;
      cfg.num_users = 16;
      cfg.capacity = capacity;
      cfg.seed = 20010803;
      auto plane = make_cache_plane(static_cast<CacheKind>(k), cfg);
      TinyRng rng{0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k)};
      for (int op = 0; op < 4000; ++op) {
        const std::uint32_t user = rng.below(16);
        const ItemId item = rng.below(120);
        plane->access(user, item);
        switch (rng.below(3)) {
          case 0: plane->admit_demand(user, item); break;
          case 1: plane->admit_prefetch(user, item); break;
          default: plane->admit_prefetch_accessed(user, item); break;
        }
      }
      AuditReport report;
      plane->audit(report);
      EXPECT_TRUE(report.ok())
          << "kind " << k << " capacity " << capacity << ": "
          << report.summary();
      EXPECT_GT(report.checks(), 20u);
    }
  }
}

TEST(AuditClean, ReferenceCacheFleetCountersOnly) {
  CachePlaneConfig cfg;
  cfg.num_users = 4;
  cfg.capacity = 8;
  auto plane = make_tagged_cache_fleet(CacheKind::kLru, cfg);
  for (int op = 0; op < 200; ++op) {
    plane->access(op % 4, static_cast<ItemId>(op % 20));
    plane->admit_demand(op % 4, static_cast<ItemId>(op % 20));
  }
  AuditReport report;
  plane->audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(AuditClean, PredictorPlanesAllArenaKinds) {
  for (PredictorKind kind : {PredictorKind::kMarkov, PredictorKind::kPpm,
                             PredictorKind::kDependencyGraph,
                             PredictorKind::kFrequency}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 8;
    auto plane = make_predictor_plane(kind, cfg);
    TinyRng rng{42};
    std::vector<core::Candidate> scratch;
    for (int op = 0; op < 3000; ++op) {
      const UserId user = rng.below(8);
      // Sessions with repeated short motifs so contexts accumulate real
      // successor mass (plus noise so interning keeps growing).
      const std::uint64_t item =
          (op % 5 == 0) ? rng.below(200) : (op % 7);
      plane->observe(user, item);
      if (op % 17 == 0) plane->predict_into(user, 4, scratch);
    }
    AuditReport report;
    plane->audit(report);
    EXPECT_TRUE(report.ok()) << predictor_kind_name(kind) << ": "
                             << report.summary();
  }
}

TEST(AuditClean, EngineScheduleTimerRunSweepsClean) {
  Simulator sim;
  sim.enable_audit_mode();
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(0.01 * (i + 1), [&fired] { ++fired; });
  }
  std::vector<Simulator::TimerId> timers;
  for (int i = 0; i < 3; ++i) {
    timers.push_back(sim.add_timer([&fired] { ++fired; }));
    sim.arm_timer(timers.back(), 1.0 + i);
  }
  sim.arm_timer(timers[0], 3.5);  // re-armed past the horizon
  sim.disarm_timer(timers[1]);
  sim.run_until(2.0);  // executes 2/5 of the events and timers[2]
  for (int i = 0; i < 40; ++i) {
    sim.schedule_in(0.5 + 0.01 * i, [&fired] { ++fired; });
  }
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks(), 500u);
  sim.run();
  AuditReport drained;
  sim.audit(drained);
  EXPECT_TRUE(drained.ok()) << drained.summary();
  EXPECT_GT(fired, 0);
}

TEST(AuditClean, StackRuntimeEndToEnd) {
  Simulator sim;
  PredictorPlaneConfig pcfg;
  pcfg.num_users = 6;
  auto predictor =
      make_predictor_plane(PredictorKind::kMarkov, pcfg);
  FixedThresholdPolicy policy(0.05);
  StackRuntimeConfig cfg;
  cfg.num_users = 6;
  cfg.cache_capacity = 8;
  cfg.bandwidth = 50.0;
  StackRuntime runtime(sim, *predictor, policy, std::move(cfg));
  TinyRng rng{7};
  for (int i = 0; i < 300; ++i) {
    const UserId user = rng.below(6);
    const ItemId item = (i % 4 == 0) ? rng.below(64) : (i % 9);
    sim.schedule_at(0.05 * (i + 1),
                    [&runtime, user, item] { runtime.handle_request(user, item); });
  }
  sim.schedule_at(5.0, [&runtime] { runtime.begin_measurement(); });
  // Mid-run sweep with transfers genuinely in flight.
  AuditReport midrun;
  sim.schedule_at(9.0, [&runtime, &midrun] { runtime.audit(midrun); });
  sim.run();
  EXPECT_TRUE(midrun.ok()) << midrun.summary();
  EXPECT_GT(midrun.checks(), 50u);
  AuditReport drained;
  runtime.audit(drained);
  EXPECT_TRUE(drained.ok()) << drained.summary();
}

// ---------------------------------------------------------------------------
// Corruption injection: every defect class the walkers exist for.
// ---------------------------------------------------------------------------

/// LRU arena with enough traffic that every user has a full chain, on a
/// block wider than a 32-bit per-walk bitmap.
arena::LruArena seeded_lru() {
  arena::LruArena a(/*num_users=*/4, /*capacity=*/40, /*seed=*/1);
  for (std::uint32_t user = 0; user < 4; ++user) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      a.insert(user, /*item=*/user * 100 + i, arena::EntryTag::kTagged,
               [](ItemId, arena::EntryTag) {});
    }
  }
  return a;
}

TEST(AuditInjection, CacheArenaBrokenIntrusiveChain) {
  arena::LruArena a = seeded_lru();
  AuditReport clean;
  a.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::break_chain(a, 0);
  AuditReport report;
  a.audit(report);
  expect_failure_containing(report, "broken prev link");
}

TEST(AuditInjection, CacheArenaChainCycle) {
  arena::LruArena a = seeded_lru();
  AuditPeer::cycle_chain(a, 2);
  AuditReport report;
  a.audit(report);
  expect_failure_containing(report, "user 2: chain revisits slot");
  expect_failure_containing(report, "cycle");
}

TEST(AuditInjection, ContextArenaSuccessorTotalDrift) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(0xABCDu);
  for (std::uint64_t item = 0; item < 12; ++item) {
    arena.add(ctx, arena.intern_item(item % 5));
  }
  AuditReport clean;
  arena.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::drift_successor_total(arena, ctx);
  AuditReport report;
  arena.audit(report);
  EXPECT_FALSE(report.ok()) << "successor-total drift was not detected";
}

TEST(AuditInjection, ContextArenaOrphanedSuccessorChain) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(0x1234u);
  for (std::uint64_t item = 0; item < 8; ++item) {
    arena.add(ctx, arena.intern_item(item));
  }
  AuditPeer::orphan_successor(arena, ctx);
  AuditReport report;
  arena.audit(report);
  EXPECT_FALSE(report.ok()) << "orphaned successor slots were not detected";
}

/// Context 0x77 with successors 0..5 at counts 6..1, ranked head of 3:
/// the head is items 0, 1, 2. Context 0x78 has successors 10, 11 (a
/// block of its own); context 0x79 has one successor and no block.
ContextArena seeded_ranked_arena() {
  ContextArena arena(3);
  const ContextArena::CtxId ctx = arena.intern(0x77u);
  for (std::uint64_t item = 0; item < 6; ++item) {
    for (std::uint64_t n = item; n < 6; ++n) {
      arena.add(ctx, arena.intern_item(item));
    }
  }
  const ContextArena::CtxId pair = arena.intern(0x78u);
  arena.add(pair, arena.intern_item(10));
  arena.add(pair, arena.intern_item(11));
  arena.add(arena.intern(0x79u), arena.intern_item(12));
  AuditReport clean;
  arena.audit(clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  return arena;
}

TEST(AuditInjection, ContextArenaRankedHeadOutOfOrder) {
  ContextArena arena = seeded_ranked_arena();
  AuditPeer::swap_top_entries(arena, arena.find(0x77u), 0, 1);
  AuditReport report;
  arena.audit(report);
  expect_failure_containing(report, "ranked head out of order at entry 1");
}

TEST(AuditInjection, ContextArenaRankedHeadTailOutranked) {
  ContextArena arena = seeded_ranked_arena();
  AuditPeer::replace_top_tail(arena, arena.find(0x77u), 5);
  AuditReport report;
  arena.audit(report);
  expect_failure_containing(report, "outranks the ranked head's last entry");
}

TEST(AuditInjection, ContextArenaSharedHeadBlock) {
  ContextArena arena = seeded_ranked_arena();
  AuditPeer::share_top_block(arena, arena.find(0x78u), arena.find(0x77u));
  AuditReport report;
  arena.audit(report);
  expect_failure_containing(report, "shared with another context");
}

TEST(AuditInjection, ContextArenaMissingHeadBlock) {
  ContextArena arena = seeded_ranked_arena();
  AuditPeer::drop_top_block(arena, arena.find(0x77u));
  AuditReport report;
  arena.audit(report);
  expect_failure_containing(report,
                            "two or more successors but no ranked-head block");
}

TEST(AuditInjection, FlatHashMapMetadataCorruption) {
  FlatHashMap<std::uint32_t> map;
  for (std::uint64_t k = 0; k < 200; ++k) map[k * 0x5851F42Dull] = k;
  AuditReport clean;
  map.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::corrupt_meta(map);
  AuditReport report;
  map.audit(report);
  EXPECT_FALSE(report.ok()) << "probe-distance corruption was not detected";
}

// Running out of sequence numbers renumbers everything pending, armed
// timers included, without changing the order: the timer keeps its place
// between the two events scheduled around it.
TEST(AuditClean, EngineSeqRenumberKeepsTimerInOrder) {
  Simulator sim;
  AuditPeer::leave_seqs(sim, 3);
  std::vector<int> order;
  const Simulator::TimerId timer = sim.add_timer([&] { order.push_back(0); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.arm_timer(timer, 1.0);
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });  // renumbers first
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

/// Engine with audit mode on, some executed (freed) slots, and pending
/// events in the ordered tier.
void seed_engine(Simulator& sim) {
  sim.enable_audit_mode();
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(0.1 * (i + 1), [] {});
  }
  sim.run_until(2.0);  // frees ~20 slots, leaves the rest pending
}

TEST(AuditInjection, EngineTimerArmedInPast) {
  Simulator sim;
  seed_engine(sim);
  const Simulator::TimerId timer = sim.add_timer([] {});
  sim.arm_timer(timer, 5.0);
  AuditReport clean;
  sim.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::move_timer_into_past(sim, timer);
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "armed in the past");
}

TEST(AuditInjection, EngineFreedSlotScribble) {
  Simulator sim;
  seed_engine(sim);
  const std::uint32_t slot = AuditPeer::freed_tracked_slot(sim);
  ASSERT_NE(slot, AuditPeer::kNoSlot);
  AuditPeer::scribble_freed_slot(sim, slot);
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "poison");
}

TEST(AuditInjection, EngineFreeListCycle) {
  Simulator sim;
  seed_engine(sim);
  AuditPeer::cycle_engine_free_list(sim);
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "cycle");
}

TEST(AuditInjection, EnginePendingOrderViolation) {
  Simulator sim;
  seed_engine(sim);
  ASSERT_TRUE(AuditPeer::break_pending_order(sim))
      << "seed_engine left no ordered pending tier to corrupt";
  AuditReport report;
  sim.audit(report);
  EXPECT_FALSE(report.ok()) << "pending-order violation was not detected";
}

TEST(AuditInjection, PsServerRunOutOfOrder) {
  Simulator sim;
  PsServer server(sim, 10.0);
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(0.01 * i, [&server] { server.submit(1.0, nullptr); });
  }
  sim.run_until(0.1);  // six equal jobs queued in the run, none finished
  ASSERT_EQ(server.active_jobs(), 6u);
  AuditReport clean;
  server.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::break_ps_run_order(server);
  AuditReport report;
  server.audit(report);
  expect_failure_containing(report, "run out of (finish V, id) order");
}

TEST(AuditInjection, StackRuntimeDemandCountDesync) {
  Simulator sim;
  PredictorPlaneConfig pcfg;
  pcfg.num_users = 2;
  auto predictor =
      make_predictor_plane(PredictorKind::kFrequency, pcfg);
  FixedThresholdPolicy policy(0.05);
  StackRuntimeConfig cfg;
  cfg.num_users = 2;
  cfg.cache_capacity = 4;
  cfg.bandwidth = 100.0;
  StackRuntime runtime(sim, *predictor, policy, std::move(cfg));
  for (int i = 0; i < 40; ++i) {
    sim.schedule_at(0.1 * (i + 1), [&runtime, i] {
      runtime.handle_request(static_cast<UserId>(i % 2),
                             static_cast<ItemId>(i % 7));
    });
  }
  sim.run();
  AuditReport clean;
  runtime.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::desync_demand_count(runtime);
  AuditReport report;
  runtime.audit(report);
  expect_failure_containing(report, "demand");
}

TEST(AuditInjection, StackRuntimeEstimateSumDrift) {
  Simulator sim;
  PredictorPlaneConfig pcfg;
  pcfg.num_users = 2;
  auto predictor =
      make_predictor_plane(PredictorKind::kFrequency, pcfg);
  FixedThresholdPolicy policy(0.05);
  StackRuntimeConfig cfg;
  cfg.num_users = 2;
  cfg.cache_capacity = 4;
  cfg.bandwidth = 100.0;
  StackRuntime runtime(sim, *predictor, policy, std::move(cfg));
  for (int i = 0; i < 40; ++i) {
    sim.schedule_at(0.1 * (i + 1), [&runtime, i] {
      runtime.handle_request(static_cast<UserId>(i % 2),
                             static_cast<ItemId>(i % 7));
    });
  }
  sim.run();
  AuditPeer::drift_estimate_sum(runtime);
  AuditReport report;
  runtime.audit(report);
  expect_failure_containing(report, "drifted");
}

TEST(AuditInjection, TelemetryRecorderTimestampReversal) {
  TimeSeriesRecorder rec;
  rec.configure(/*num_gauges=*/2, /*capacity=*/16, /*interval=*/0.5);
  const std::vector<double> row = {1.0, 2.0};
  for (int i = 0; i < 6; ++i) rec.record(0.5 * i, row);
  AuditReport clean;
  rec.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::reverse_recorder_timestamps(rec);
  AuditReport report;
  rec.audit(report);
  expect_failure_containing(report, "monotone");
}

TEST(AuditInjection, TelemetrySpanBalanceBroken) {
  SpanTracer spans;
  spans.configure(8);
  for (int i = 0; i < 5; ++i) {
    const auto ref = spans.open(SpanTracer::SpanKind::kDemandFetch,
                                0.1 * i, /*user=*/1, /*item=*/i);
    spans.close(ref, 0.1 * i + 0.05);
  }
  AuditReport clean;
  spans.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::unbalance_span_counters(spans);
  AuditReport report;
  spans.audit(report);
  expect_failure_containing(report, "span balance");
}

TEST(AuditInjection, TelemetryRegistryNameSlotDesync) {
  TelemetryRegistry reg;
  reg.register_counter("req.count");
  reg.register_counter("req.hit");
  reg.register_gauge("link.queue_depth");
  AuditReport clean;
  reg.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::desync_registry_names(reg);
  AuditReport report;
  reg.audit(report);
  expect_failure_containing(report, "desynced");
}

TEST(AuditInjection, DivergenceDetectorCursorAheadOfRecorder) {
  TimeSeriesRecorder rec;
  rec.configure(/*num_gauges=*/1, /*capacity=*/64, /*interval=*/0.25);
  const std::vector<double> row = {3.0};
  for (int i = 0; i < 20; ++i) rec.record(0.25 * i, row);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", 8.0);
  det.evaluate();
  AuditReport clean;
  det.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::advance_detector_cursor(det);
  AuditReport report;
  det.audit(report);
  expect_failure_containing(report, "staleness cursor");
}

TEST(AuditInjection, DivergenceDetectorLatchWithoutOnset) {
  TimeSeriesRecorder rec;
  rec.configure(1, 64, 0.25);
  const std::vector<double> row = {3.0};
  for (int i = 0; i < 20; ++i) rec.record(0.25 * i, row);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", 8.0);
  det.evaluate();
  AuditReport clean;
  det.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::latch_without_onset(det);
  AuditReport report;
  det.audit(report);
  expect_failure_containing(report, "onset");
}

// ---------------------------------------------------------------------------
// Report mechanics.
// ---------------------------------------------------------------------------

TEST(AuditReportTest, RequireThrowsWithScopedMessage) {
  AuditReport report;
  {
    AuditScope outer(report, "outer");
    AuditScope inner(report, "inner");
    report.check(false, "it broke");
  }
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("outer: inner: it broke"),
            std::string::npos)
      << report.summary();
  EXPECT_THROW(report.require(), ContractViolation);
}

TEST(AuditReportTest, CleanReportRequiresQuietly) {
  AuditReport report;
  report.check(true, "fine");
  EXPECT_TRUE(report.ok());
  EXPECT_NO_THROW(report.require());
  EXPECT_EQ(report.checks(), 1u);
}

}  // namespace
}  // namespace specpf
