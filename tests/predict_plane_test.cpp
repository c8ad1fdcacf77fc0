// Differential + unit tests for the slab-backed SoA predictor plane
// (predict/predictor_plane.hpp, predict/context_arena.hpp):
//  1. ContextArena bookkeeping matches a reference map-of-maps under random
//     load, and the quantized-counter edge cases (saturation, halving) do
//     the exact ceil(c/2) aging the header promises.
//  2. HistoryRing preserves order across wraparound.
//  3. Fuzz differential: every arena plane predicts bit-identically to its
//     legacy virtual Predictor table across orders x user counts x
//     candidate limits — exact double equality, not approximate.
//  4. The ranked heads the Markov and frequency planes read stay exact
//     through counter halving, against a full sort of every successor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "predict/context_arena.hpp"
#include "predict/predictor_plane.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace specpf {
namespace {

using core::Candidate;

TEST(ContextArena, CountsMatchReferenceMap) {
  ContextArena arena;
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> reference;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t ctx_key = rng.next_u64() % 17;
    const std::uint64_t item = rng.next_u64() % 40;
    arena.add(arena.intern(ctx_key), arena.intern_item(item));
    ++reference[ctx_key][item];
  }
  ASSERT_EQ(arena.context_count(), reference.size());
  for (const auto& [ctx_key, successors] : reference) {
    const ContextArena::CtxId ctx = arena.find(ctx_key);
    ASSERT_NE(ctx, ContextArena::kNoCtx);
    EXPECT_EQ(arena.distinct(ctx), successors.size());
    std::uint64_t want_total = 0;
    for (const auto& [item, count] : successors) want_total += count;
    EXPECT_EQ(arena.total(ctx), want_total);
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, successors);
  }
  EXPECT_EQ(arena.halvings(), 0u);  // counts stayed far below saturation
}

TEST(ContextArena, FindOnUnknownKeyIsNoCtx) {
  ContextArena arena;
  EXPECT_EQ(arena.find(123), ContextArena::kNoCtx);
  const ContextArena::CtxId ctx = arena.intern(123);
  EXPECT_EQ(arena.find(123), ctx);
  EXPECT_EQ(arena.total(ctx), 0u);
  EXPECT_EQ(arena.distinct(ctx), 0u);
}

TEST(ContextArena, SaturationHalvesEveryCounterRoundingUp) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(7);
  const std::uint32_t a = arena.intern_item(100);
  const std::uint32_t b = arena.intern_item(200);
  for (int i = 0; i < 3; ++i) arena.add(ctx, b);
  for (std::uint32_t i = 0; i < ContextArena::kCounterMax; ++i) {
    arena.add(ctx, a);
  }
  EXPECT_EQ(arena.halvings(), 0u);
  EXPECT_EQ(arena.total(ctx), std::uint64_t{ContextArena::kCounterMax} + 3);

  // The add that would overflow `a` ages the whole context first:
  // a: 65535 -> 32768 (then the pending increment lands: 32769),
  // b: 3 -> 2, and the total is recomputed from the aged counts.
  arena.add(ctx, a);
  EXPECT_EQ(arena.halvings(), 1u);
  std::map<std::uint64_t, std::uint64_t> got;
  arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
    got[item] = c;
  });
  EXPECT_EQ(got[100], 32769u);
  EXPECT_EQ(got[200], 2u);
  EXPECT_EQ(arena.total(ctx), 32771u);
  EXPECT_EQ(arena.distinct(ctx), 2u);  // no successor is ever forgotten
}

TEST(ContextArena, HalvingNeverZeroesACount) {
  // A count of 1 halves to ceil(1/2) = 1, so even rare successors survive
  // arbitrarily many agings.
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(1);
  const std::uint32_t rare = arena.intern_item(999);
  const std::uint32_t hot = arena.intern_item(111);
  arena.add(ctx, rare);
  // Two full saturation cycles on the hot item.
  for (int cycle = 0; cycle < 2; ++cycle) {
    while (arena.halvings() == static_cast<std::uint64_t>(cycle)) {
      arena.add(ctx, hot);
    }
  }
  EXPECT_EQ(arena.halvings(), 2u);
  std::uint64_t rare_count = 0;
  arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
    if (item == 999) rare_count = c;
    EXPECT_GE(c, 1u);
  });
  EXPECT_EQ(rare_count, 1u);
}

TEST(ContextArena, SlabGrowthStress) {
  // Enough volume to force several growth doublings of every slab and
  // index; the arena must stay exactly consistent with the reference.
  ContextArena arena;
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> reference;
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t ctx_key = rng.next_u64() % 4096;
    const std::uint64_t item = rng.next_u64() % 2048;
    arena.add(arena.intern(ctx_key), arena.intern_item(item));
    ++reference[ctx_key][item];
  }
  ASSERT_EQ(arena.context_count(), reference.size());
  EXPECT_EQ(arena.item_count(), 2048u);
  std::size_t total_successors = 0;
  for (const auto& [ctx_key, successors] : reference) {
    const ContextArena::CtxId ctx = arena.find(ctx_key);
    ASSERT_NE(ctx, ContextArena::kNoCtx);
    total_successors += successors.size();
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, successors);
  }
  EXPECT_EQ(arena.successor_count(), total_successors);
}

TEST(HistoryRing, PreservesOrderAcrossWraparound) {
  HistoryRing ring(2, 4);
  EXPECT_EQ(ring.size(0), 0u);
  for (std::uint64_t v = 1; v <= 6; ++v) ring.push(0, v * 10);
  ring.push(1, 7);  // the other user's ring is independent
  ASSERT_EQ(ring.size(0), 4u);
  EXPECT_EQ(ring.at(0, 0), 30u);  // oldest surviving entry
  EXPECT_EQ(ring.at(0, 1), 40u);
  EXPECT_EQ(ring.at(0, 2), 50u);
  EXPECT_EQ(ring.at(0, 3), 60u);
  EXPECT_EQ(ring.newest(0), 60u);
  ASSERT_EQ(ring.size(1), 1u);
  EXPECT_EQ(ring.newest(1), 7u);
}

// --- plane vs legacy fuzz differential --------------------------------------

/// Drives the same random stream through both backends, comparing
/// predict_into output exactly (same items, bit-identical probabilities)
/// after every observation. The plane is sized for exactly
/// `max_candidates`, so the ranked heads run at every tested limit.
void expect_bit_identical(PredictorKind kind, PredictorPlaneConfig cfg,
                          std::size_t max_candidates, std::uint64_t seed,
                          std::size_t events, std::uint64_t item_space) {
  cfg.max_candidates = max_candidates;
  auto plane = make_predictor_plane(kind, cfg, false);
  auto legacy = make_predictor_plane(kind, cfg, true);
  Rng rng(seed);
  std::vector<Candidate> got, want;
  for (std::size_t i = 0; i < events; ++i) {
    const UserId user = static_cast<UserId>(rng.next_u64() % cfg.num_users);
    const std::uint64_t item = rng.next_u64() % item_space;
    plane->observe(user, item);
    legacy->observe(user, item);
    plane->predict_into(user, max_candidates, got);
    legacy->predict_into(user, max_candidates, want);
    ASSERT_EQ(got.size(), want.size())
        << predictor_kind_name(kind) << " event " << i;
    for (std::size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(got[c].item, want[c].item)
          << predictor_kind_name(kind) << " event " << i << " rank " << c;
      ASSERT_EQ(got[c].probability, want[c].probability)
          << predictor_kind_name(kind) << " event " << i << " rank " << c;
    }
  }
  // The differential only holds below counter saturation — assert the fuzz
  // volume never crossed it, so a future tweak can't quietly void the test.
  EXPECT_EQ(plane->counter_halvings(), 0u);
}

TEST(PredictPlaneDifferential, FrequencyMatchesLegacy) {
  for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}, std::size_t{64}}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 3;
    expect_bit_identical(PredictorKind::kFrequency, cfg, limit, 21, 4000, 50);
  }
}

TEST(PredictPlaneDifferential, MarkovMatchesLegacy) {
  for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{64}}) {
      PredictorPlaneConfig cfg;
      cfg.num_users = users;
      expect_bit_identical(PredictorKind::kMarkov, cfg, limit, 22, 4000, 40);
    }
  }
}

TEST(PredictPlaneDifferential, MarkovLaplaceMatchesLegacy) {
  for (const double laplace : {0.5, 1000.0}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 4;
    cfg.markov_laplace = laplace;
    expect_bit_identical(PredictorKind::kMarkov, cfg, 8, 23, 4000, 40);
  }
}

TEST(PredictPlaneDifferential, PpmMatchesLegacyAcrossOrders) {
  for (const std::size_t order : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
      for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}, std::size_t{64}}) {
        PredictorPlaneConfig cfg;
        cfg.num_users = users;
        cfg.ppm_order = order;
        expect_bit_identical(PredictorKind::kPpm, cfg, limit,
                             100 + order, 3000, 30);
      }
    }
  }
}

TEST(PredictPlaneDifferential, DependencyGraphMatchesLegacy) {
  for (const std::size_t lookahead : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{8},
                                    std::size_t{64}}) {
      PredictorPlaneConfig cfg;
      cfg.num_users = 5;
      cfg.depgraph_lookahead = lookahead;
      expect_bit_identical(PredictorKind::kDependencyGraph, cfg, limit,
                           200 + lookahead, 3000, 30);
    }
  }
}

TEST(PredictPlaneDifferential, OracleMatchesLegacy) {
  SessionGraphConfig gcfg;
  gcfg.num_pages = 64;
  gcfg.out_degree = 4;
  const SessionGraph graph(gcfg, 17);
  for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 4;
    cfg.graph = &graph;
    expect_bit_identical(PredictorKind::kOracle, cfg, limit, 24, 2000, 64);
  }
}

TEST(PredictPlane, MarkovSurvivesCounterSaturation) {
  // Past 65535 repetitions of one transition the plane diverges from the
  // (unbounded-counter) legacy table by design; it must keep producing the
  // same *distribution* with bounded counters.
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg, false);
  plane->observe(0, 1);
  for (int i = 0; i < 70000; ++i) {
    plane->observe(0, 2);
    plane->observe(0, 1);
  }
  EXPECT_GE(plane->counter_halvings(), 1u);
  const auto after = plane->predict(0, 8);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].item, 2u);
  EXPECT_EQ(after[0].probability, 1.0);
}

bool candidate_before(const Candidate& a, const Candidate& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  return a.item < b.item;
}

TEST(PredictPlane, MarkovHeadSurvivesHalvingTies) {
  // Context 0 gets a hot successor that saturates its counter, plus pairs
  // (lo, hi) with counts (2m-1, 2m): hi outranks lo until ceil(c/2) ties
  // them at m, after which lo (the smaller item) must rank first. A mirror
  // arena without ranked heads sees the same context-0 transitions, so
  // the reference is a full candidate_before sort over for_each_successor.
  constexpr std::size_t kTop = 4;
  constexpr double kLaplace = 0.25;
  constexpr std::uint64_t kHot = 1000;
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  cfg.markov_laplace = kLaplace;
  cfg.max_candidates = kTop;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg, false);
  ContextArena mirror;
  const ContextArena::CtxId ctx = mirror.intern(0);

  std::vector<Candidate> got, want;
  const auto expect_matches_reference = [&](const char* when) {
    want.clear();
    const double denom = static_cast<double>(mirror.total(ctx)) +
                         kLaplace * static_cast<double>(mirror.distinct(ctx));
    mirror.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      want.push_back(Candidate{item, (static_cast<double>(c) + kLaplace) /
                                         denom});
    });
    std::sort(want.begin(), want.end(), candidate_before);
    want.resize(std::min(want.size(), kTop));
    plane->predict_into(0, kTop, got);
    ASSERT_EQ(got.size(), want.size()) << when;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].item, want[i].item) << when << " rank " << i;
      ASSERT_EQ(got[i].probability, want[i].probability) << when;
    }
  };
  // One 0 -> x transition, leaving the user back on item 0.
  const auto visit = [&](std::uint64_t x) {
    plane->observe(0, x);
    plane->observe(0, 0);
    mirror.add(ctx, mirror.intern_item(x));
  };

  plane->observe(0, 0);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t m = 1; m <= 4; ++m) {
      // Pair m is (10m + 1, 10m + 2); after a halving both sit at m.
      const std::uint64_t base = round == 0 ? 0 : m;
      for (std::uint64_t i = base; i < 2 * m - 1; ++i) visit(10 * m + 1);
      for (std::uint64_t i = base; i < 2 * m; ++i) visit(10 * m + 2);
    }
    expect_matches_reference("before halving");
    const std::uint64_t halvings = mirror.halvings();
    while (mirror.halvings() == halvings) visit(kHot);
    expect_matches_reference("after halving");
    AuditReport report;
    plane->audit(report);
    ASSERT_TRUE(report.ok()) << report.summary();
  }
  EXPECT_EQ(mirror.halvings(), 3u);
  // The pairs tied at every halving: the smaller item of each ranks first.
  ASSERT_EQ(got.size(), kTop);
  EXPECT_EQ(got[0].item, kHot);
  EXPECT_EQ(got[1].item, 41u);
  EXPECT_EQ(got[2].item, 42u);
  EXPECT_EQ(got[3].item, 31u);
}

TEST(PredictPlane, RankedHeadPlanesRejectLimitsAboveCapacity) {
  for (const PredictorKind kind :
       {PredictorKind::kMarkov, PredictorKind::kFrequency}) {
    PredictorPlaneConfig cfg;
    cfg.max_candidates = 3;
    auto plane = make_predictor_plane(kind, cfg, false);
    std::vector<Candidate> scratch;
    EXPECT_NO_THROW(plane->predict_into(0, 3, scratch));
    EXPECT_THROW(plane->predict_into(0, 4, scratch), ContractViolation);
  }
}

TEST(PredictPlane, PredictIntoReplacesStaleScratchContents) {
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg, false);
  std::vector<Candidate> scratch(5, Candidate{999, 0.123});
  plane->predict_into(0, 8, scratch);  // nothing observed: must clear
  EXPECT_TRUE(scratch.empty());
  plane->observe(0, 1);
  plane->observe(0, 2);
  plane->observe(0, 1);  // back on item 1, whose lone successor is 2
  plane->predict_into(0, 8, scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch[0].item, 2u);
}

TEST(PredictorFactory, NamesRoundTrip) {
  for (int k = 0; k < kNumPredictorKinds; ++k) {
    const auto kind = static_cast<PredictorKind>(k);
    PredictorKind parsed;
    ASSERT_TRUE(parse_predictor_kind(predictor_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PredictorKind parsed;
  EXPECT_FALSE(parse_predictor_kind("nonsense", &parsed));
}

}  // namespace
}  // namespace specpf
