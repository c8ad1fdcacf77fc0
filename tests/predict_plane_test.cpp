// Differential + unit tests for the slab-backed SoA predictor plane
// (predict/predictor_plane.hpp, predict/context_arena.hpp):
//  1. ContextArena bookkeeping matches a reference map-of-maps under random
//     load, and the quantized-counter edge cases (saturation, halving) do
//     the exact ceil(c/2) aging the header promises.
//  2. HistoryRing preserves order across wraparound.
//  3. Fuzz differential: every arena plane predicts bit-identically to its
//     reference virtual Predictor table (tests/reference/predict/) across orders x user counts x
//     candidate limits — exact double equality, not approximate.
//  4. The ranked heads the Markov and frequency planes read stay exact
//     through counter halving, against a full sort of every successor.
//  5. PPM's bounded ranked-head read, on adversarial streams built to hit
//     each way it can stop or fall back, against the legacy table (and,
//     past counter saturation, against a full-blend reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "predict/context_arena.hpp"
#include "predict/predictor_plane.hpp"
#include "predict/reference_predictors.hpp"
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
  auto plane = make_predictor_plane(kind, cfg);
  auto legacy = make_table_predictor_plane(kind, cfg);
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
        cfg.max_candidates = limit;  // heads 4 x limit deep
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
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
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
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
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

// --- PPM bounded ranked-head read ------------------------------------------

using Stream = std::vector<std::pair<UserId, std::uint64_t>>;

struct PpmRun {
  std::size_t predictions = 0;  ///< calls that returned candidates
  std::size_t kth_ties = 0;     ///< calls whose k-th score tied the next
  std::uint64_t full_scans = 0;
};

/// Feeds `stream` through the PPM plane and the legacy PpmPredictor,
/// comparing predict_into(limit) bit for bit after every observation. The
/// plane is built for exactly `limit` (its heads 4x that deep): the
/// largest limit it accepts.
void expect_ppm_matches_legacy(const Stream& stream, std::size_t order,
                               std::size_t users, std::size_t limit,
                               PpmRun* run) {
  PredictorPlaneConfig cfg;
  cfg.num_users = users;
  cfg.ppm_order = order;
  cfg.max_candidates = limit;
  auto plane = make_predictor_plane(PredictorKind::kPpm, cfg);
  auto legacy = make_table_predictor_plane(PredictorKind::kPpm, cfg);
  std::vector<Candidate> got, want, full;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto [user, item] = stream[i];
    plane->observe(user, item);
    legacy->observe(user, item);
    plane->predict_into(user, limit, got);
    legacy->predict_into(user, limit, want);
    ASSERT_EQ(got.size(), want.size()) << "event " << i;
    for (std::size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(got[c].item, want[c].item) << "event " << i << " rank " << c;
      ASSERT_EQ(got[c].probability, want[c].probability)
          << "event " << i << " rank " << c;
    }
    if (!got.empty()) ++run->predictions;
    legacy->predict_into(user, limit + 1, full);
    if (full.size() > limit &&
        full[limit - 1].probability == full[limit].probability) {
      ++run->kth_ties;
    }
  }
  EXPECT_EQ(plane->counter_halvings(), 0u);
  AuditReport report;
  plane->audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  run->full_scans = plane->full_scans();
}

TEST(PpmBoundedRead, OrderOneFanOutFarBeyondHeadDepth) {
  // Every session restarts through hub item 0, whose order-1 context fans
  // out to a few hot pages and 600 one-off restart pages: far past the
  // 16-deep heads. The skew lets the bound settle on most calls.
  for (const std::size_t order : {std::size_t{1}, std::size_t{3}}) {
    Rng rng(31 + order);
    Stream stream;
    for (int i = 0; i < 6000; ++i) {
      const UserId user = static_cast<UserId>(rng.next_u64() % 4);
      stream.emplace_back(user, 0);
      const std::uint64_t roll = rng.next_u64() % 10;
      stream.emplace_back(user, roll < 7 ? 1 + roll % 3
                                         : 1000 + rng.next_u64() % 600);
    }
    PpmRun run;
    expect_ppm_matches_legacy(stream, order, 4, 4, &run);
    EXPECT_GT(run.predictions, 10000u);
    EXPECT_LT(run.full_scans * 10, run.predictions) << "order " << order;
  }
}

TEST(PpmBoundedRead, KnownEarlyStop) {
  // Context 0: item 1 fifty times, then 100 restart items once each. The
  // depth-0 read finds item 1, and the depth-1 bound (one count) is
  // already strictly below it: top 1 settles without a scan.
  Stream stream;
  for (int i = 0; i < 50; ++i) stream.insert(stream.end(), {{0, 0}, {0, 1}});
  for (std::uint64_t r = 100; r < 200; ++r) {
    stream.insert(stream.end(), {{0, 0}, {0, r}});
  }
  stream.emplace_back(0, 0);
  PredictorPlaneConfig cfg;
  cfg.ppm_order = 1;
  cfg.max_candidates = 1;  // 4-deep heads; context 0 has 101 successors
  auto plane = make_predictor_plane(PredictorKind::kPpm, cfg);
  for (const auto& [user, item] : stream) plane->observe(user, item);
  const auto got = plane->predict(0, 1);
  EXPECT_EQ(plane->full_scans(), 0u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 1u);

  PpmRun run;
  expect_ppm_matches_legacy(stream, 1, 1, 1, &run);
}

TEST(PpmBoundedRead, KnownFallbackWhenHeadExhaustsOnTies) {
  // Context 0: 40 restart items, once each. Every unread successor ties
  // the best seen one, so the bound never drops strictly below it; the
  // 4-deep head runs out with 36 successors off it, and the plane must
  // blend them all. Ties rank by item: 100 wins.
  Stream stream;
  for (std::uint64_t r = 100; r < 140; ++r) {
    stream.insert(stream.end(), {{0, 0}, {0, r}});
  }
  stream.emplace_back(0, 0);
  PredictorPlaneConfig cfg;
  cfg.ppm_order = 1;
  cfg.max_candidates = 1;
  auto plane = make_predictor_plane(PredictorKind::kPpm, cfg);
  for (const auto& [user, item] : stream) plane->observe(user, item);
  const std::uint64_t before = plane->full_scans();
  const auto got = plane->predict(0, 1);
  EXPECT_EQ(plane->full_scans(), before + 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 100u);

  PpmRun run;
  expect_ppm_matches_legacy(stream, 1, 1, 1, &run);
  EXPECT_GT(run.full_scans, 0u);
}

TEST(PpmBoundedRead, KthScoreTiesAcrossOrders) {
  // Sessions [5, 0, a] give context (5, 0) and context 0 the same count
  // for every a, so each a's two-order blend is bit-equal to the others':
  // the k-th score ties in both orders at once. With `fan` items the
  // 8-deep heads either hold them all (the read must not stop on the tie)
  // or run out (the plane must fall back).
  for (const std::uint64_t fan : {std::uint64_t{4}, std::uint64_t{12}}) {
    Stream stream;
    for (int rep = 0; rep < 6; ++rep) {
      for (std::uint64_t a = 1; a <= fan; ++a) {
        stream.insert(stream.end(), {{0, 5}, {0, 0}, {0, 10 + a}});
      }
    }
    stream.insert(stream.end(), {{0, 5}, {0, 0}});
    PpmRun run;
    expect_ppm_matches_legacy(stream, 2, 1, 2, &run);
    EXPECT_GT(run.kth_ties, 0u) << "fan " << fan;
  }
  // Random small-alphabet streams tie at the k-th rank all the time.
  Rng rng(41);
  Stream stream;
  for (int i = 0; i < 4000; ++i) {
    stream.emplace_back(static_cast<UserId>(rng.next_u64() % 3),
                        rng.next_u64() % 7);
  }
  PpmRun run;
  expect_ppm_matches_legacy(stream, 3, 3, 2, &run);
  EXPECT_GT(run.kth_ties, 50u);
}

TEST(PpmBoundedRead, HeadExactlyFullThenOneOffHead) {
  // Context 0 gains successors 1..8 with counts 8..1: with
  // max_candidates = 2 the head is 8 deep and holds every successor.
  // Item 9 then joins with one count, off the head.
  Stream stream;
  for (std::uint64_t item = 1; item <= 8; ++item) {
    for (std::uint64_t n = item; n <= 8; ++n) {
      stream.insert(stream.end(), {{0, 0}, {0, item}});
    }
  }
  stream.insert(stream.end(), {{0, 0}, {0, 9}, {0, 0}});
  PpmRun run;
  expect_ppm_matches_legacy(stream, 1, 1, 2, &run);
  EXPECT_GT(run.predictions, 0u);
}

TEST(PpmBoundedRead, CarryCutDropsShortOrders) {
  // The cycle 1..5 makes every order-4..2 context single-successor with
  // ~200 counts, so the carried mass falls below 1e-6 after order 2 and
  // order 1 never blends. Context 5 at order 1 also knows item 7 (from
  // the leading "9 5 7" detours), which the cut must keep out of the
  // prediction.
  Stream stream;
  for (int rep = 0; rep < 3; ++rep) {
    stream.insert(stream.end(), {{0, 9}, {0, 5}, {0, 7}});
  }
  for (int rep = 0; rep < 200; ++rep) {
    for (std::uint64_t item = 1; item <= 5; ++item) {
      stream.emplace_back(0, item);
    }
  }
  PpmRun run;
  expect_ppm_matches_legacy(stream, 4, 1, 2, &run);
  PredictorPlaneConfig cfg;
  cfg.ppm_order = 4;
  cfg.max_candidates = 2;
  auto plane = make_predictor_plane(PredictorKind::kPpm, cfg);
  for (const auto& [user, item] : stream) plane->observe(user, item);
  const auto got = plane->predict(0, 2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 1u);
}

/// Single-user PPM over a head-less ContextArena (the same counter aging
/// as the plane) that blends every successor and sorts them all: the
/// reference past counter saturation, where the u64 legacy table diverges
/// by design. Items are < 2^16, so a context key packs its items exactly.
class FullBlendPpm {
 public:
  explicit FullBlendPpm(std::size_t order) : order_(order) {}

  void observe(std::uint64_t item) {
    const std::uint32_t id = arena_.intern_item(item);
    for (std::size_t k = 1; k <= std::min(order_, history_.size()); ++k) {
      arena_.add(arena_.intern(key(k)), id);
    }
    history_.push_back(item);
    if (history_.size() > order_) history_.erase(history_.begin());
  }

  std::vector<Candidate> predict(std::size_t limit) const {
    std::map<std::uint64_t, double> blended;
    double carry = 1.0;
    for (std::size_t k = std::min(order_, history_.size()); k >= 1; --k) {
      const ContextArena::CtxId ctx = arena_.find(key(k));
      if (ctx == ContextArena::kNoCtx) continue;
      const double distinct = static_cast<double>(arena_.distinct(ctx));
      const double total = static_cast<double>(arena_.total(ctx));
      const double escape = distinct / (total + distinct);
      arena_.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
        blended[item] +=
            carry * (1.0 - escape) * static_cast<double>(c) / total;
      });
      carry *= escape;
      if (carry < 1e-6) break;
    }
    std::vector<Candidate> out;
    for (const auto& [item, p] : blended) out.push_back(Candidate{item, p});
    std::sort(out.begin(), out.end(), candidate_before);
    out.resize(std::min(out.size(), limit));
    return out;
  }

  std::uint64_t halvings() const { return arena_.halvings(); }

 private:
  std::uint64_t key(std::size_t k) const {
    std::uint64_t h = k;
    for (std::size_t i = history_.size() - k; i < history_.size(); ++i) {
      h = (h << 16) | history_[i];
    }
    return h;
  }

  std::size_t order_;
  ContextArena arena_;
  std::vector<std::uint64_t> history_;
};

TEST(PpmBoundedRead, CounterHalvingMatchesFullBlend) {
  // Hub 1 fans out to a hot page and to pairs (10m + 1, 10m + 2) with
  // counts (2m - 1, 2m): nine successors, one off the 8-deep head. The
  // hot page saturates its counters; each halving ties every pair at m,
  // which the rebuilt heads must rank by item.
  constexpr std::size_t kOrder = 2;
  constexpr std::size_t kTop = 2;
  constexpr std::uint64_t kHot = 1000;
  PredictorPlaneConfig cfg;
  cfg.ppm_order = kOrder;
  cfg.max_candidates = kTop;
  auto plane = make_predictor_plane(PredictorKind::kPpm, cfg);
  FullBlendPpm reference(kOrder);
  std::vector<Candidate> got;
  std::size_t step = 0;
  const auto observe = [&](std::uint64_t item) {
    plane->observe(0, item);
    reference.observe(item);
    plane->predict_into(0, kTop, got);
    const auto want = reference.predict(kTop);
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].item, want[i].item) << "step " << step << " rank " << i;
      ASSERT_EQ(got[i].probability, want[i].probability) << "step " << step;
    }
    ++step;
  };
  const auto visit = [&](std::uint64_t x) {
    observe(x);
    observe(1);
  };

  observe(1);
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t m = 1; m <= 4; ++m) {
      const std::uint64_t base = round == 0 ? 0 : m;
      for (std::uint64_t i = base; i < 2 * m - 1; ++i) visit(10 * m + 1);
      for (std::uint64_t i = base; i < 2 * m; ++i) visit(10 * m + 2);
    }
    const std::uint64_t halvings = reference.halvings();
    while (reference.halvings() == halvings) visit(kHot);
    AuditReport report;
    plane->audit(report);
    ASSERT_TRUE(report.ok()) << report.summary();
  }
  EXPECT_GE(plane->counter_halvings(), 2u);
  EXPECT_EQ(plane->counter_halvings(), reference.halvings());
}

TEST(PredictPlane, RankedHeadPlanesRejectLimitsAboveCapacity) {
  for (const PredictorKind kind : {PredictorKind::kMarkov,
                                  PredictorKind::kFrequency,
                                  PredictorKind::kPpm}) {
    PredictorPlaneConfig cfg;
    cfg.max_candidates = 3;
    auto plane = make_predictor_plane(kind, cfg);
    std::vector<Candidate> scratch;
    EXPECT_NO_THROW(plane->predict_into(0, 3, scratch));
    EXPECT_THROW(plane->predict_into(0, 4, scratch), ContractViolation);
  }
}

TEST(PredictPlane, PredictIntoReplacesStaleScratchContents) {
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
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
