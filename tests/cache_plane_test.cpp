// Cache-plane differential tests: the block-arena backend must be
// bit-identical to the reference per-user TaggedCache fleet
// (tests/reference/cache/) — same access
// outcomes, residency, sizes, ĥ' estimates, and eviction victims (with
// tags) — across all five eviction policies under long random protocol
// sequences, plus the §4 tag-transition edge cases pinned on both paths.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cache/cache_plane.hpp"
#include "cache/reference_caches.hpp"
#include "sim/proxy_sim.hpp"
#include "sim/trace_replay.hpp"
#include "util/contract.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

using core::EntryTag;
using core::InteractionModel;

constexpr CacheKind kAllKinds[] = {CacheKind::kLru, CacheKind::kLfu,
                                   CacheKind::kFifo, CacheKind::kClock,
                                   CacheKind::kRandom};

struct Eviction {
  std::uint32_t user;
  ItemId item;
  EntryTag tag;
  bool operator==(const Eviction& o) const {
    return user == o.user && item == o.item && tag == o.tag;
  }
};

/// The arena plane, or the reference TaggedCache fleet when `reference`.
std::unique_ptr<CachePlane> make_backend(CacheKind kind,
                                         const CachePlaneConfig& config,
                                         bool reference) {
  return reference ? make_tagged_cache_fleet(kind, config)
                   : make_cache_plane(kind, config);
}

struct PlaneUnderTest {
  std::unique_ptr<CachePlane> plane;
  std::vector<Eviction> evictions;

  PlaneUnderTest(CacheKind kind, const CachePlaneConfig& config,
                 bool reference) {
    plane = make_backend(kind, config, reference);
    plane->set_eviction_observer(
        [this](std::uint32_t user, ItemId item, EntryTag tag) {
          evictions.push_back(Eviction{user, item, tag});
        });
  }
};

/// Drives both backends through an identical random §4 protocol sequence
/// and checks every observable after every operation.
void run_differential(CacheKind kind, std::size_t capacity,
                      std::uint64_t seed) {
  CachePlaneConfig config;
  config.num_users = 8;
  config.capacity = capacity;
  config.seed = 17;
  PlaneUnderTest arena(kind, config, /*reference=*/false);
  PlaneUnderTest legacy(kind, config, /*reference=*/true);

  Rng rng(seed);
  for (int op = 0; op < 30000; ++op) {
    const auto user = static_cast<std::uint32_t>(rng.next_below(8));
    const ItemId item = rng.next_below(capacity * 4);  // keeps evictions hot
    const auto kind_draw = rng.next_below(100);
    if (kind_draw < 55) {
      ASSERT_EQ(arena.plane->access(user, item),
                legacy.plane->access(user, item))
          << "op " << op;
    } else if (kind_draw < 70) {
      arena.plane->admit_demand(user, item);
      legacy.plane->admit_demand(user, item);
    } else if (kind_draw < 88) {
      arena.plane->admit_prefetch(user, item);
      legacy.plane->admit_prefetch(user, item);
    } else {
      arena.plane->admit_prefetch_accessed(user, item);
      legacy.plane->admit_prefetch_accessed(user, item);
    }
    ASSERT_EQ(arena.plane->contains(user, item),
              legacy.plane->contains(user, item))
        << "op " << op;
    ASSERT_EQ(arena.plane->size(user), legacy.plane->size(user))
        << "op " << op;
    ASSERT_EQ(arena.evictions.size(), legacy.evictions.size()) << "op " << op;
  }
  EXPECT_EQ(arena.evictions, legacy.evictions);
  EXPECT_FALSE(arena.evictions.empty());

  for (std::uint32_t u = 0; u < config.num_users; ++u) {
    EXPECT_DOUBLE_EQ(arena.plane->estimate(u, InteractionModel::kModelA),
                     legacy.plane->estimate(u, InteractionModel::kModelA));
    EXPECT_DOUBLE_EQ(arena.plane->estimate(u, InteractionModel::kModelB),
                     legacy.plane->estimate(u, InteractionModel::kModelB));
    EXPECT_EQ(arena.plane->prefetch_inserts(u), legacy.plane->prefetch_inserts(u));
    EXPECT_EQ(arena.plane->prefetch_first_uses(u),
              legacy.plane->prefetch_first_uses(u));
  }
  const CachePlaneTotals ta = arena.plane->totals(InteractionModel::kModelB);
  const CachePlaneTotals tl = legacy.plane->totals(InteractionModel::kModelB);
  EXPECT_DOUBLE_EQ(ta.hprime_sum, tl.hprime_sum);
  EXPECT_EQ(ta.prefetch_inserts, tl.prefetch_inserts);
  EXPECT_EQ(ta.prefetch_first_uses, tl.prefetch_first_uses);
}

class CachePlaneDifferential
    : public ::testing::TestWithParam<std::tuple<CacheKind, std::size_t>> {};

TEST_P(CachePlaneDifferential, ArenaMatchesLegacyOnRandomProtocolOps) {
  const auto [kind, capacity] = GetParam();
  for (std::uint64_t seed : {11ULL, 1111ULL}) {
    run_differential(kind, capacity, seed);
  }
}

// 48 slots is wider than any 32-bit per-walk bitmap could track.
INSTANTIATE_TEST_SUITE_P(
    AllKinds, CachePlaneDifferential,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(std::size_t{6}, std::size_t{24},
                                         std::size_t{48})),
    [](const ::testing::TestParamInfo<CachePlaneDifferential::ParamType>&
           info) {
      return std::string(cache_kind_name(std::get<0>(info.param))) + "_cap" +
             std::to_string(std::get<1>(info.param));
    });

// --- the u16 slot-index capacity limit ---

TEST(CapacityLimit, EveryKindAcceptsTheLargestIndexableCapacityOnly) {
  ASSERT_EQ(arena::kMaxCacheCapacity, 65534u);
  CachePlaneConfig config;
  config.num_users = 2;
  for (CacheKind kind : kAllKinds) {
    SCOPED_TRACE(cache_kind_name(kind));
    config.capacity = arena::kMaxCacheCapacity;
    auto plane = make_cache_plane(kind, config);
    for (ItemId item = 0; item < 100; ++item) plane->admit_demand(1, item);
    EXPECT_EQ(plane->size(1), 100u);
    EXPECT_EQ(plane->access(1, 99), AccessOutcome::kHitTagged);
    AuditReport report;
    plane->audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();

    config.capacity = arena::kMaxCacheCapacity + 1;
    EXPECT_THROW(make_cache_plane(kind, config),
                 ContractViolation);
  }
}

TEST(CapacityLimit, ReplayAndProxyConfigsRejectUnindexableCapacity) {
  TraceReplayConfig replay;
  replay.cache_capacity = arena::kMaxCacheCapacity;
  EXPECT_NO_THROW(replay.validate());
  replay.cache_capacity = arena::kMaxCacheCapacity + 1;
  EXPECT_THROW(replay.validate(), ContractViolation);

  ProxySimConfig proxy;
  proxy.cache_capacity = arena::kMaxCacheCapacity;
  EXPECT_NO_THROW(proxy.validate());
  proxy.cache_capacity = arena::kMaxCacheCapacity + 1;
  EXPECT_THROW(proxy.validate(), ContractViolation);
}

// --- §4 tag-transition edge cases, pinned identically on both backends ---

class TagTransition : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr std::uint32_t kUser = 0;
};

TEST_P(TagTransition, AdmitPrefetchAccessedOnResidentItemRetagsAndCounts) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = 4;
  auto plane = make_backend(CacheKind::kLru, config, GetParam());

  plane->admit_prefetch(kUser, 1);  // resident, untagged
  EXPECT_EQ(plane->prefetch_inserts(kUser), 1u);
  // An in-flight prefetch of the same item was claimed by a request: the
  // admission retags the resident entry and counts another used prefetch.
  plane->admit_prefetch_accessed(kUser, 1);
  EXPECT_EQ(plane->size(kUser), 1u);
  EXPECT_EQ(plane->prefetch_inserts(kUser), 2u);
  EXPECT_EQ(plane->prefetch_first_uses(kUser), 1u);
  // The entry is now tagged: the next access is a would-have-hit.
  EXPECT_EQ(plane->access(kUser, 1), AccessOutcome::kHitTagged);
}

TEST_P(TagTransition, DemandReinsertOverUntaggedEntryUpgradesTag) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = 4;
  auto plane = make_backend(CacheKind::kLru, config, GetParam());

  plane->admit_prefetch(kUser, 7);  // untagged
  plane->admit_demand(kUser, 7);    // re-insert upgrades to tagged, no growth
  EXPECT_EQ(plane->size(kUser), 1u);
  EXPECT_EQ(plane->access(kUser, 7), AccessOutcome::kHitTagged);
  // Re-prefetch of the (now tagged) resident item must not downgrade it.
  plane->admit_prefetch(kUser, 7);
  EXPECT_EQ(plane->prefetch_inserts(kUser), 1u);
  EXPECT_EQ(plane->access(kUser, 7), AccessOutcome::kHitTagged);
}

TEST_P(TagTransition, ClockSecondChanceEvictionReportsVictimTagFaithfully) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = 3;
  auto plane = make_backend(CacheKind::kClock, config, GetParam());
  std::vector<Eviction> evictions;
  plane->set_eviction_observer(
      [&evictions](std::uint32_t user, ItemId item, EntryTag tag) {
        evictions.push_back(Eviction{user, item, tag});
      });

  plane->admit_prefetch(kUser, 1);  // frame 0, untagged, referenced
  plane->admit_demand(kUser, 2);    // frame 1, tagged
  plane->admit_demand(kUser, 3);    // frame 2, tagged
  // All reference bits set: the sweep clears every bit on the first pass
  // and takes frame 0 on the second — evicting the untagged prefetch.
  plane->admit_demand(kUser, 4);
  ASSERT_EQ(evictions.size(), 1u);
  EXPECT_EQ(evictions[0], (Eviction{kUser, 1, EntryTag::kUntagged}));

  // Touch 2 so its second chance spares it; the next insert must evict the
  // unreferenced 3 and report its (tagged) tag, not the hand's first stop.
  EXPECT_EQ(plane->access(kUser, 2), AccessOutcome::kHitTagged);
  plane->admit_demand(kUser, 5);
  ASSERT_EQ(evictions.size(), 2u);
  EXPECT_EQ(evictions[1], (Eviction{kUser, 3, EntryTag::kTagged}));
  EXPECT_TRUE(plane->contains(kUser, 2));
}

INSTANTIATE_TEST_SUITE_P(Backends, TagTransition, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "legacy" : "arena";
                         });

// --- the RSS probe the memory benchmarks rely on ---

TEST(MemoryUsage, ProbesResidentSetOnLinux) {
  const MemoryUsage usage = read_memory_usage();
#if defined(__linux__)
  EXPECT_GT(usage.resident_bytes, 0u);
  EXPECT_GE(usage.peak_resident_bytes, usage.resident_bytes);
  // Touch a real allocation and confirm the probe can only grow.
  std::vector<char> block(16 << 20, 1);
  const MemoryUsage after = read_memory_usage();
  EXPECT_GE(after.peak_resident_bytes, usage.peak_resident_bytes);
  EXPECT_GT(block[8 << 20], 0);
#else
  (void)usage;
#endif
}

}  // namespace
}  // namespace specpf
