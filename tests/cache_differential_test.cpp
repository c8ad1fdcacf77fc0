// Differential tests: each production cache is checked against an
// obviously-correct (slow) reference model on long random operation
// sequences — lookups, inserts, erases, tag updates — comparing hit/miss
// outcomes, residency, size, and eviction victims step by step.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

#include "cache/fifo.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

/// Reference LRU: vector ordered most-recent-first.
class RefLru {
 public:
  explicit RefLru(std::size_t cap) : cap_(cap) {}

  bool lookup(ItemId item) {
    auto it = std::find(order_.begin(), order_.end(), item);
    if (it == order_.end()) return false;
    order_.erase(it);
    order_.insert(order_.begin(), item);
    return true;
  }
  /// Returns the eviction victim, or nullopt.
  std::optional<ItemId> insert(ItemId item) {
    auto it = std::find(order_.begin(), order_.end(), item);
    if (it != order_.end()) {
      order_.erase(it);
      order_.insert(order_.begin(), item);
      return std::nullopt;
    }
    std::optional<ItemId> victim;
    if (order_.size() >= cap_) {
      victim = order_.back();
      order_.pop_back();
    }
    order_.insert(order_.begin(), item);
    return victim;
  }
  bool erase(ItemId item) {
    auto it = std::find(order_.begin(), order_.end(), item);
    if (it == order_.end()) return false;
    order_.erase(it);
    return true;
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t cap_;
  std::vector<ItemId> order_;
};

TEST(CacheDifferential, LruMatchesReferenceOnRandomOps) {
  for (std::uint64_t seed : {7ULL, 77ULL, 777ULL}) {
    LruCache cache(16);
    RefLru ref(16);
    std::vector<ItemId> victims;
    cache.set_eviction_hook(
        [&](ItemId item, EntryTag) { victims.push_back(item); });
    Rng rng(seed);
    for (int op = 0; op < 20000; ++op) {
      const ItemId item = rng.next_below(64);
      const auto kind = rng.next_below(10);
      if (kind < 5) {
        EXPECT_EQ(cache.lookup(item).has_value(), ref.lookup(item))
            << "op " << op;
      } else if (kind < 9) {
        victims.clear();
        const auto expected_victim = ref.insert(item);
        cache.insert(item, EntryTag::kTagged);
        if (expected_victim.has_value()) {
          ASSERT_EQ(victims.size(), 1u) << "op " << op;
          EXPECT_EQ(victims[0], *expected_victim) << "op " << op;
        } else {
          EXPECT_TRUE(victims.empty()) << "op " << op;
        }
      } else {
        EXPECT_EQ(cache.erase(item), ref.erase(item)) << "op " << op;
      }
      ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
    }
  }
}

/// Reference FIFO: insertion-ordered vector, lookups don't touch order.
TEST(CacheDifferential, FifoMatchesReferenceOnRandomOps) {
  for (std::uint64_t seed : {3ULL, 33ULL}) {
    FifoCache cache(12);
    std::vector<ItemId> ref_order;  // front = oldest
    std::vector<ItemId> victims;
    cache.set_eviction_hook(
        [&](ItemId item, EntryTag) { victims.push_back(item); });
    Rng rng(seed);
    for (int op = 0; op < 20000; ++op) {
      const ItemId item = rng.next_below(48);
      const auto kind = rng.next_below(10);
      const bool resident =
          std::find(ref_order.begin(), ref_order.end(), item) !=
          ref_order.end();
      if (kind < 5) {
        EXPECT_EQ(cache.lookup(item).has_value(), resident) << "op " << op;
      } else if (kind < 9) {
        victims.clear();
        cache.insert(item, EntryTag::kTagged);
        if (!resident) {
          if (ref_order.size() >= 12) {
            ASSERT_EQ(victims.size(), 1u) << "op " << op;
            EXPECT_EQ(victims[0], ref_order.front()) << "op " << op;
            ref_order.erase(ref_order.begin());
          }
          ref_order.push_back(item);
        } else {
          EXPECT_TRUE(victims.empty()) << "op " << op;
        }
      } else {
        const bool erased = cache.erase(item);
        EXPECT_EQ(erased, resident) << "op " << op;
        if (resident) {
          ref_order.erase(
              std::find(ref_order.begin(), ref_order.end(), item));
        }
      }
      ASSERT_EQ(cache.size(), ref_order.size()) << "op " << op;
    }
  }
}

/// Reference LFU with LRU tie-break: (count, last-use recency) ordering.
TEST(CacheDifferential, LfuMatchesReferenceOnRandomOps) {
  constexpr std::size_t kCap = 10;
  LfuCache cache(kCap);
  struct RefEntry {
    std::uint64_t freq = 0;
    std::uint64_t touched = 0;  // global counter at last touch at this freq
  };
  std::map<ItemId, RefEntry> ref;
  std::uint64_t clock = 0;
  std::vector<ItemId> victims;
  cache.set_eviction_hook(
      [&](ItemId item, EntryTag) { victims.push_back(item); });

  auto ref_victim = [&]() {
    // Min frequency; among those, least recently touched.
    ItemId victim = 0;
    bool first = true;
    for (const auto& [item, e] : ref) {
      if (first || e.freq < ref.at(victim).freq ||
          (e.freq == ref.at(victim).freq &&
           e.touched < ref.at(victim).touched)) {
        victim = item;
        first = false;
      }
    }
    return victim;
  };

  Rng rng(99);
  for (int op = 0; op < 20000; ++op) {
    const ItemId item = rng.next_below(32);
    const bool resident = ref.count(item) != 0;
    if (rng.bernoulli(0.5)) {
      EXPECT_EQ(cache.lookup(item).has_value(), resident) << "op " << op;
      if (resident) {
        ++ref[item].freq;
        ref[item].touched = ++clock;
      }
    } else {
      victims.clear();
      if (!resident && ref.size() >= kCap) {
        const ItemId expected = ref_victim();
        cache.insert(item, EntryTag::kTagged);
        ASSERT_EQ(victims.size(), 1u) << "op " << op;
        EXPECT_EQ(victims[0], expected) << "op " << op;
        ref.erase(expected);
        ref[item] = RefEntry{1, ++clock};
      } else {
        cache.insert(item, EntryTag::kTagged);
        EXPECT_TRUE(victims.empty()) << "op " << op;
        ++ref[item].freq;  // new items get freq 1, residents bump
        ref[item].touched = ++clock;
      }
    }
    ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
    // Spot-check frequency bookkeeping.
    if (resident) {
      EXPECT_EQ(cache.frequency(item), ref[item].freq) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace specpf
