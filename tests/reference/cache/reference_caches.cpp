#include "cache/reference_caches.hpp"

#include <string>
#include <vector>

#include "cache/clock_cache.hpp"
#include "cache/fifo.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/random_cache.hpp"
#include "cache/tagged_cache.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace specpf {

std::unique_ptr<Cache> make_cache(CacheKind kind, std::size_t capacity,
                                  std::uint64_t seed) {
  switch (kind) {
    case CacheKind::kLru:
      return std::make_unique<LruCache>(capacity);
    case CacheKind::kLfu:
      return std::make_unique<LfuCache>(capacity);
    case CacheKind::kFifo:
      return std::make_unique<FifoCache>(capacity);
    case CacheKind::kClock:
      return std::make_unique<ClockCache>(capacity);
    case CacheKind::kRandom:
      return std::make_unique<RandomCache>(capacity, seed);
  }
  SPECPF_ASSERT(false && "unknown cache kind");
  return nullptr;
}

namespace {

class TaggedCacheFleet final : public CachePlane {
 public:
  TaggedCacheFleet(CacheKind kind, const CachePlaneConfig& config) {
    SPECPF_EXPECTS(config.num_users >= 1);
    Rng root(config.seed);
    caches_.reserve(config.num_users);
    for (std::size_t u = 0; u < config.num_users; ++u) {
      auto inner = make_cache(kind, config.capacity,
                              root.substream(100 + u).next_u64());
      inner->set_eviction_hook(
          [this, user = static_cast<std::uint32_t>(u)](ItemId item,
                                                       core::EntryTag tag) {
            if (observer_) observer_(user, item, tag);
          });
      caches_.push_back(std::make_unique<TaggedCache>(std::move(inner)));
    }
  }

  AccessOutcome access(std::uint32_t user, ItemId item) override {
    return caches_[user]->access(item);
  }
  void admit_demand(std::uint32_t user, ItemId item) override {
    caches_[user]->admit_demand(item);
  }
  void admit_prefetch(std::uint32_t user, ItemId item) override {
    caches_[user]->admit_prefetch(item);
  }
  void admit_prefetch_accessed(std::uint32_t user, ItemId item) override {
    caches_[user]->admit_prefetch_accessed(item);
  }
  bool contains(std::uint32_t user, ItemId item) const override {
    return caches_[user]->inner().contains(item);
  }
  std::size_t size(std::uint32_t user) const override {
    return caches_[user]->inner().size();
  }

  double estimate(std::uint32_t user,
                  core::InteractionModel model) const override {
    return model == core::InteractionModel::kModelA
               ? caches_[user]->estimate_model_a()
               : caches_[user]->estimate_model_b();
  }

  CachePlaneTotals totals(core::InteractionModel model) const override {
    CachePlaneTotals out;
    for (std::uint32_t u = 0; u < caches_.size(); ++u) {
      out.hprime_sum += estimate(u, model);
      out.prefetch_inserts += caches_[u]->prefetch_inserts();
      out.prefetch_first_uses += caches_[u]->prefetch_first_uses();
    }
    return out;
  }

  std::uint64_t prefetch_inserts(std::uint32_t user) const override {
    return caches_[user]->prefetch_inserts();
  }
  std::uint64_t prefetch_first_uses(std::uint32_t user) const override {
    return caches_[user]->prefetch_first_uses();
  }

  void set_eviction_observer(EvictionObserver observer) override {
    observer_ = std::move(observer);
  }

  void audit(AuditReport& report) const override {
    // The entries live in std::list/std::unordered_map nodes that ASan
    // already watches; only the §4 counters are worth re-deriving.
    const AuditScope scope(report, "TaggedCacheFleet");
    for (std::uint32_t u = 0; u < caches_.size(); ++u) {
      report.check(
          caches_[u]->prefetch_first_uses() <= caches_[u]->prefetch_inserts(),
          "user " + std::to_string(u) +
              ": prefetch first uses > prefetch inserts");
    }
  }

 private:
  std::vector<std::unique_ptr<TaggedCache>> caches_;
  EvictionObserver observer_;
};

}  // namespace

std::unique_ptr<CachePlane> make_tagged_cache_fleet(
    CacheKind kind, const CachePlaneConfig& config) {
  return std::make_unique<TaggedCacheFleet>(kind, config);
}

}  // namespace specpf
