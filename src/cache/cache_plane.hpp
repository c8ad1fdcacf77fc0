// CachePlane — the fleet-wide client-cache layer behind StackRuntime.
//
// One plane owns every user's cache plus the §4 tagged/untagged estimation
// state. Every user's entries live in a fixed block of the policy's
// CacheArena (cache/cache_arena.hpp), residency is a scan of that block's
// occupied prefix, and the eviction policy is a compile-time template
// parameter of ArenaCachePlane<Policy>, dispatched ONCE per run in
// make_cache_plane — one arena per policy at every capacity. After that
// single dispatch, a request's cache work (lookup, tag protocol, eviction)
// runs with no virtual calls and no per-hook std::function — one
// monomorphic virtual hop into the plane per operation, total.
//
// The plane reproduces the pre-arena per-user TaggedCache fleet bit for
// bit across all five eviction policies. That fleet lives outside the
// library, in tests/reference/, as the oracle of tests/cache_plane_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/cache_types.hpp"
#include "cache/factory.hpp"
#include "core/interaction.hpp"
#include "des/inline_function.hpp"

namespace specpf {

struct CachePlaneConfig {
  std::size_t num_users = 1;
  std::size_t capacity = 64;
  /// Root seed; the random policy derives per-user streams from it
  /// (substream 100 + user).
  std::uint64_t seed = 1;
};

/// Fleet sums the stack's result assembly needs; summable across shards.
struct CachePlaneTotals {
  double hprime_sum = 0.0;  ///< Σ per-user ĥ' estimates (per chosen model)
  std::uint64_t prefetch_inserts = 0;
  std::uint64_t prefetch_first_uses = 0;
};

class CachePlane {
 public:
  /// Fired with (user, item, tag) whenever an entry is evicted to make
  /// room. Inline storage: installing the observer never allocates.
  using EvictionObserver =
      InlineFunction<void(std::uint32_t, ItemId, core::EntryTag), 24>;

  virtual ~CachePlane() = default;

  /// A user request for `item`: updates estimator counters and tag state.
  virtual AccessOutcome access(std::uint32_t user, ItemId item) = 0;

  /// Records a completed demand fetch being admitted (tagged).
  virtual void admit_demand(std::uint32_t user, ItemId item) = 0;

  /// Records a completed prefetch being admitted (untagged). Re-prefetching
  /// a resident item is a no-op: it must not downgrade the tag.
  virtual void admit_prefetch(std::uint32_t user, ItemId item) = 0;

  /// A prefetch claimed by a request while still in flight: enters tagged
  /// and counts as a used prefetch.
  virtual void admit_prefetch_accessed(std::uint32_t user, ItemId item) = 0;

  /// Residency probe; does not touch policy metadata.
  virtual bool contains(std::uint32_t user, ItemId item) const = 0;

  /// Resident items of one user.
  virtual std::size_t size(std::uint32_t user) const = 0;

  /// Per-user ĥ' under the chosen interaction model.
  virtual double estimate(std::uint32_t user,
                          core::InteractionModel model) const = 0;

  /// Fleet sums for result assembly / cross-shard merging.
  virtual CachePlaneTotals totals(core::InteractionModel model) const = 0;

  virtual std::uint64_t prefetch_inserts(std::uint32_t user) const = 0;
  virtual std::uint64_t prefetch_first_uses(std::uint32_t user) const = 0;

  virtual void set_eviction_observer(EvictionObserver observer) = 0;

  /// Deep-invariant sweep (util/audit.hpp): walks the policy arena
  /// (per-user chains and occupied prefixes) plus the §4 counter sanity
  /// (nhit <= naccess, first uses <= inserts). Cold path; called from
  /// tests and SPECPF_AUDIT sweeps.
  virtual void audit(AuditReport& report) const = 0;
};

/// Builds the cache plane for `kind`. This switch is the once-per-run
/// policy dispatch — everything after it is monomorphic.
std::unique_ptr<CachePlane> make_cache_plane(CacheKind kind,
                                             const CachePlaneConfig& config);

}  // namespace specpf
