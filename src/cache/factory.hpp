// The one cache-kind dispatch point. Every frontend (proxy sim, trace
// replay, sharded driver, benches) names eviction policies through this
// enum, and both cache backends — the legacy virtual `Cache` objects and
// the block-arena plane (cache/cache_plane.hpp) — select their policy
// here, so adding a policy is a one-file change.
#pragma once

#include <cstdint>
#include <memory>

#include "cache/cache.hpp"

namespace specpf {

/// Eviction policies available to every frontend. Numeric values are part
/// of the CLI/bench surface (0=LRU 1=LFU 2=FIFO 3=CLOCK 4=random).
enum class CacheKind : int {
  kLru = 0,
  kLfu = 1,
  kFifo = 2,
  kClock = 3,
  kRandom = 4,
};

inline constexpr int kNumCacheKinds = 5;

/// Short stable name for reports and bench JSON keys.
const char* cache_kind_name(CacheKind kind);

/// Builds a standalone (legacy, node-based) cache of the given kind.
/// `seed` is only consumed by the random policy.
std::unique_ptr<Cache> make_cache(CacheKind kind, std::size_t capacity,
                                  std::uint64_t seed);

}  // namespace specpf
