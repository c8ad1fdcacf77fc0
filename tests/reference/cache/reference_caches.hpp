// The pre-arena cache fleet: one node-based Cache per user wrapped in a
// TaggedCache, behind the CachePlane interface. It is the oracle the
// arena plane's unit suites and the cache benches compare against; the
// arena plane (cache/cache_plane.hpp) reproduces it bit for bit.
#pragma once

#include <cstdint>
#include <memory>

#include "cache/cache.hpp"
#include "cache/cache_plane.hpp"
#include "cache/factory.hpp"

namespace specpf {

/// Builds a standalone node-based cache of the given kind. `seed` is only
/// consumed by the random policy.
std::unique_ptr<Cache> make_cache(CacheKind kind, std::size_t capacity,
                                  std::uint64_t seed);

/// One TaggedCache per user, seeded exactly as the arena plane seeds its
/// random policy (substream 100 + user of `config.seed`).
std::unique_ptr<CachePlane> make_tagged_cache_fleet(
    CacheKind kind, const CachePlaneConfig& config);

}  // namespace specpf
