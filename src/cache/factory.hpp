// The one cache-kind dispatch point. Every frontend (proxy sim, trace
// replay, sharded driver, benches) names eviction policies through this
// enum, and the block-arena plane (cache/cache_plane.hpp) selects its
// policy arena from it.
#pragma once

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

}  // namespace specpf
