// Cache vocabulary shared by every layer: item ids, the §4 entry tag, and
// what one cache access observed.
#pragma once

#include <cstdint>

#include "core/hit_ratio_estimator.hpp"

namespace specpf {

using ItemId = std::uint64_t;
using core::EntryTag;

/// What a cache access observed under the §4 tagged-entry protocol.
enum class AccessOutcome {
  kMiss,         ///< not resident
  kHitTagged,    ///< hit on a tagged entry (a "would-have-hit" per §4)
  kHitUntagged,  ///< first touch of a prefetched entry (now tagged)
};

}  // namespace specpf
