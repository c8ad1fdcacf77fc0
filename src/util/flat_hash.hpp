// Open-addressing flat hash map for 64-bit keys — the request-plane
// container of the proxy stack (in-flight transfer bookkeeping, predictor
// tables, trace indexes).
//
// Design: robin-hood probing over a power-of-two table with backward-shift
// deletion, so the table keeps no deleted markers and lookups never scan dead
// slots. One byte of metadata per slot (0 = empty, d = probe distance + 1)
// keeps the probe loop inside a single contiguous array; entries live in a
// parallel flat array, so a hit costs a couple of cache lines instead of a
// node-pointer chase per level of a tree or per bucket chain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "util/audit.hpp"
#include "util/contract.hpp"

namespace specpf {

/// 64→64-bit mixer (the splitmix64 finalizer). Packed keys such as
/// (user << 32) | item concentrate their entropy in a few bit positions;
/// the mix spreads it across the whole index range.
inline std::uint64_t mix_u64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

namespace detail {

/// Shared audit walker for the two robin-hood tables below (same probing
/// core, different storage layout). Re-derives every slot's probe distance
/// from its key and checks it against the stored metadata byte:
///   * a wrong distance means the slot was moved without fixing metadata
///     (or the metadata byte itself was corrupted) — lookups would
///     terminate early and miss live entries;
///   * probe-distance monotonicity (a slot's distance exceeds its
///     predecessor's by at most 1) is exactly the invariant backward-shift
///     deletion maintains — a violation means an erase left a hole mid-run
///     and every entry behind it is unreachable.
template <typename KeyAt>
void audit_robin_hood(const std::uint8_t* meta, std::size_t capacity,
                      std::size_t mask, std::size_t size,
                      std::uint32_t max_probe, KeyAt&& key_at,
                      AuditReport& report) {
  if (capacity == 0) {
    report.check(size == 0, "empty table reports nonzero size");
    return;
  }
  std::size_t live = 0;
  for (std::size_t i = 0; i < capacity; ++i) {
    const std::uint32_t dist = meta[i];
    if (dist == 0) continue;
    ++live;
    if (!report.check(dist <= max_probe,
                      "slot " + std::to_string(i) +
                          " probe distance exceeds kMaxProbe")) {
      continue;
    }
    const std::size_t home = mix_u64(key_at(i)) & mask;
    const std::uint32_t derived =
        static_cast<std::uint32_t>(((i - home) & mask) + 1);
    report.check(derived == dist,
                 "slot " + std::to_string(i) +
                     " stored probe distance disagrees with its key's home "
                     "(stored " +
                     std::to_string(dist) + ", derived " +
                     std::to_string(derived) + ")");
    if (dist > 1) {
      const std::size_t prev = (i - 1) & mask;
      report.check(static_cast<std::uint32_t>(meta[prev]) + 1 >= dist,
                   "slot " + std::to_string(i) +
                       " breaks backward-shift monotonicity (distance " +
                       std::to_string(dist) + " after predecessor distance " +
                       std::to_string(meta[prev]) + ")");
    }
  }
  report.check(live == size, "occupied-slot count " + std::to_string(live) +
                                 " disagrees with size() " +
                                 std::to_string(size));
}

}  // namespace detail

/// Flat hash map from std::uint64_t to V. V must be default-constructible,
/// movable, and move-assignable. Iteration order is an implementation
/// detail (it depends on the insertion history), but is deterministic for a
/// given operation sequence — callers that need a canonical order sort.
template <typename V>
class FlatHashMap {
 public:
  /// An occupied slot; supports structured bindings:
  ///   for (const auto& [key, value] : map) ...
  struct Entry {
    std::uint64_t key;
    V value;
  };

  FlatHashMap() = default;

  ~FlatHashMap() {
    clear();
    deallocate();
  }

  FlatHashMap(FlatHashMap&& other) noexcept { steal(other); }

  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      clear();
      deallocate();
      steal(other);
    }
    return *this;
  }

  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr when absent.
  V* find(std::uint64_t key) noexcept {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }
  const V* find(std::uint64_t key) const noexcept {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }

  bool contains(std::uint64_t key) const noexcept {
    return find_index(key) != kNotFound;
  }

  /// Returns the value for `key`, inserting a value-initialized V first if
  /// absent. `inserted` (when non-null) reports whether an insert happened.
  V& get_or_insert(std::uint64_t key, bool* inserted = nullptr) {
    if (V* v = find(key)) {
      if (inserted) *inserted = false;
      return *v;
    }
    if (inserted) *inserted = true;
    return *insert_new(key, V{});
  }

  V& operator[](std::uint64_t key) { return get_or_insert(key); }

  /// Removes `key`. Returns false when absent.
  bool erase(std::uint64_t key) {
    const std::size_t idx = find_index(key);
    if (idx == kNotFound) return false;
    erase_at(idx);
    return true;
  }

  /// Moves the value for `key` out of the table and erases the entry.
  /// Precondition: the key is present.
  V take(std::uint64_t key) {
    const std::size_t idx = find_index(key);
    SPECPF_DCHECK(idx != kNotFound);
    V out = std::move(slots_[idx].value);
    erase_at(idx);
    return out;
  }

  void clear() {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (meta_[i] != 0) {
        slots_[i].~Entry();
        meta_[i] = 0;
      }
    }
    size_ = 0;
  }

  /// Ensures `n` entries fit without further rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > capacity_) rehash_to(cap);
  }

  /// Visits every (key, const value&) pair in unspecified order. Cold-path
  /// helper for audit sweeps and diagnostics; the data plane never scans.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (meta_[i] != 0) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Deep-invariant walk (util/audit.hpp): probe-distance agreement,
  /// backward-shift monotonicity, occupancy vs size().
  void audit(AuditReport& report) const {
    AuditScope scope(report, "FlatHashMap");
    detail::audit_robin_hood(
        meta_, capacity_, mask_, size_, kMaxProbe,
        [this](std::size_t i) { return slots_[i].key; }, report);
  }

  template <bool Const>
  class Iter {
    using Map = std::conditional_t<Const, const FlatHashMap, FlatHashMap>;
    using Ref = std::conditional_t<Const, const Entry&, Entry&>;

   public:
    Iter(Map* map, std::size_t idx) : map_(map), idx_(idx) { skip_empty(); }
    Ref operator*() const { return map_->slots_[idx_]; }
    Iter& operator++() {
      ++idx_;
      skip_empty();
      return *this;
    }
    bool operator==(const Iter& other) const { return idx_ == other.idx_; }
    bool operator!=(const Iter& other) const { return idx_ != other.idx_; }

   private:
    void skip_empty() {
      while (idx_ < map_->capacity_ && map_->meta_[idx_] == 0) ++idx_;
    }
    Map* map_;
    std::size_t idx_;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, capacity_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, capacity_); }

 private:
  friend struct AuditPeer;  // corruption-injection tests only
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;
  // Grow past 7/8 occupancy: robin-hood keeps probe sequences short up to
  // high load, and 7/8 keeps the memory overhead at ~1.14x entries.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;
  // Longest representable probe distance (metadata is one byte, 0 = empty).
  // Unreachable with a mixing hash at our load factor; hitting it forces a
  // grow rather than corrupting metadata.
  static constexpr std::uint32_t kMaxProbe = 254;

  std::size_t find_index(std::uint64_t key) const noexcept {
    if (size_ == 0) return kNotFound;
    std::size_t idx = mix_u64(key) & mask_;
    std::uint32_t dist = 1;
    // Robin-hood invariant: a stored key's probe distance never exceeds the
    // distance a probe for it has travelled, so the scan can stop at the
    // first slot that is empty or closer to its own home than we are.
    while (meta_[idx] >= dist) {
      if (slots_[idx].key == key) return idx;
      idx = (idx + 1) & mask_;
      ++dist;
    }
    return kNotFound;
  }

  /// Places the carried entry, displacing richer entries robin-hood style.
  /// Returns the slot where the *initially* carried entry landed (the walk
  /// only moves forward, so later displacements never touch it again), or
  /// nullptr when a probe distance would overflow the metadata byte — the
  /// caller grows the table (rehashing everything already placed) and
  /// retries with whatever entry is left in the carry.
  V* robin_place(std::uint64_t& carry_key, V& carry_value) {
    std::size_t idx = mix_u64(carry_key) & mask_;
    std::uint32_t dist = 1;
    V* placed = nullptr;
    for (;;) {
      if (dist > kMaxProbe) return nullptr;
      if (meta_[idx] == 0) {
        ::new (static_cast<void*>(&slots_[idx]))
            Entry{carry_key, std::move(carry_value)};
        meta_[idx] = static_cast<std::uint8_t>(dist);
        return placed ? placed : &slots_[idx].value;
      }
      if (meta_[idx] < dist) {
        std::swap(carry_key, slots_[idx].key);
        std::swap(carry_value, slots_[idx].value);
        const std::uint8_t displaced = meta_[idx];
        meta_[idx] = static_cast<std::uint8_t>(dist);
        dist = displaced;
        if (!placed) placed = &slots_[idx].value;
      }
      idx = (idx + 1) & mask_;
      ++dist;
    }
  }

  /// Inserts a key known to be absent; returns the value slot.
  V* insert_new(std::uint64_t key, V value) {
    if (capacity_ == 0 ||
        (size_ + 1) * kMaxLoadDen > capacity_ * kMaxLoadNum) {
      rehash_to(capacity_ ? capacity_ * 2 : kMinCapacity);
    }
    std::uint64_t carry_key = key;
    V carry_value = std::move(value);
    V* placed = robin_place(carry_key, carry_value);
    while (placed == nullptr) {
      // Overflow is possible both before and after the original entry was
      // placed (the leftover carry may be a displaced victim), so re-locate
      // the original by key once the table is big enough.
      rehash_to(capacity_ * 2);
      if (robin_place(carry_key, carry_value)) placed = find(key);
    }
    ++size_;
    SPECPF_DCHECK(placed != nullptr);
    return placed;
  }

  /// Backward-shift deletion: pull the probe chain one slot left until a
  /// slot that is empty or at its home position. No deleted markers.
  void erase_at(std::size_t idx) {
    std::size_t cur = idx;
    for (;;) {
      const std::size_t next = (cur + 1) & mask_;
      if (meta_[next] <= 1) break;
      slots_[cur].key = slots_[next].key;
      slots_[cur].value = std::move(slots_[next].value);
      meta_[cur] = static_cast<std::uint8_t>(meta_[next] - 1);
      cur = next;
    }
    slots_[cur].~Entry();
    meta_[cur] = 0;
    --size_;
  }

  void rehash_to(std::size_t new_capacity) {
    Entry* old_slots = slots_;
    std::uint8_t* old_meta = meta_;
    const std::size_t old_capacity = capacity_;

    slots_ = std::allocator<Entry>{}.allocate(new_capacity);
    meta_ = new std::uint8_t[new_capacity]{};
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;

    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_meta[i] == 0) continue;
      std::uint64_t key = old_slots[i].key;
      V value = std::move(old_slots[i].value);
      old_slots[i].~Entry();
      // At ≤ 7/16 load after doubling a mixed-hash probe cannot plausibly
      // reach kMaxProbe; fail loudly rather than recurse mid-rehash. The
      // call stays outside the assert macro: it performs the insertion.
      [[maybe_unused]] V* replaced = robin_place(key, value);
      SPECPF_DCHECK(replaced != nullptr);
    }
    if (old_slots) std::allocator<Entry>{}.deallocate(old_slots, old_capacity);
    delete[] old_meta;
  }

  void deallocate() {
    if (slots_) std::allocator<Entry>{}.deallocate(slots_, capacity_);
    delete[] meta_;
    slots_ = nullptr;
    meta_ = nullptr;
    capacity_ = 0;
    mask_ = 0;
  }

  void steal(FlatHashMap& other) noexcept {
    slots_ = std::exchange(other.slots_, nullptr);
    meta_ = std::exchange(other.meta_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    mask_ = std::exchange(other.mask_, 0);
    size_ = std::exchange(other.size_, 0);
  }

  Entry* slots_ = nullptr;
  std::uint8_t* meta_ = nullptr;  // 0 = empty, d = probe distance + 1
  std::size_t capacity_ = 0;      // power of two, or 0 before first insert
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Structure-of-arrays flat hash map from 64-bit keys to 32-bit values —
/// the residency index of the cache arena, where tens of millions of
/// entries make per-slot bytes the figure of merit. Same robin-hood
/// probing, power-of-two capacity, and backward-shift deletion as
/// FlatHashMap, but keys, values, and metadata live in three parallel
/// arrays: 13 bytes per slot instead of sizeof(Entry) + 1 = 17 (the
/// {u64, u32} Entry pads to 16).
///
/// MAINTENANCE: the probing core (find_index / robin_place / erase_at /
/// grow-retry carry contract, load-factor and kMaxProbe constants) is a
/// deliberate storage-layout fork of FlatHashMap's above — a fix to those
/// invariants in either class must be mirrored in the other.
class FlatIndexMap {
 public:
  FlatIndexMap() = default;

  ~FlatIndexMap() { deallocate(); }

  FlatIndexMap(FlatIndexMap&& other) noexcept { steal(other); }

  FlatIndexMap& operator=(FlatIndexMap&& other) noexcept {
    if (this != &other) {
      deallocate();
      steal(other);
    }
    return *this;
  }

  FlatIndexMap(const FlatIndexMap&) = delete;
  FlatIndexMap& operator=(const FlatIndexMap&) = delete;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::uint32_t* find(std::uint64_t key) noexcept {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &values_[idx];
  }
  const std::uint32_t* find(std::uint64_t key) const noexcept {
    const std::size_t idx = find_index(key);
    return idx == kNotFound ? nullptr : &values_[idx];
  }

  bool contains(std::uint64_t key) const noexcept {
    return find_index(key) != kNotFound;
  }

  /// Returns the value slot for `key`, inserting 0 first if absent.
  std::uint32_t& operator[](std::uint64_t key) {
    if (std::uint32_t* v = find(key)) return *v;
    return *insert_new(key, 0);
  }

  /// Removes `key`. Returns false when absent.
  bool erase(std::uint64_t key) {
    const std::size_t idx = find_index(key);
    if (idx == kNotFound) return false;
    erase_at(idx);
    return true;
  }

  /// Ensures `n` entries fit without further rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > capacity_) rehash_to(cap);
  }

  /// Visits every (key, value) entry. Iteration order is an implementation
  /// detail (deterministic for a given operation sequence); callers that
  /// need a canonical order sort. Used by the audit walkers to cross-check
  /// index entries against the slabs they point into.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (meta_[i] != 0) fn(keys_[i], values_[i]);
    }
  }

  /// Deep-invariant walk (util/audit.hpp): probe-distance agreement,
  /// backward-shift monotonicity, occupancy vs size().
  void audit(AuditReport& report) const {
    AuditScope scope(report, "FlatIndexMap");
    detail::audit_robin_hood(
        meta_, capacity_, mask_, size_, kMaxProbe,
        [this](std::size_t i) { return keys_[i]; }, report);
  }

 private:
  friend struct AuditPeer;  // corruption-injection tests only
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;
  static constexpr std::uint32_t kMaxProbe = 254;

  std::size_t find_index(std::uint64_t key) const noexcept {
    if (size_ == 0) return kNotFound;
    std::size_t idx = mix_u64(key) & mask_;
    std::uint32_t dist = 1;
    while (meta_[idx] >= dist) {
      if (keys_[idx] == key) return idx;
      idx = (idx + 1) & mask_;
      ++dist;
    }
    return kNotFound;
  }

  /// Robin-hood placement over the parallel arrays; same contract as
  /// FlatHashMap::robin_place (nullptr = probe-distance overflow, caller
  /// grows and retries with the leftover carry).
  std::uint32_t* robin_place(std::uint64_t& carry_key,
                             std::uint32_t& carry_value) {
    std::size_t idx = mix_u64(carry_key) & mask_;
    std::uint32_t dist = 1;
    std::uint32_t* placed = nullptr;
    for (;;) {
      if (dist > kMaxProbe) return nullptr;
      if (meta_[idx] == 0) {
        keys_[idx] = carry_key;
        values_[idx] = carry_value;
        meta_[idx] = static_cast<std::uint8_t>(dist);
        return placed ? placed : &values_[idx];
      }
      if (meta_[idx] < dist) {
        std::swap(carry_key, keys_[idx]);
        std::swap(carry_value, values_[idx]);
        const std::uint8_t displaced = meta_[idx];
        meta_[idx] = static_cast<std::uint8_t>(dist);
        dist = displaced;
        if (!placed) placed = &values_[idx];
      }
      idx = (idx + 1) & mask_;
      ++dist;
    }
  }

  std::uint32_t* insert_new(std::uint64_t key, std::uint32_t value) {
    if (capacity_ == 0 ||
        (size_ + 1) * kMaxLoadDen > capacity_ * kMaxLoadNum) {
      rehash_to(capacity_ ? capacity_ * 2 : kMinCapacity);
    }
    std::uint64_t carry_key = key;
    std::uint32_t carry_value = value;
    std::uint32_t* placed = robin_place(carry_key, carry_value);
    while (placed == nullptr) {
      rehash_to(capacity_ * 2);
      if (robin_place(carry_key, carry_value)) placed = find(key);
    }
    ++size_;
    SPECPF_DCHECK(placed != nullptr);
    return placed;
  }

  void erase_at(std::size_t idx) {
    std::size_t cur = idx;
    for (;;) {
      const std::size_t next = (cur + 1) & mask_;
      if (meta_[next] <= 1) break;
      keys_[cur] = keys_[next];
      values_[cur] = values_[next];
      meta_[cur] = static_cast<std::uint8_t>(meta_[next] - 1);
      cur = next;
    }
    meta_[cur] = 0;
    --size_;
  }

  void rehash_to(std::size_t new_capacity) {
    std::uint64_t* old_keys = keys_;
    std::uint32_t* old_values = values_;
    std::uint8_t* old_meta = meta_;
    const std::size_t old_capacity = capacity_;

    keys_ = new std::uint64_t[new_capacity];
    values_ = new std::uint32_t[new_capacity];
    meta_ = new std::uint8_t[new_capacity]{};
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;

    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_meta[i] == 0) continue;
      std::uint64_t key = old_keys[i];
      std::uint32_t value = old_values[i];
      [[maybe_unused]] std::uint32_t* replaced = robin_place(key, value);
      SPECPF_DCHECK(replaced != nullptr);
    }
    delete[] old_keys;
    delete[] old_values;
    delete[] old_meta;
  }

  void deallocate() {
    delete[] keys_;
    delete[] values_;
    delete[] meta_;
    keys_ = nullptr;
    values_ = nullptr;
    meta_ = nullptr;
    capacity_ = 0;
    mask_ = 0;
    size_ = 0;
  }

  void steal(FlatIndexMap& other) noexcept {
    keys_ = std::exchange(other.keys_, nullptr);
    values_ = std::exchange(other.values_, nullptr);
    meta_ = std::exchange(other.meta_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    mask_ = std::exchange(other.mask_, 0);
    size_ = std::exchange(other.size_, 0);
  }

  std::uint64_t* keys_ = nullptr;
  std::uint32_t* values_ = nullptr;
  std::uint8_t* meta_ = nullptr;  // 0 = empty, d = probe distance + 1
  std::size_t capacity_ = 0;      // power of two, or 0 before first insert
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Flat hash set of 64-bit keys, built on FlatHashMap.
class FlatHashSet {
 public:
  /// Returns true when the key was newly added.
  bool insert(std::uint64_t key) {
    bool added = false;
    map_.get_or_insert(key, &added);
    return added;
  }
  bool contains(std::uint64_t key) const { return map_.contains(key); }
  bool erase(std::uint64_t key) { return map_.erase(key); }
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

 private:
  struct Unit {};
  FlatHashMap<Unit> map_;
};

}  // namespace specpf
