// CacheArena — per-user fixed blocks for a million user caches.
//
// A heap-allocated cache object per user, built on list and hash-map nodes,
// would let per-user node soup dominate RSS and constructor time at the
// million-user scale of the ROADMAP sweeps. The arenas keep one flat array
// per fleet instead: user u owns the fixed block of `capacity` packed
// entries starting at u * capacity, plus a few bytes of per-user view
// (chain ends, CLOCK hand, resident count).
//
//   * The §4 tagged protocol never erases, and eviction reuses the victim's
//     slot in place, so a block's occupied slots are always the prefix
//     [0, size). Residency is a scan of that prefix — no hash index and
//     zero index bytes per entry.
//   * LRU/FIFO thread 12-byte nodes into a per-user chain with u16 local
//     links; LFU keeps one chain in flattened frequency-bucket order; CLOCK
//     and random replacement index their block directly.
//   * Slots are u16 with 0xFFFF as the null link, so a block holds at most
//     kMaxCacheCapacity entries. The fleet reserves capacity × entry bytes
//     per user up front, whether or not the user ever fills the block.
//
// Each policy arena reproduces the eviction decisions of the node-based
// reference caches in tests/reference/cache/ bit for bit (same victims,
// same tags, same RNG draws for the random policy);
// tests/cache_plane_test.cpp pins that equivalence, and the golden
// digests in tests/sim_trace_replay_test.cpp pin the full stack.
//
// Eviction policy is a compile-time template parameter of the plane built
// on top of these arenas (cache/cache_plane.hpp), dispatched once per run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_types.hpp"
#include "util/audit.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace specpf::arena {

using core::EntryTag;

/// Slot index local to one user's block.
using SlotIndex = std::uint16_t;
inline constexpr SlotIndex kNullSlot = 0xFFFF;

/// Largest per-user capacity the arenas hold: every slot index must differ
/// from kNullSlot.
inline constexpr std::size_t kMaxCacheCapacity = kNullSlot - 1;

// ---------------------------------------------------------------------------
// Shared skeleton: per-user blocks, occupied-prefix residency, audit walks
// ---------------------------------------------------------------------------

/// A fleet of per-user blocks of `capacity` `Entry`s plus one `View` per
/// user. `Entry` carries a 32-bit `item` and a `tag`; `View` carries the
/// occupied-prefix length `size`. The chain helpers additionally need
/// `prev`/`next` links on `Entry` and `head`/`tail` on `View`; they are
/// instantiated only by the arenas that chain their entries.
template <typename Entry, typename View>
class BlockArena {
 public:
  BlockArena(std::size_t num_users, std::size_t capacity,
             std::uint64_t /*seed*/ = 0)
      : capacity_(static_cast<SlotIndex>(capacity)), users_(num_users) {
    SPECPF_EXPECTS(capacity >= 1);
    SPECPF_EXPECTS(capacity <= kMaxCacheCapacity);
    nodes_.resize(num_users * capacity);
  }

  bool contains(std::uint32_t user, ItemId item) const {
    return find_slot(user, item) != kNullSlot;
  }

  bool set_tag(std::uint32_t user, ItemId item, EntryTag tag) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return false;
    node(user, slot).tag = tag;
    return true;
  }

  std::uint32_t size(std::uint32_t user) const { return users_[user].size; }

 protected:
  friend struct specpf::AuditPeer;  // corruption-injection tests only

  std::size_t base(std::uint32_t user) const {
    return static_cast<std::size_t>(user) * capacity_;
  }
  Entry& node(std::uint32_t user, SlotIndex slot) {
    return nodes_[base(user) + slot];
  }
  const Entry& node(std::uint32_t user, SlotIndex slot) const {
    return nodes_[base(user) + slot];
  }

  /// Residency: a scan of the block's occupied prefix.
  SlotIndex find_slot(std::uint32_t user, ItemId item) const {
    SPECPF_DCHECK((item >> 32) == 0);
    const auto item32 = static_cast<std::uint32_t>(item);
    const Entry* block = &nodes_[base(user)];
    const SlotIndex live = users_[user].size;
    for (SlotIndex i = 0; i < live; ++i) {
      if (block[i].item == item32) return i;
    }
    return kNullSlot;
  }

  void unlink(std::uint32_t user, View& u, SlotIndex slot) {
    Entry& n = node(user, slot);
    if (n.prev != kNullSlot) node(user, n.prev).next = n.next;
    if (n.next != kNullSlot) node(user, n.next).prev = n.prev;
    if (u.head == slot) u.head = n.next;
    if (u.tail == slot) u.tail = n.prev;
    n.prev = n.next = kNullSlot;
  }

  void push_front(std::uint32_t user, View& u, SlotIndex slot) {
    Entry& n = node(user, slot);
    n.prev = kNullSlot;
    n.next = u.head;
    if (u.head != kNullSlot) node(user, u.head).prev = slot;
    u.head = slot;
    if (u.tail == kNullSlot) u.tail = slot;
  }

  void push_back(std::uint32_t user, View& u, SlotIndex slot) {
    Entry& n = node(user, slot);
    n.next = kNullSlot;
    n.prev = u.tail;
    if (u.tail != kNullSlot) node(user, u.tail).next = slot;
    u.tail = slot;
    if (u.head == kNullSlot) u.head = slot;
  }

  /// Occupied-prefix audit shared by every arena: each user's size stays
  /// within capacity, then `check_user(user, who)` walks the policy's own
  /// per-user structure.
  template <typename CheckUser>
  void audit_users(AuditReport& report, CheckUser&& check_user) const {
    for (std::uint32_t user = 0; user < users_.size(); ++user) {
      const std::string who = "user " + std::to_string(user);
      report.check(users_[user].size <= capacity_, who + " exceeds capacity");
      check_user(user, who);
    }
  }

  /// Chain audit of the linked arenas: each user's chain covers exactly
  /// the occupied prefix [0, size), with intact back-links, no revisited
  /// slot and the tail at its end. `check_link(user, prev, slot, who)`
  /// adds the policy's ordering invariant between neighbours.
  template <typename CheckLink>
  void audit_chains(AuditReport& report, CheckLink&& check_link) const {
    std::vector<bool> visited;
    audit_users(report, [&](std::uint32_t user, const std::string& who) {
      const View& u = users_[user];
      visited.assign(capacity_, false);
      SlotIndex prev = kNullSlot;
      SlotIndex slot = u.head;
      std::uint32_t steps = 0;
      while (slot != kNullSlot) {
        if (!report.check(slot < u.size && slot < capacity_,
                          who + ": chain slot " + std::to_string(slot) +
                              " outside the occupied prefix")) {
          break;
        }
        if (!report.check(!visited[slot], who + ": chain revisits slot " +
                                              std::to_string(slot) +
                                              " (cycle)")) {
          break;
        }
        visited[slot] = true;
        const Entry& n = node(user, slot);
        report.check(n.prev == prev, who + ": broken prev link at slot " +
                                         std::to_string(slot));
        check_link(user, prev, slot, who);
        prev = slot;
        slot = n.next;
        ++steps;
      }
      report.check(steps == u.size,
                   who + ": chain walk found " + std::to_string(steps) +
                       " nodes, size() says " + std::to_string(u.size));
      report.check(u.tail == prev, who + ": tail disagrees with chain walk");
    });
  }

  SlotIndex capacity_;
  std::vector<Entry> nodes_;
  std::vector<View> users_;
};

/// Per-user view of a chained block.
struct ChainView {
  SlotIndex head = kNullSlot;
  SlotIndex tail = kNullSlot;
  SlotIndex size = 0;
};

// ---------------------------------------------------------------------------
// LRU and FIFO: 12-byte nodes in one per-user chain
// ---------------------------------------------------------------------------

struct ListNode {  // 12 bytes
  std::uint32_t item = 0;
  SlotIndex prev = kNullSlot;
  SlotIndex next = kNullSlot;
  EntryTag tag = EntryTag::kUntagged;
};

/// LRU: lookups and re-inserts splice the node to the chain head; the
/// victim is the chain tail.
class LruArena : public BlockArena<ListNode, ChainView> {
 public:
  using BlockArena::BlockArena;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    move_to_front(user, slot);
    return node(user, slot).tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    ChainView& u = users_[user];
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;
      move_to_front(user, slot);
      return;
    }
    SlotIndex slot;
    if (u.size >= capacity_) {
      slot = u.tail;  // victim's slot is reused in place
      const ListNode victim = node(user, slot);
      unlink(user, u, slot);
      --u.size;
      on_evict(static_cast<ItemId>(victim.item), victim.tag);
    } else {
      slot = u.size;  // occupied prefix grows
    }
    node(user, slot) = ListNode{static_cast<std::uint32_t>(item), kNullSlot,
                                kNullSlot, tag};
    push_front(user, u, slot);
    ++u.size;
  }

  void audit(AuditReport& report) const {
    const AuditScope scope(report, "LruArena");
    audit_chains(report, [](auto&&...) {});
  }

 private:
  void move_to_front(std::uint32_t user, SlotIndex slot) {
    ChainView& u = users_[user];
    if (u.head == slot) return;
    unlink(user, u, slot);
    push_front(user, u, slot);
  }
};

/// FIFO: eviction order fixed at insertion (chain head is the oldest
/// entry); lookups and tag refreshes never move a node.
class FifoArena : public BlockArena<ListNode, ChainView> {
 public:
  using BlockArena::BlockArena;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    return node(user, slot).tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    ChainView& u = users_[user];
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;  // tag refresh only; position unchanged
      return;
    }
    SlotIndex slot;
    if (u.size >= capacity_) {
      slot = u.head;  // oldest entry; its slot is reused in place
      const ListNode victim = node(user, slot);
      unlink(user, u, slot);
      --u.size;
      on_evict(static_cast<ItemId>(victim.item), victim.tag);
    } else {
      slot = u.size;
    }
    node(user, slot) = ListNode{static_cast<std::uint32_t>(item), kNullSlot,
                                kNullSlot, tag};
    push_back(user, u, slot);
    ++u.size;
  }

  void audit(AuditReport& report) const {
    const AuditScope scope(report, "FifoArena");
    audit_chains(report, [](auto&&...) {});
  }
};

// ---------------------------------------------------------------------------
// LFU: one chain per user in flattened frequency-bucket order
// ---------------------------------------------------------------------------

struct LfuNode {  // 16 bytes
  std::uint32_t item = 0;
  std::uint32_t freq = 0;
  SlotIndex prev = kNullSlot;
  SlotIndex next = kNullSlot;
  EntryTag tag = EntryTag::kUntagged;
};

/// LFU with each user's nodes carrying their frequency, threaded into ONE
/// chain kept in flattened bucket order — ascending frequency,
/// most-recently-bumped first within a frequency. That ordering makes the
/// reference LfuCache's bucket operations pure chain operations:
///   * new item (freq 1)  -> push_front (front of the freq-1 bucket),
///   * bump f -> f+1      -> reinsert before the first node with freq > f
///                           (the front of the f+1 bucket),
///   * victim             -> last node of the head's equal-frequency run
///                           (LRU within the lowest bucket).
/// Every walk stays inside the user's block.
class LfuArena : public BlockArena<LfuNode, ChainView> {
 public:
  using BlockArena::BlockArena;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    const EntryTag tag = node(user, slot).tag;
    bump(user, slot);
    return tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    ChainView& u = users_[user];
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;
      bump(user, slot);
      return;
    }
    SlotIndex slot;
    if (u.size >= capacity_) {
      slot = victim_slot(user);
      const LfuNode victim = node(user, slot);
      unlink(user, u, slot);
      --u.size;
      on_evict(static_cast<ItemId>(victim.item), victim.tag);
    } else {
      slot = u.size;
    }
    node(user, slot) = LfuNode{static_cast<std::uint32_t>(item), 1, kNullSlot,
                               kNullSlot, tag};
    push_front(user, u, slot);  // front of the freq-1 bucket
    ++u.size;
  }

  /// Chain audit plus flattened bucket order: frequencies run
  /// non-decreasing from head to tail, every resident entry touched at
  /// least once.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "LfuArena");
    audit_chains(report, [&](std::uint32_t user, SlotIndex prev,
                             SlotIndex slot, const std::string& who) {
      const std::uint32_t prev_freq =
          prev == kNullSlot ? 1 : node(user, prev).freq;
      report.check(node(user, slot).freq >= prev_freq,
                   who + ": frequencies not in flattened bucket order at "
                         "slot " +
                       std::to_string(slot));
    });
  }

 private:
  /// Last node of the head's equal-frequency run: LRU within the lowest
  /// frequency bucket.
  SlotIndex victim_slot(std::uint32_t user) const {
    const ChainView& u = users_[user];
    SPECPF_DCHECK(u.head != kNullSlot);
    SlotIndex cur = u.head;
    const std::uint32_t freq = node(user, cur).freq;
    while (node(user, cur).next != kNullSlot &&
           node(user, node(user, cur).next).freq == freq) {
      cur = node(user, cur).next;
    }
    return cur;
  }

  /// Moves `slot` from frequency f to f + 1, keeping the chain in
  /// flattened bucket order: reinsert before the first node with
  /// freq > f (i.e. at the front of the f+1 bucket).
  void bump(std::uint32_t user, SlotIndex slot) {
    ChainView& u = users_[user];
    const std::uint32_t freq = node(user, slot).freq;
    unlink(user, u, slot);
    node(user, slot).freq = freq + 1;
    SlotIndex after = u.head;
    while (after != kNullSlot && node(user, after).freq <= freq) {
      after = node(user, after).next;
    }
    if (after == kNullSlot) {
      push_back(user, u, slot);  // highest frequency: append at the tail
      return;
    }
    LfuNode& n = node(user, slot);
    LfuNode& succ = node(user, after);
    n.next = after;
    n.prev = succ.prev;
    if (succ.prev != kNullSlot) node(user, succ.prev).next = slot;
    succ.prev = slot;
    if (u.head == after) u.head = slot;
  }
};

// ---------------------------------------------------------------------------
// CLOCK: per-user frame blocks swept by a hand
// ---------------------------------------------------------------------------

struct ClockFrame {  // 8 bytes
  std::uint32_t item = 0;
  EntryTag tag = EntryTag::kUntagged;
  bool referenced = false;
  bool occupied = false;
};

struct ClockView {
  SlotIndex hand = 0;
  SlotIndex size = 0;
};

/// CLOCK (second chance). Occupied frames are a dense prefix, so the
/// reference ClockCache's "first unoccupied frame" scan reduces to the
/// size counter; once full, the hand sweep is identical to its sweep.
class ClockArena : public BlockArena<ClockFrame, ClockView> {
 public:
  using BlockArena::BlockArena;

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    node(user, slot).referenced = true;
    return node(user, slot).tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;
      node(user, slot).referenced = true;
      return;
    }
    ClockView& u = users_[user];
    SlotIndex frame;
    if (u.size < capacity_) {
      frame = u.size;  // dense prefix: the first unoccupied frame
    } else {
      // Sweep, clearing reference bits, until an unreferenced frame —
      // terminates within two passes.
      for (;;) {
        ClockFrame& f = node(user, u.hand);
        const SlotIndex cur = u.hand;
        u.hand = static_cast<SlotIndex>((u.hand + 1) % capacity_);
        if (!f.referenced) {
          frame = cur;
          break;
        }
        f.referenced = false;
      }
    }
    ClockFrame& f = node(user, frame);
    if (f.occupied) {
      --u.size;
      on_evict(static_cast<ItemId>(f.item), f.tag);
    }
    f = ClockFrame{static_cast<std::uint32_t>(item), tag, /*referenced=*/true,
                   /*occupied=*/true};
    ++u.size;
  }

  /// Occupied frames form a dense prefix of each block; the hand stays in
  /// range.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "ClockArena");
    audit_users(report, [&](std::uint32_t user, const std::string& who) {
      const ClockView& u = users_[user];
      report.check(u.hand < capacity_, who + " hand out of range");
      for (SlotIndex i = 0; i < capacity_; ++i) {
        report.check(node(user, i).occupied == (i < u.size),
                     who + ": frame " + std::to_string(i) +
                         " breaks the dense occupied prefix");
      }
    });
  }
};

// ---------------------------------------------------------------------------
// Random: per-user slot blocks, per-user RNG streams
// ---------------------------------------------------------------------------

struct RandomEntry {  // 8 bytes
  std::uint32_t item = 0;
  EntryTag tag = EntryTag::kUntagged;
};

struct RandomView {
  SlotIndex size = 0;
};

/// Random replacement with swap-with-last removal and one Xoshiro stream
/// per user, seeded as root.substream(100 + user), so victim draws are
/// bit-identical to a fleet of reference RandomCaches.
class RandomArena : public BlockArena<RandomEntry, RandomView> {
 public:
  RandomArena(std::size_t num_users, std::size_t capacity, std::uint64_t seed)
      : BlockArena(num_users, capacity) {
    const Rng root(seed);
    rngs_.reserve(num_users);
    for (std::size_t u = 0; u < num_users; ++u) {
      rngs_.emplace_back(root.substream(100 + u).next_u64());
    }
  }

  std::optional<EntryTag> lookup(std::uint32_t user, ItemId item) {
    const SlotIndex slot = find_slot(user, item);
    if (slot == kNullSlot) return std::nullopt;
    return node(user, slot).tag;
  }

  template <typename OnEvict>
  void insert(std::uint32_t user, ItemId item, EntryTag tag,
              OnEvict&& on_evict) {
    if (const SlotIndex slot = find_slot(user, item); slot != kNullSlot) {
      node(user, slot).tag = tag;
      return;
    }
    RandomView& u = users_[user];
    if (u.size >= capacity_) {
      const auto pos = static_cast<SlotIndex>(rngs_[user].next_below(u.size));
      const RandomEntry victim = node(user, pos);
      if (pos != u.size - 1) {  // swap-with-last removal
        node(user, pos) = node(user, static_cast<SlotIndex>(u.size - 1));
      }
      --u.size;
      on_evict(static_cast<ItemId>(victim.item), victim.tag);
    }
    node(user, u.size) = RandomEntry{static_cast<std::uint32_t>(item), tag};
    ++u.size;
  }

  /// Sizes within capacity and one RNG stream per user.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "RandomArena");
    report.check(rngs_.size() == users_.size(),
                 "RNG stream count != user count");
    audit_users(report, [](auto&&...) {});
  }

 private:
  std::vector<Rng> rngs_;
};

}  // namespace specpf::arena
