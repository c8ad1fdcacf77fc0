// ContextArena — the shared slab behind the SoA predictor plane.
//
// Every predictor model reduces to the same data shape: a set of *contexts*
// (the global stream, a last item, an order-k history hash, a
// dependency-graph node), each holding a count per observed *successor*.
// The reference tables (tests/reference/predict/) realise that shape as
// FlatHashMap<FlatHashMap<u64>>
// — one heap-allocated nested table per context, a pointer chase per probe
// and an allocation per new context. The arena flattens the whole fleet of
// tables into four structure-of-arrays slabs:
//
//     ctx_index_ : FlatIndexMap   context key  -> u32 context id
//     item_index_: FlatIndexMap   item value   -> u32 dense item id
//     context slab (SoA)          head / distinct / total / head block
//                                 per context (+ aux, dependency graph only)
//     successor slab (SoA)        item id / quantized count / next  (u32 links)
//     succ_index_: FlatIndexMap   (ctx id << 32 | item id) -> successor slot
//     ranked heads: top_pool_     one capacity-long block per context with
//                                 two or more successors
//
// The ranked head of a context holds its min(capacity, distinct) best
// successors, ordered by (count descending, item value ascending); the
// capacity is fixed per arena (0 disables the heads). Heads are allocated
// lazily: a context gets a block of the pool only when it gains its
// second successor, and a one-successor context's head is its chain head.
// Most contexts of a high-order model never see a second successor, so
// the pool stays a small fraction of contexts x capacity. Counts only grow
// by one per add(), so add() keeps the head exact with a bubble-up of at
// most capacity steps; halving can turn distinct counts into ties that
// reorder by item, so halve() rebuilds the head from the chain it already
// walks. Planes whose probability is strictly increasing in the count
// (Markov, frequency) read their top k straight off the head; PPM reads
// each order's head depth by depth until its blend bound settles.
//
// Successor counts are quantized saturating u16 counters: when a counter
// is about to overflow, every counter in that context is halved in place
// (rounding up, so no successor is ever forgotten) and the context total is
// recomputed — the classic aging scheme of adaptive-coding frequency
// tables. Below the saturation point the counts are exactly the reference
// tables' u64 counts, which is what lets the plane pin bit-identical
// predictions against them (tests/predict_plane_test.cpp); past it the
// plane degrades to a bounded-memory approximation instead of growing
// 8-byte counters forever.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/audit.hpp"
#include "util/contract.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

class ContextArena {
 public:
  using CtxId = std::uint32_t;
  static constexpr CtxId kNoCtx = 0xFFFFFFFFu;
  static constexpr std::uint16_t kCounterMax = 0xFFFFu;

  /// `top_capacity` is the ranked-head length per context (0: no heads,
  /// and add() pays one predictable branch for them).
  explicit ContextArena(std::size_t top_capacity = 0)
      : top_cap_(static_cast<std::uint32_t>(top_capacity)) {
    SPECPF_EXPECTS(top_capacity <= 0xFFFFu);
  }

  /// Context id for `key`, creating an empty context on first sight.
  CtxId intern(std::uint64_t key) {
    if (const std::uint32_t* id = ctx_index_.find(key)) return *id;
    const CtxId id = static_cast<CtxId>(head_.size());
    head_.push_back(kNoSucc);
    top_block_.push_back(kNoBlock);
    distinct_.push_back(0);
    total_.push_back(0);
    ctx_index_[key] = id;
    return id;
  }

  /// Context id for `key`, or kNoCtx when the context was never observed.
  CtxId find(std::uint64_t key) const {
    const std::uint32_t* id = ctx_index_.find(key);
    return id ? *id : kNoCtx;
  }

  /// Dense id for `item`, interning on first sight. Shared across every
  /// context, so PPM's k orders pay one intern per observe, not k.
  std::uint32_t intern_item(std::uint64_t item) {
    if (const std::uint32_t* id = item_index_.find(item)) return *id;
    const std::uint32_t id = static_cast<std::uint32_t>(item_value_.size());
    item_value_.push_back(item);
    item_index_[item] = id;
    return id;
  }

  /// Records one context -> item observation: bumps the successor's
  /// quantized counter (halving the context first when it would saturate)
  /// and the context total, and re-ranks the successor in the head.
  void add(CtxId ctx, std::uint32_t item_id) {
    const std::uint64_t key = succ_key(ctx, item_id);
    if (const std::uint32_t* found = succ_index_.find(key)) {
      const std::uint32_t slot = *found;
      if (succ_count_[slot] == kCounterMax) halve(ctx);
      ++succ_count_[slot];
      if (top_block_[ctx] != kNoBlock) raise_in_top(ctx, slot);
    } else {
      const std::uint32_t fresh = static_cast<std::uint32_t>(succ_item_.size());
      succ_item_.push_back(item_id);
      succ_count_.push_back(1);
      succ_next_.push_back(head_[ctx]);
      if (top_cap_ != 0 && distinct_[ctx] != 0) {
        if (distinct_[ctx] == 1) open_top(ctx);
        offer_to_top(ctx, top_len(ctx), fresh);
      }
      head_[ctx] = fresh;
      ++distinct_[ctx];
      succ_index_[key] = fresh;
    }
    ++total_[ctx];
  }

  /// Auxiliary per-context counter (the dependency graph's occurrence
  /// count); not part of the successor-total bookkeeping. Its column grows
  /// only as far as the highest bumped context, so arenas that never bump
  /// it pay no memory for it.
  void bump_aux(CtxId ctx) {
    if (ctx >= aux_.size()) aux_.resize(std::size_t{ctx} + 1, 0);
    ++aux_[ctx];
  }

  std::uint64_t total(CtxId ctx) const { return total_[ctx]; }
  std::uint64_t aux(CtxId ctx) const {
    return ctx < aux_.size() ? aux_[ctx] : 0;
  }
  std::uint32_t distinct(CtxId ctx) const { return distinct_[ctx]; }

  /// Visits every (item value, count) successor of `ctx`. Order is reverse
  /// insertion order — callers that rank candidates sort, so it never
  /// shows.
  template <typename Fn>
  void for_each_successor(CtxId ctx, Fn&& fn) const {
    for (std::uint32_t s = head_[ctx]; s != kNoSucc; s = succ_next_[s]) {
      fn(item_value_[succ_item_[s]], succ_count_[s]);
    }
  }

  /// Count of successor `item_id` in `ctx`; 0 when it never followed.
  std::uint16_t count(CtxId ctx, std::uint32_t item_id) const {
    const std::uint32_t* slot = succ_index_.find(succ_key(ctx, item_id));
    return slot ? succ_count_[*slot] : std::uint16_t{0};
  }

  std::uint64_t item_value(std::uint32_t item_id) const {
    return item_value_[item_id];
  }

  std::size_t top_capacity() const { return top_cap_; }

  /// Length of `ctx`'s ranked head: min(top_capacity(), distinct).
  std::uint32_t top_len(CtxId ctx) const {
    return std::min(top_cap_, distinct_[ctx]);
  }

  struct Ranked {
    std::uint32_t item_id;
    std::uint16_t count;
  };

  /// Entry `i` < top_len(ctx) of `ctx`'s ranked head.
  Ranked top_at(CtxId ctx, std::uint32_t i) const {
    const std::uint32_t s = head_slots(ctx)[i];
    return {succ_item_[s], succ_count_[s]};
  }

  /// Visits the first min(k, distinct) entries of `ctx`'s ranked head as
  /// (item value, count), best first: the top k successors under (count
  /// descending, item value ascending). Requires k <= top_capacity().
  template <typename Fn>
  void for_each_top(CtxId ctx, std::size_t k, Fn&& fn) const {
    SPECPF_DCHECK(k <= top_cap_);
    const std::uint32_t n = std::min(static_cast<std::uint32_t>(k),
                                     distinct_[ctx]);
    const std::uint32_t* top = head_slots(ctx);
    for (std::uint32_t i = 0; i < n; ++i) {
      fn(item_value_[succ_item_[top[i]]], succ_count_[top[i]]);
    }
  }

  std::size_t context_count() const { return head_.size(); }
  std::size_t successor_count() const { return succ_item_.size(); }
  std::size_t item_count() const { return item_value_.size(); }
  /// Contexts halved so far — the quantization events where the plane's
  /// counts stop mirroring the reference u64 tables.
  std::uint64_t halvings() const { return halvings_; }

  /// Deep-invariant walker (util/audit.hpp): slab-length agreement across
  /// the SoA columns, successor chains acyclic with every slot owned by
  /// exactly one context, per-context conservation (chain length ==
  /// distinct, sum of counts == total, counts >= 1), successor-index
  /// round-trips ((ctx, item) <-> slot both ways), lazy head blocks (one
  /// exactly when distinct >= 2, never shared, and a pool of exactly
  /// blocks x capacity entries), ranked heads (owned, unique, sorted,
  /// exactly min(capacity, distinct) long, and no off-head successor
  /// outranking the last entry), and interning round-trips for the
  /// context and item indices.
  void audit(AuditReport& report) const {
    const AuditScope scope(report, "ContextArena");
    const std::size_t ctxs = head_.size();
    report.check(distinct_.size() == ctxs && total_.size() == ctxs &&
                     aux_.size() <= ctxs,
                 "context SoA columns disagree on length");
    const std::size_t succs = succ_item_.size();
    report.check(succ_count_.size() == succs && succ_next_.size() == succs,
                 "successor SoA columns disagree on length");
    if (!report.check(top_block_.size() == ctxs,
                      "ranked-head block column length != context count")) {
      return;
    }
    report.check(ctx_index_.size() == ctxs,
                 "context index size != context count");
    report.check(succ_index_.size() == succs,
                 "successor index size != successor count");
    report.check(item_index_.size() == item_value_.size(),
                 "item index size != item count");

    // Successor chains: each slot owned by exactly one context, counts
    // conserve the context totals, and the (ctx, item) index agrees.
    std::vector<std::uint8_t> owned(succs, 0);
    std::vector<std::uint8_t> block_owned(
        top_cap_ == 0 ? 0 : top_pool_.size() / top_cap_, 0);
    std::uint64_t chained = 0;
    std::size_t blocks = 0;
    for (CtxId ctx = 0; ctx < ctxs; ++ctx) {
      const std::string who = "ctx " + std::to_string(ctx);
      std::uint64_t sum = 0;
      std::uint32_t walked = 0;
      bool sound = true;  // chain terminates and names interned items
      for (std::uint32_t s = head_[ctx]; s != kNoSucc; s = succ_next_[s]) {
        if (!report.check(s < succs, who + ": successor chain points past "
                                           "the slab")) {
          sound = false;
          break;
        }
        if (!report.check(owned[s] == 0,
                          who + ": successor slot " + std::to_string(s) +
                              " owned twice (cycle or cross-context "
                              "share)")) {
          sound = false;
          break;
        }
        owned[s] = 1;
        report.check(succ_count_[s] >= 1,
                     who + ": successor slot " + std::to_string(s) +
                         " has a zero count");
        sound &= report.check(succ_item_[s] < item_value_.size(),
                              who + ": successor slot " + std::to_string(s) +
                                  " names an uninterned item id");
        const std::uint32_t* slot =
            succ_index_.find(succ_key(ctx, succ_item_[s]));
        report.check(slot != nullptr && *slot == s,
                     who + ": successor index round-trip failed for slot " +
                         std::to_string(s));
        sum += succ_count_[s];
        ++walked;
      }
      report.check(walked == distinct_[ctx],
                   who + ": chain walk found " + std::to_string(walked) +
                       " successors, distinct() says " +
                       std::to_string(distinct_[ctx]));
      report.check(sum == total_[ctx],
                   who + ": successor counts sum to " + std::to_string(sum) +
                       " but total() says " + std::to_string(total_[ctx]));
      chained += walked;
      if (top_block_[ctx] != kNoBlock) ++blocks;
      if (audit_block(report, ctx, who, block_owned) && sound) {
        audit_top(report, ctx, who);
      }
    }
    report.check(chained == succs,
                 "successor slab conservation: " + std::to_string(chained) +
                     " slots chained, " + std::to_string(succs) +
                     " allocated (orphaned slots)");
    report.check(top_pool_.size() == blocks * top_cap_,
                 "ranked-head pool length " +
                     std::to_string(top_pool_.size()) + " != " +
                     std::to_string(blocks) + " blocks x capacity");

    // Interning round-trips: every index entry points at a slab slot that
    // agrees with it, and (for items) the slab points back into the index.
    ctx_index_.for_each([&](std::uint64_t /*key*/, std::uint32_t id) {
      report.check(id < ctxs, "context index maps to an unallocated id " +
                                  std::to_string(id));
    });
    item_index_.for_each([&](std::uint64_t item, std::uint32_t id) {
      if (report.check(id < item_value_.size(),
                       "item index maps to an unallocated id " +
                           std::to_string(id))) {
        report.check(item_value_[id] == item,
                     "item interning round-trip failed for id " +
                         std::to_string(id));
      }
    });
    ctx_index_.audit(report);
    item_index_.audit(report);
    succ_index_.audit(report);
  }

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  static constexpr std::uint32_t kNoSucc = 0xFFFFFFFFu;

  static std::uint64_t succ_key(CtxId ctx, std::uint32_t item_id) {
    return (static_cast<std::uint64_t>(ctx) << 32) | item_id;
  }

  /// Ages every counter in `ctx`: c -> ceil(c/2), so counts stay >= 1 and
  /// relative frequencies are preserved to within rounding. The total is
  /// recomputed as the exact sum of the aged counts, and the ranked head
  /// is rebuilt (aging can tie distinct counts, which then rank by item).
  void halve(CtxId ctx) {
    const bool ranked_head = top_block_[ctx] != kNoBlock;
    std::uint64_t total = 0;
    std::uint32_t ranked = 0;
    for (std::uint32_t s = head_[ctx]; s != kNoSucc; s = succ_next_[s]) {
      succ_count_[s] = static_cast<std::uint16_t>((succ_count_[s] + 1u) >> 1);
      total += succ_count_[s];
      if (ranked_head) {
        offer_to_top(ctx, ranked, s);
        ranked = std::min(ranked + 1, top_cap_);
      }
    }
    total_[ctx] = total;
    ++halvings_;
  }

  /// Head order: count descending, then item value ascending — exactly
  /// candidate_before on any probability strictly increasing in the count.
  bool outranks(std::uint32_t a, std::uint32_t b) const {
    if (succ_count_[a] != succ_count_[b]) {
      return succ_count_[a] > succ_count_[b];
    }
    return item_value_[succ_item_[a]] < item_value_[succ_item_[b]];
  }

  /// `ctx`'s head block; only contexts with two or more successors have
  /// one.
  std::uint32_t* top_of(CtxId ctx) {
    return top_pool_.data() + std::size_t{top_block_[ctx]} * top_cap_;
  }
  const std::uint32_t* top_of(CtxId ctx) const {
    return top_pool_.data() + std::size_t{top_block_[ctx]} * top_cap_;
  }

  /// `ctx`'s ranked head as successor slots: its block, or, for a
  /// one-successor context (which has none), its chain head.
  const std::uint32_t* head_slots(CtxId ctx) const {
    return top_block_[ctx] == kNoBlock ? &head_[ctx] : top_of(ctx);
  }

  /// Hands `ctx` (gaining its second successor) the next pool block, with
  /// its lone successor as entry 0.
  void open_top(CtxId ctx) {
    const std::size_t base = top_pool_.size();
    top_block_[ctx] = static_cast<std::uint32_t>(base / top_cap_);
    top_pool_.resize(base + top_cap_, kNoSucc);
    top_pool_[base] = head_[ctx];
  }

  /// Moves the head entry at `i` up past every entry it now outranks.
  void bubble_up(std::uint32_t* top, std::uint32_t i) {
    for (; i > 0 && outranks(top[i], top[i - 1]); --i) {
      std::swap(top[i], top[i - 1]);
    }
  }

  /// Offers off-head successor `slot` to a head holding `len` entries: it
  /// fills a free entry, or displaces the last one when it outranks it.
  void offer_to_top(CtxId ctx, std::uint32_t len, std::uint32_t slot) {
    std::uint32_t* top = top_of(ctx);
    if (len == top_cap_) {
      if (!outranks(slot, top[len - 1])) return;
      len = top_cap_ - 1;
    }
    top[len] = slot;
    bubble_up(top, len);
  }

  /// Re-ranks `slot` after its count grew by one. Only its rank changed,
  /// and only upward: a head entry bubbles up; an off-head successor (the
  /// head is then full) enters only by outranking the last entry. A head
  /// entry counted at least the last entry's count before the bump, so a
  /// successor still below that count is off the head and stays off.
  void raise_in_top(CtxId ctx, std::uint32_t slot) {
    std::uint32_t* top = top_of(ctx);
    const std::uint32_t len = top_len(ctx);
    if (succ_count_[slot] < succ_count_[top[len - 1]]) return;
    for (std::uint32_t i = 0; i < len; ++i) {
      if (top[i] == slot) {
        bubble_up(top, i);
        return;
      }
    }
    offer_to_top(ctx, len, slot);
  }

  /// Lazy-block invariants for one context: a block exactly when heads are
  /// on and distinct >= 2, inside the pool, and owned by no other context.
  /// Returns true when `ctx` has a block that audit_top may walk.
  bool audit_block(AuditReport& report, CtxId ctx, const std::string& who,
                   std::vector<std::uint8_t>& block_owned) const {
    const std::uint32_t b = top_block_[ctx];
    const bool wants = top_cap_ != 0 && distinct_[ctx] >= 2;
    if (b == kNoBlock) {
      report.check(!wants, who + ": two or more successors but no "
                                 "ranked-head block");
      return false;
    }
    if (!report.check(wants,
                      who + ": ranked-head block while distinct <= 1")) {
      return false;
    }
    if (!report.check(b < block_owned.size(),
                      who + ": ranked-head block " + std::to_string(b) +
                          " lies past the pool")) {
      return false;
    }
    const bool fresh = report.check(
        block_owned[b] == 0, who + ": ranked-head block " +
                                 std::to_string(b) +
                                 " shared with another context");
    block_owned[b] = 1;
    return fresh;
  }

  /// Ranked-head invariants for one context (called after its chain walk
  /// proved the chain sound). O(distinct x capacity): heads are short.
  void audit_top(AuditReport& report, CtxId ctx, const std::string& who) const {
    const std::uint32_t* top = top_of(ctx);
    const std::uint32_t len = top_len(ctx);
    for (std::uint32_t i = 0; i < top_cap_; ++i) {
      const std::uint32_t s = top[i];
      if (i >= len) {
        report.check(s == kNoSucc, who + ": ranked head holds more than "
                                         "min(capacity, distinct) entries");
        continue;
      }
      const std::uint32_t* slot =
          s < succ_item_.size() && succ_item_[s] < item_value_.size()
              ? succ_index_.find(succ_key(ctx, succ_item_[s]))
              : nullptr;
      if (!report.check(slot != nullptr && *slot == s,
                        who + ": ranked head entry " + std::to_string(i) +
                            " is not a successor of this context")) {
        return;
      }
      if (!report.check(std::find(top, top + i, s) == top + i,
                        who + ": ranked head repeats slot " +
                            std::to_string(s))) {
        return;
      }
      report.check(i == 0 || outranks(top[i - 1], s),
                   who + ": ranked head out of order at entry " +
                       std::to_string(i));
    }
    if (len == 0) return;
    for (std::uint32_t s = head_[ctx]; s != kNoSucc; s = succ_next_[s]) {
      report.check(std::find(top, top + len, s) != top + len ||
                       !outranks(s, top[len - 1]),
                   who + ": off-head successor slot " + std::to_string(s) +
                       " outranks the ranked head's last entry");
    }
  }

  FlatIndexMap ctx_index_;
  FlatIndexMap item_index_;
  FlatIndexMap succ_index_;
  std::vector<std::uint64_t> item_value_;

  // Context slab.
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> distinct_;
  std::vector<std::uint64_t> total_;
  std::vector<std::uint64_t> aux_;

  // Successor slab (u32 links; kNoSucc terminates each chain).
  std::vector<std::uint32_t> succ_item_;
  std::vector<std::uint16_t> succ_count_;
  std::vector<std::uint32_t> succ_next_;

  // Ranked heads: a context with two or more successors owns block b =
  // top_block_[c], entries top_pool_[b*top_cap_, (b+1)*top_cap_), the
  // first min(top_cap_, distinct) of them live, the rest kNoSucc. Other
  // contexts hold kNoBlock.
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
  std::uint32_t top_cap_;
  std::vector<std::uint32_t> top_block_;
  std::vector<std::uint32_t> top_pool_;

  std::uint64_t halvings_ = 0;
};

/// Fixed-window per-user history, stored as rings in one user-indexed slab
/// (replacing FlatHashMap<std::deque<u64>>): user u's window occupies slots
/// [u*window, (u+1)*window), with a one-byte head/length pair per user.
class HistoryRing {
 public:
  HistoryRing(std::size_t num_users, std::size_t window)
      : window_(window),
        items_(num_users * window),
        head_(num_users, 0),
        len_(num_users, 0) {
    SPECPF_EXPECTS(window >= 1 && window <= 255);
  }

  void push(std::uint32_t user, std::uint64_t item) {
    const std::size_t base = static_cast<std::size_t>(user) * window_;
    if (len_[user] < window_) {
      items_[base + (head_[user] + len_[user]) % window_] = item;
      ++len_[user];
    } else {
      items_[base + head_[user]] = item;
      head_[user] = static_cast<std::uint8_t>((head_[user] + 1) % window_);
    }
  }

  std::size_t size(std::uint32_t user) const { return len_[user]; }

  /// i-th item of the user's window, oldest (i = 0) to newest.
  std::uint64_t at(std::uint32_t user, std::size_t i) const {
    return items_[static_cast<std::size_t>(user) * window_ +
                  (head_[user] + i) % window_];
  }

  std::uint64_t newest(std::uint32_t user) const {
    return at(user, len_[user] - 1);
  }

 private:
  std::size_t window_;
  std::vector<std::uint64_t> items_;
  std::vector<std::uint8_t> head_;  ///< ring index of the oldest entry
  std::vector<std::uint8_t> len_;
};

}  // namespace specpf
