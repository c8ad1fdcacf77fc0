// Deterministic discrete-event simulation core — zero-allocation engine.
//
// Events are closures ordered by (time, insertion sequence); the sequence
// tie-break makes runs bit-reproducible regardless of how many events share a
// timestamp.
//
// Engine layout:
//   * Actions are InlineFunction — small-buffer-optimized closures stored
//     inline in the event node; scheduling never heap-allocates.
//   * One-shot event nodes live in a slab of stable chunks; slots are
//     recycled through a free list as soon as their event fires.
//   * The ready queue is a 4-ary min-heap of {time, seq, slot} entries —
//     shallower than a binary heap and comparisons never touch the slab, so
//     sifts stay in a few cache lines.
//   * A pending instant that moves (a PS link's next completion) is a
//     re-armable timer rather than an event: arming only rewrites the
//     timer's key, so nothing is ever removed from the heap early. Each pop
//     takes the earliest of the heap top, the sorted bulk-load run and the
//     armed timers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "des/inline_function.hpp"
#include "util/audit.hpp"
#include "util/cache_aligned.hpp"

namespace specpf {

class Simulator {
 public:
  using Action = InlineFunction<void(), 48>;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (seconds).
  double now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `when` (>= now).
  void schedule_at(double when, Action action);

  /// Schedules `action` after a non-negative delay.
  void schedule_in(double delay, Action action);

  /// Handle of a re-armable timer (see add_timer).
  using TimerId = std::uint32_t;

  /// Registers a timer that runs `action` each time it fires. Timers start
  /// disarmed and live as long as the engine; their storage is stable, so
  /// a timer may be added from inside a running event. Meant for a few
  /// long-lived instants that keep moving (one per link): every pop scans
  /// the armed timers.
  TimerId add_timer(Action action);

  /// Arms timer `id` to fire at absolute time `when` (>= now), replacing
  /// any earlier arming. The timer draws a fresh insertion sequence from
  /// the counter schedule_at uses, so it fires exactly where an event
  /// scheduled now would. A fired timer is disarmed before its action
  /// runs; the action may arm it again.
  void arm_timer(TimerId id, double when);

  /// Disarms timer `id`; no-op when it is not armed.
  void disarm_timer(TimerId id);

  /// True while timer `id` is armed.
  bool timer_armed(TimerId id) const {
    SPECPF_EXPECTS(id < timers_.size());
    return timers_[id].armed;
  }

  /// Executes the next event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or the clock passes `end_time`. Events at
  /// exactly `end_time` are executed.
  void run_until(double end_time);

  /// Runs until the queue drains.
  void run();

  /// Timestamp of the earliest pending event or armed timer, or +infinity
  /// when nothing is pending. This is the epoch hook the sharded driver uses
  /// to size conservative synchronization windows (epoch = earliest event +
  /// lookahead) and to fast-forward through idle gaps.
  double next_event_time();

  /// Number of events and timer firings executed so far.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Events plus armed timers currently pending.
  std::size_t pending() const noexcept {
    return queued() + armed_timers_;
  }

  /// Turns on freed-slot poisoning (0xDD fill of the action storage) for
  /// subsequent slot traffic. On by default in SPECPF_AUDIT builds; tests
  /// call this to exercise the poison check in any build. Slots freed
  /// before the call are left unpoisoned — audit() only checks slots freed
  /// while the mode was on.
  void enable_audit_mode();

  /// Deep-invariant walker (util/audit.hpp): free-list acyclicity and
  /// bounds, freed slots disarmed + poison intact, queued entries naming
  /// valid unique armed slots, the 4-ary heap property over the ordered
  /// prefix, the sorted run descending, queued times and armed timers
  /// >= now(), the armed-timer count, and slab conservation (free + queued
  /// == slab size).
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // One cache line per node: the inline action plus the free-list link. A
  // node is "armed" exactly when its action is non-empty (schedule_at
  // rejects empty actions), so no separate flag is needed.
  struct alignas(kCacheLineBytes) Node {
    Action action;
    std::uint32_t next_free = kNoSlot;
  };
  static_assert(sizeof(Node) == kCacheLineBytes,
                "a slab node must stay exactly one cache line: the pop path "
                "prefetches a single line and release_slot touches the tail "
                "fields");
  // Heap entries carry the full ordering key so comparisons never touch the
  // slab: `tie` packs (seq << kSlotBits) | slot. Seq dominates the compare;
  // the slot bits only ever break a tie between entries with equal seq,
  // which cannot happen. A timer's key has the same shape with its TimerId
  // in the slot bits.
  struct HeapEntry {
    double time;
    std::uint64_t tie;
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(tie & (kMaxSlots - 1));
    }
    bool before(const HeapEntry& other) const {
      if (time != other.time) return time < other.time;
      return tie < other.tie;
    }
  };

  static constexpr std::size_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;  // concurrent
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  static constexpr std::size_t kChunkShift = 12;  // 4096 nodes per slab chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  // The heap root lives at physical index 3 so that every 4-entry child
  // group (children of i are at 4i-8 .. 4i-5; parent of j is (j+8)/4) starts
  // on a 64-byte boundary: one cache line per sift level instead of two.
  static constexpr std::size_t kHeapBase = 3;

  /// Freed-slot fill byte in audit mode: all-0xDD action storage marks a
  /// slot nobody should be writing through.
  static constexpr unsigned char kPoisonByte = 0xDD;

  Node& node_at(std::uint32_t slot) {
    return *(reinterpret_cast<Node*>(chunks_[slot >> kChunkShift].get()) +
             (slot & (kChunkSize - 1)));
  }
  const Node& node_at(std::uint32_t slot) const {
    return *(reinterpret_cast<const Node*>(
                 chunks_[slot >> kChunkShift].get()) +
             (slot & (kChunkSize - 1)));
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t pos);
  void heap_remove_top();
  void sift_down(std::size_t hole, HeapEntry value);
  void floyd_heapify();
  /// Restores the heap invariant over entries appended since the last pop.
  /// schedule_at only appends; ordering is established here, in bulk when
  /// the batch is large (Floyd heapify is O(n) and streams sequentially,
  /// far cheaper than n individual sift-ups on a cold heap).
  void flush_batch();
  void renumber_seqs();
  /// Entries in the heap and the sorted run.
  std::size_t queued() const noexcept {
    return heap_.size() - kHeapBase + sorted_run_.size();
  }
  enum class Source : std::uint8_t { kHeap, kRun, kTimer };
  /// Finds the earliest pending instant across the heap, the sorted run and
  /// the armed timers. Returns false when nothing is pending; otherwise
  /// fills `top` and where it lives (for a timer, top->slot() is its id).
  /// Shared by run_next and next_event_time so the epoch driver's view of
  /// "next event" can never diverge from what pops.
  bool peek_top(HeapEntry* top, Source* source) const;
  /// Executes the earliest runnable event with time <= limit. Returns false
  /// if the heap drains or only later events remain.
  bool run_next(double limit);

  struct ChunkDeleter {
    void operator()(std::byte* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kCacheLineBytes});
    }
  };
  using ChunkPtr = std::unique_ptr<std::byte[], ChunkDeleter>;

  // Slab chunks have stable addresses: growing the slab never moves nodes,
  // so no per-node relocation cost and references stay valid across
  // schedule calls. Chunks are raw storage; a Node is placement-constructed
  // the first time its slot is handed out (so allocating a chunk costs no
  // construction sweep) and destroyed in ~Simulator.
  std::vector<ChunkPtr> chunks_;
  std::size_t slab_size_ = 0;
  // Physical layout: [0, kHeapBase) are never-read dummies; the root is at
  // kHeapBase. 64-byte-aligned storage keeps child groups line-aligned.
  std::vector<HeapEntry, CacheAlignedAllocator<HeapEntry>> heap_ =
      std::vector<HeapEntry, CacheAlignedAllocator<HeapEntry>>(kHeapBase);
  // Entries [kHeapBase, heapified_) satisfy the heap invariant; entries
  // beyond are an unordered appended batch awaiting flush_batch().
  std::size_t heapified_ = kHeapBase;
  // Second tier: when a large batch is scheduled while nothing else is
  // queued (bulk loads: trace replay, pre-seeded scenarios), the batch is
  // sorted descending once and popped O(1) from the back instead of paying
  // a full-depth sift per pop. The earliest event is always the smaller of
  // sorted_run_.back() and the heap top, so ordering semantics are
  // identical; events scheduled afterwards go through the heap.
  std::vector<HeapEntry, CacheAlignedAllocator<HeapEntry>> sorted_run_;
  std::uint32_t free_head_ = kNoSlot;
  // Re-armable timers, in a flat array that peek_top scans on every pop.
  // Each action has its own allocation, so a firing action keeps its
  // address while it registers another timer (which may grow the array).
  struct Timer {
    HeapEntry key{};  // valid while armed
    bool armed = false;
    std::unique_ptr<Action> action;
  };
  std::vector<Timer> timers_;
  std::size_t armed_timers_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Audit-mode state (see enable_audit_mode): poison freed action storage
  // so audit() can catch a write into a slot nobody owns. The vector grows
  // lazily on the first release with the mode on.
  bool audit_mode_ = kAuditBuild;
  std::vector<std::uint8_t> poisoned_;  // freed with poison applied
};

}  // namespace specpf
