#include "des/simulator.hpp"

#include <algorithm>
#include <limits>

#include "util/contract.hpp"

namespace specpf {

namespace {
constexpr std::size_t kHeapArity = 4;
// Minimum bulk-load batch worth sorting into the O(1)-pop second tier.
constexpr std::size_t kSortedRunMin = 1024;
}  // namespace

Simulator::~Simulator() {
  for (std::size_t slot = 0; slot < slab_size_; ++slot) {
    node_at(static_cast<std::uint32_t>(slot)).~Node();
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = node_at(slot).next_free;
    if (slot < poisoned_.size()) poisoned_[slot] = 0;  // live again
    return slot;
  }
  SPECPF_ASSERT(slab_size_ < kMaxSlots);
  if (slab_size_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(ChunkPtr(static_cast<std::byte*>(::operator new[](
        kChunkSize * sizeof(Node), std::align_val_t{kCacheLineBytes}))));
  }
  const auto slot = static_cast<std::uint32_t>(slab_size_++);
  ::new (&node_at(slot)) Node();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Node& node = node_at(slot);
  node.next_free = free_head_;
  free_head_ = slot;
  if (audit_mode_) {
    if (poisoned_.size() < slab_size_) poisoned_.resize(slab_size_, 0);
    node.action.poison_storage(kPoisonByte);  // empty: only buf_ touched
    poisoned_[slot] = 1;
  }
}

void Simulator::enable_audit_mode() { audit_mode_ = true; }

void Simulator::audit(AuditReport& report) const {
  const AuditScope scope(report, "Simulator");
  // 0 = unseen, 1 = on the free list, 2 = named by a pending entry.
  std::vector<std::uint8_t> state(slab_size_, 0);
  std::size_t free_count = 0;
  for (std::uint32_t slot = free_head_; slot != kNoSlot;
       slot = node_at(slot).next_free) {
    if (!report.check(slot < slab_size_,
                      "free list points past the slab (slot " +
                          std::to_string(slot) + ")")) {
      break;
    }
    if (!report.check(state[slot] == 0, "free list revisits slot " +
                                            std::to_string(slot) +
                                            " (cycle)")) {
      break;
    }
    state[slot] = 1;
    ++free_count;
    const Node& node = node_at(slot);
    report.check(!node.action,
                 "freed slot " + std::to_string(slot) + " still armed");
    if (slot < poisoned_.size() && poisoned_[slot]) {
      report.check(node.action.storage_is(kPoisonByte),
                   "freed slot " + std::to_string(slot) +
                       " poison overwritten (write after release?)");
    }
  }
  // Queued entries across both tiers: valid unique armed slots, times no
  // earlier than the clock.
  auto check_entry = [&](const HeapEntry& entry, const char* tier) {
    const std::uint32_t slot = entry.slot();
    if (!report.check(slot < slab_size_, std::string(tier) +
                                             " entry names slot " +
                                             std::to_string(slot) +
                                             " past the slab")) {
      return;
    }
    if (!report.check(state[slot] == 0,
                      std::string(tier) + " entry slot " +
                          std::to_string(slot) +
                          " is on the free list or pending twice")) {
      return;
    }
    state[slot] = 2;
    report.check(static_cast<bool>(node_at(slot).action),
                 std::string(tier) + " slot " + std::to_string(slot) +
                     " is disarmed (lost action)");
    report.check(entry.time >= now_, std::string(tier) + " entry at slot " +
                                         std::to_string(slot) +
                                         " is scheduled in the past");
  };
  for (std::size_t i = kHeapBase; i < heap_.size(); ++i) {
    check_entry(heap_[i], "heap");
  }
  for (const HeapEntry& entry : sorted_run_) check_entry(entry, "run");
  // Timers: every one keeps its action; an armed one carries its own id and
  // a time no earlier than the clock, and the armed count is exact.
  std::size_t armed = 0;
  for (std::size_t id = 0; id < timers_.size(); ++id) {
    const Timer& timer = timers_[id];
    report.check(timer.action && static_cast<bool>(*timer.action),
                 "timer " + std::to_string(id) + " lost its action");
    if (!timer.armed) continue;
    ++armed;
    report.check(timer.key.slot() == id,
                 "timer " + std::to_string(id) + " key names timer " +
                     std::to_string(timer.key.slot()));
    report.check(timer.key.time >= now_, "timer " + std::to_string(id) +
                                             " is armed in the past");
  }
  report.check(armed == armed_timers_,
               std::to_string(armed) + " timers armed but the count says " +
                   std::to_string(armed_timers_));
  // Structural health of the ordering tiers.
  report.check(heapified_ >= kHeapBase && heapified_ <= heap_.size(),
               "heapified_ watermark out of range");
  const std::size_t ordered = std::min(heapified_, heap_.size());
  for (std::size_t j = kHeapBase + 1; j < ordered; ++j) {
    const std::size_t parent = (j + 8) / kHeapArity;
    report.check(!heap_[j].before(heap_[parent]),
                 "4-ary heap property violated at index " +
                     std::to_string(j));
  }
  for (std::size_t i = 0; i + 1 < sorted_run_.size(); ++i) {
    report.check(sorted_run_[i + 1].before(sorted_run_[i]),
                 "sorted run not descending at index " + std::to_string(i));
  }
  // Slab conservation: every slot is free or queued, never both/neither.
  report.check(free_count + queued() == slab_size_,
               "slab conservation: " + std::to_string(free_count) +
                   " free + " + std::to_string(queued()) +
                   " queued != " + std::to_string(slab_size_) + " slots");
}

// Physical indexing (see kHeapBase): children of i are 4i-8 .. 4i-5, parent
// of j is (j+8)/4, so every child group starts on a 64-byte boundary.
void Simulator::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  std::size_t hole = pos;
  while (hole > kHeapBase) {
    const std::size_t parent = (hole + 8) / kHeapArity;
    if (!entry.before(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Simulator::sift_down(std::size_t hole, HeapEntry value) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = kHeapArity * hole - 8;
    if (first_child >= size) break;
    // Pull the next level's candidate range (the grandchildren, 16 entries =
    // 4 aligned cache lines) into cache while this level's comparisons run;
    // deep sifts are memory-latency-bound, not comparison-bound.
    const std::size_t grandchild = kHeapArity * first_child - 8;
    if (grandchild < size) {
      const char* base = reinterpret_cast<const char*>(&heap_[grandchild]);
      __builtin_prefetch(base);
      __builtin_prefetch(base + 64);
      __builtin_prefetch(base + 128);
      __builtin_prefetch(base + 192);
    }
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + kHeapArity, size);
    for (std::size_t child = first_child + 1; child < end; ++child) {
      if (heap_[child].before(heap_[best])) best = child;
    }
    if (!heap_[best].before(value)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = value;
}

void Simulator::heap_remove_top() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  heapified_ = heap_.size();  // only called with no batch pending
  if (heap_.size() > kHeapBase) sift_down(kHeapBase, last);
}

void Simulator::floyd_heapify() {
  const std::size_t size = heap_.size();
  for (std::size_t i = (size + 7) / kHeapArity + 1; i-- > kHeapBase;) {
    sift_down(i, heap_[i]);
  }
  heapified_ = size;
}

void Simulator::flush_batch() {
  const std::size_t size = heap_.size();
  if (heapified_ == size) return;
  const std::size_t batch = size - heapified_;
  // Bulk load with nothing else queued: sort once, pop O(1) thereafter.
  if (batch >= kSortedRunMin && heapified_ == kHeapBase &&
      sorted_run_.empty()) {
    sorted_run_.assign(heap_.begin() + kHeapBase, heap_.end());
    std::sort(sorted_run_.begin(), sorted_run_.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                return b.before(a);  // descending; min at the back
              });
    heap_.resize(kHeapBase);
    return;
  }
  // Bulk-rebuild when the batch rivals the ordered part; otherwise insert
  // the stragglers individually.
  if (batch > (heapified_ - kHeapBase) / 2) {
    floyd_heapify();
  } else {
    while (heapified_ < size) sift_up(heapified_++);
  }
}

// Reassigns pending seqs 0..n-1 (armed timers included) preserving relative
// order. A monotone remap leaves every heap comparison's outcome unchanged,
// so the heap structure itself needs no rebuild. Runs once per ~1.1e12
// scheduled events.
void Simulator::renumber_seqs() {
  std::vector<HeapEntry*> order;
  order.reserve(pending());
  for (std::size_t i = kHeapBase; i < heap_.size(); ++i) {
    order.push_back(&heap_[i]);
  }
  for (HeapEntry& entry : sorted_run_) order.push_back(&entry);
  for (Timer& timer : timers_) {
    if (timer.armed) order.push_back(&timer.key);
  }
  std::sort(order.begin(), order.end(),
            [](const HeapEntry* a, const HeapEntry* b) {
              return a->tie < b->tie;
            });
  std::uint64_t seq = 0;
  for (HeapEntry* entry : order) {
    entry->tie = (seq++ << kSlotBits) | entry->slot();
  }
  next_seq_ = seq;
}

void Simulator::schedule_at(double when, Action action) {
  SPECPF_EXPECTS(when >= now_);
  SPECPF_EXPECTS(static_cast<bool>(action));
  if (next_seq_ == kMaxSeq) renumber_seqs();
  const std::uint32_t slot = acquire_slot();
  node_at(slot).action = std::move(action);
  heap_.push_back(HeapEntry{when, (next_seq_++ << kSlotBits) | slot});
}

void Simulator::schedule_in(double delay, Action action) {
  SPECPF_EXPECTS(delay >= 0.0);
  schedule_at(now_ + delay, std::move(action));
}

Simulator::TimerId Simulator::add_timer(Action action) {
  SPECPF_EXPECTS(static_cast<bool>(action));
  SPECPF_ASSERT(timers_.size() < kMaxSlots);
  timers_.emplace_back().action = std::make_unique<Action>(std::move(action));
  return static_cast<TimerId>(timers_.size() - 1);
}

void Simulator::arm_timer(TimerId id, double when) {
  SPECPF_EXPECTS(id < timers_.size());
  SPECPF_EXPECTS(when >= now_);
  if (next_seq_ == kMaxSeq) renumber_seqs();
  Timer& timer = timers_[id];
  timer.key = HeapEntry{when, (next_seq_++ << kSlotBits) | id};
  if (!timer.armed) {
    timer.armed = true;
    ++armed_timers_;
  }
}

void Simulator::disarm_timer(TimerId id) {
  SPECPF_EXPECTS(id < timers_.size());
  Timer& timer = timers_[id];
  if (!timer.armed) return;
  timer.armed = false;
  --armed_timers_;
}

bool Simulator::run_next(double limit) {
  flush_batch();
  HeapEntry top;
  Source source;
  if (!peek_top(&top, &source) || top.time > limit) return false;
  if (source == Source::kTimer) {
    Timer& timer = timers_[top.slot()];
    timer.armed = false;
    --armed_timers_;
    now_ = top.time;
    ++executed_;
    // Called through its own cell: `timer` may dangle if the action adds
    // a timer, the action does not. It may also re-arm its own timer.
    (*timer.action)();
    return true;
  }
  const std::uint32_t slot = top.slot();
  Node& node = node_at(slot);
  // Start fetching the node's cache line now; the pop below overlaps the
  // miss so the action is already local when it is moved out.
  __builtin_prefetch(&node, /*rw=*/1);
  if (source == Source::kRun) {
    sorted_run_.pop_back();
  } else {
    heap_remove_top();
  }
  Action action = std::move(node.action);
  release_slot(slot);  // slot reusable by whatever `action` schedules
  now_ = top.time;
  ++executed_;
  action();
  return true;
}

bool Simulator::peek_top(HeapEntry* top, Source* source) const {
  bool found = false;
  if (!sorted_run_.empty()) {
    *top = sorted_run_.back();
    *source = Source::kRun;
    found = true;
  }
  if (heap_.size() > kHeapBase && (!found || heap_[kHeapBase].before(*top))) {
    *top = heap_[kHeapBase];
    *source = Source::kHeap;
    found = true;
  }
  std::size_t unseen = armed_timers_;
  for (const Timer& timer : timers_) {
    if (unseen == 0) break;
    if (!timer.armed) continue;
    --unseen;
    if (!found || timer.key.before(*top)) {
      *top = timer.key;
      *source = Source::kTimer;
      found = true;
    }
  }
  return found;
}

double Simulator::next_event_time() {
  flush_batch();
  HeapEntry top;
  Source source;
  if (!peek_top(&top, &source)) {
    return std::numeric_limits<double>::infinity();
  }
  return top.time;
}

bool Simulator::step() {
  return run_next(std::numeric_limits<double>::infinity());
}

void Simulator::run_until(double end_time) {
  SPECPF_EXPECTS(end_time >= now_);
  while (run_next(end_time)) {
  }
  now_ = end_time;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace specpf
