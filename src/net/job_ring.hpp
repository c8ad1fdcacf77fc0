// Job storage for the link servers: a FIFO ring and a slot slab, both over
// fixed-size blocks.
//
// A deep link holds ~10^5 live jobs, so growth must never copy them: a
// doubling std::vector would hold the old and the new array at once and
// move every live job across. Here a job stays in the block it was pushed
// into until it leaves; the only arrays that grow by doubling are flat
// indexes of block pointers (one pointer per kJobBlockSize jobs) and, in the
// slab, a stack of free slot numbers. Drained blocks and freed slots are
// recycled, so a link in steady state allocates nothing.
//
// Elements are default-constructed when their block is allocated and are
// moved in and out afterwards (T must be default-constructible and
// move-assignable); the moved-from husk stays in place until reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/contract.hpp"

namespace specpf {

inline constexpr std::size_t kJobBlockShift = 8;
inline constexpr std::size_t kJobBlockSize = std::size_t{1} << kJobBlockShift;

/// FIFO queue of T. Element positions are absolute counters; position p
/// lives in block p / kJobBlockSize, whose pointer sits at that block
/// number modulo the index size (a power of two), so the index is itself
/// a ring over the blocks the live span touches.
template <typename T>
class JobRing {
 public:
  JobRing() = default;
  JobRing(const JobRing&) = delete;
  JobRing& operator=(const JobRing&) = delete;

  bool empty() const noexcept { return head_ == tail_; }
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(tail_ - head_);
  }

  const T& front() const { return at(head_); }
  const T& back() const { return at(tail_ - 1); }
  /// The i-th element from the front.
  const T& operator[](std::size_t i) const { return at(head_ + i); }

  void push_back(T&& value) {
    if ((tail_ & kMask) == 0) attach_block();
    at(tail_) = std::move(value);
    ++tail_;
  }

  /// Moves the front element out and drops it from the ring.
  T pop_front() {
    SPECPF_ASSERT(!empty());
    T out = std::move(at(head_));
    ++head_;
    // The front crossed a block boundary: the block it left is drained.
    if ((head_ & kMask) == 0) {
      spare_.push_back(std::move(index_[block_slot(head_ - 1)]));
    }
    return out;
  }

 private:
  static constexpr std::uint64_t kMask = kJobBlockSize - 1;
  using Block = std::unique_ptr<T[]>;

  std::size_t block_slot(std::uint64_t pos) const noexcept {
    return static_cast<std::size_t>(pos >> kJobBlockShift) &
           (index_.size() - 1);
  }
  T& at(std::uint64_t pos) {
    return index_[block_slot(pos)][pos & kMask];
  }
  const T& at(std::uint64_t pos) const {
    return index_[block_slot(pos)][pos & kMask];
  }

  /// Installs a block for the position tail_ (which is block-aligned),
  /// widening the index first when every index slot is taken.
  void attach_block() {
    const std::uint64_t first = head_ >> kJobBlockShift;
    const std::uint64_t next = tail_ >> kJobBlockShift;
    if (next - first + 1 > index_.size()) {
      std::vector<Block> wider(index_.empty() ? 4 : 2 * index_.size());
      for (std::uint64_t b = first; b < next; ++b) {
        wider[b & (wider.size() - 1)] =
            std::move(index_[b & (index_.size() - 1)]);
      }
      index_ = std::move(wider);
    }
    Block block;
    if (spare_.empty()) {
      block = std::make_unique<T[]>(kJobBlockSize);
    } else {
      block = std::move(spare_.back());
      spare_.pop_back();
    }
    index_[block_slot(tail_)] = std::move(block);
  }

  std::vector<Block> index_;  // power-of-two size (or empty)
  std::vector<Block> spare_;  // drained blocks awaiting reuse
  std::uint64_t head_ = 0;    // position of the front element
  std::uint64_t tail_ = 0;    // one past the back element
};

/// Slot-addressed store of T for jobs that leave in no fixed order. Slots
/// are dense u32 numbers; freed ones are reused last-in first-out.
template <typename T>
class JobSlab {
 public:
  JobSlab() = default;
  JobSlab(const JobSlab&) = delete;
  JobSlab& operator=(const JobSlab&) = delete;

  /// Jobs currently stored.
  std::size_t live() const noexcept { return capacity_ - free_.size(); }
  /// Slots ever handed out (live + free).
  std::size_t capacity() const noexcept { return capacity_; }

  std::uint32_t insert(T&& value) {
    std::uint32_t slot;
    if (free_.empty()) {
      SPECPF_ASSERT(capacity_ < 0xffffffffu);
      slot = static_cast<std::uint32_t>(capacity_++);
      if ((slot & kMask) == 0) {
        blocks_.push_back(std::make_unique<T[]>(kJobBlockSize));
      }
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    (*this)[slot] = std::move(value);
    return slot;
  }

  T& operator[](std::uint32_t slot) {
    return blocks_[slot >> kJobBlockShift][slot & kMask];
  }
  const T& operator[](std::uint32_t slot) const {
    return blocks_[slot >> kJobBlockShift][slot & kMask];
  }

  /// Moves the job in `slot` out and frees the slot.
  T take(std::uint32_t slot) {
    T out = std::move((*this)[slot]);
    free_.push_back(slot);
    return out;
  }

 private:
  static constexpr std::uint32_t kMask = kJobBlockSize - 1;

  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<std::uint32_t> free_;
  std::size_t capacity_ = 0;
};

}  // namespace specpf
