// Fixed-capacity ring-buffer FIFO used for router input buffers and
// source queues.  No heap allocation after construction; overflow and
// underflow are programming errors and assert in debug builds.
//
// The slots are raw storage: constructing a queue never touches them,
// so building a router costs one allocation per queue and no writes,
// however deep its buffers.  That is why T must be trivially copyable —
// an element is created by copying it into its slot and needs no
// destructor when it leaves.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace dxbar {

template <typename T>
class FixedQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "FixedQueue keeps its elements in raw storage");

 public:
  explicit FixedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(new Slot[capacity_]) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  [[nodiscard]] std::size_t free_slots() const noexcept {
    return capacity_ - size_;
  }

  /// Append to the tail.  Pushing to a full queue is a programming
  /// error: it asserts in debug builds, and in release builds returns
  /// false without dropping anything (so a missed caller check degrades
  /// to back-pressure, not silent truncation).  Callers that probe for
  /// space as part of normal control flow use try_push instead.
  bool push(const T& value) {
    assert(!full() && "push to full FixedQueue");
    return try_push(value);
  }

  /// Append to the tail if space remains; returns false when full.
  bool try_push(const T& value) {
    if (full()) return false;
    ::new (static_cast<void*>(slots_[wrap(head_ + size_)].bytes)) T(value);
    ++size_;
    return true;
  }

  /// The element at the head; queue must be non-empty.
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return slot(head_);
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return slot(head_);
  }

  /// Remove and return the head element; queue must be non-empty.
  T pop() {
    assert(!empty());
    const T out = slot(head_);
    head_ = wrap(head_ + 1);
    --size_;
    return out;
  }

  /// Element i positions behind the head (0 == front).
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return slot(wrap(head_ + i));
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  struct Slot {
    alignas(T) unsigned char bytes[sizeof(T)];
  };

  /// Index arithmetic stays below 2 * capacity, so one compare replaces
  /// the modulo.
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= capacity_ ? i - capacity_ : i;
  }
  [[nodiscard]] T& slot(std::size_t i) const noexcept {
    return *std::launder(reinterpret_cast<T*>(slots_[i].bytes));
  }

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dxbar
