// Open-addressed hash map keyed by non-zero PacketId, used for the
// ejection-side reassembly MSHRs and the closed-loop transaction tables.
//
// std::unordered_map allocates one node per insert, which put the
// global allocator on the per-packet hot path.  This table stores
// slots inline in one flat array (linear probing, backward-shift
// deletion), so lookups are one cache line in the common case and the
// only heap traffic is the rare amortized rehash.  The live population
// is bounded by packets concurrently in flight, which is small, so the
// table stays compact.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dxbar {

template <typename V>
class PacketMap {
 public:
  explicit PacketMap(std::size_t initial_capacity = 64) {
    std::size_t cap = 16;
    while (cap < initial_capacity) cap *= 2;
    slots_.resize(cap);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Visits every (key, value) pair in slot order.  Slot order depends
  /// on insertion history, so callers must not attach semantics to it —
  /// serialization may use it because rebuilding the map in any order
  /// reproduces identical lookup behaviour.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != 0) f(s.key, s.value);
    }
  }

  /// Empties the map, keeping the current capacity.
  void clear() noexcept {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Value for `key`, or nullptr when absent.  The pointer is valid
  /// until the next insertion or erase.
  [[nodiscard]] V* find(PacketId key) noexcept {
    assert(key != 0 && "PacketId 0 is the empty-slot sentinel");
    std::size_t i = probe_start(key);
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == 0) return nullptr;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Value for `key`, default-constructing it on first access.
  V& operator[](PacketId key) {
    assert(key != 0 && "PacketId 0 is the empty-slot sentinel");
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    std::size_t i = probe_start(key);
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == 0) {
        s.key = key;
        s.value = V{};
        ++size_;
        return s.value;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Removes `key` if present (backward-shift deletion keeps probe
  /// chains intact without tombstones).
  void erase(PacketId key) {
    std::size_t i = probe_start(key);
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == 0) return;  // not present
      if (s.key == key) break;
      i = (i + 1) & (slots_.size() - 1);
    }
    --size_;
    std::size_t hole = i;
    for (;;) {
      i = (i + 1) & (slots_.size() - 1);
      Slot& s = slots_[i];
      if (s.key == 0) break;
      // A slot may backfill the hole only if its home position does not
      // lie strictly between the hole and the slot (cyclically).
      const std::size_t home = probe_start(s.key);
      const bool movable = ((i - home) & (slots_.size() - 1)) >=
                           ((i - hole) & (slots_.size() - 1));
      if (movable) {
        slots_[hole] = s;
        hole = i;
      }
    }
    slots_[hole] = Slot{};
  }

 private:
  struct Slot {
    PacketId key = 0;
    V value{};
  };

  [[nodiscard]] std::size_t probe_start(PacketId key) const noexcept {
    // Fibonacci hashing spreads the sequential packet ids.
    return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ULL) &
           (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != 0) (*this)[s.key] = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace dxbar
