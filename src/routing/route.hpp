// Shared routing vocabulary: the set of output ports a routing function
// permits for a flit at a given router.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace dxbar {

/// Preference-ordered productive output ports (at most 2 on a 2D mesh
/// under minimal routing, plus Local when the flit has arrived).
///
/// One 4-byte word: the ordered port codes, then their port mask
/// (bit port_index(d)) and count in the last byte.  Iteration yields the
/// ports in insertion order; contains() is a bit test, and mask() lets a
/// router intersect the whole set with its sendable ports at once.
class RouteSet {
 public:
  static constexpr std::size_t kCapacity = 3;

  void push_back(Direction d) noexcept {
    assert(size() < kCapacity && !contains(d));
    ports_[size()] = d;
    meta_ = static_cast<std::uint8_t>(
        (meta_ | 1u << port_index(d)) + (1u << kSizeShift));
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return meta_ >> kSizeShift;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] Direction operator[](std::size_t i) const noexcept {
    assert(i < size());
    return ports_[i];
  }
  [[nodiscard]] const Direction* begin() const noexcept { return ports_; }
  [[nodiscard]] const Direction* end() const noexcept {
    return ports_ + size();
  }
  void clear() noexcept { meta_ = 0; }

  [[nodiscard]] bool contains(Direction d) const noexcept {
    return (meta_ >> port_index(d) & 1u) != 0;
  }

  /// The set as a port mask: bit port_index(d) for every member d.
  [[nodiscard]] unsigned mask() const noexcept { return meta_ & kMaskBits; }

 private:
  static constexpr unsigned kSizeShift = kNumPorts;
  static constexpr unsigned kMaskBits = (1u << kNumPorts) - 1;

  Direction ports_[kCapacity] = {};
  std::uint8_t meta_ = 0;  ///< port mask in bits [0, 5), size in [5, 7)
};

static_assert(sizeof(RouteSet) == 4, "a RouteSet is one word; the hot "
                                     "path copies it per head flit");

}  // namespace dxbar
