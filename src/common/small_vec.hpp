// Tiny fixed-capacity inline vector for hot-path port lists (no heap).
//
// The N slots are raw storage: a SmallVec<Flit, 5> on a router's stack
// costs one size write, not 160 zeroed bytes, and only pushed elements
// are ever read.  T must therefore be trivially copyable.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>

namespace dxbar {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec keeps its elements in raw storage");

 public:
  void push_back(T v) {
    assert(size_ < N);
    ::new (static_cast<void*>(storage_ + size_ * sizeof(T))) T(v);
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }
  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] bool contains(const T& v) const noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data()[i] == v) return true;
    }
    return false;
  }

 private:
  [[nodiscard]] T* data() noexcept {
    return std::launder(reinterpret_cast<T*>(storage_));
  }
  [[nodiscard]] const T* data() const noexcept {
    return std::launder(reinterpret_cast<const T*>(storage_));
  }

  alignas(T) unsigned char storage_[N * sizeof(T)];
  std::size_t size_ = 0;
};

/// Stable insertion sort for tiny ranges.  Used instead of std::sort on
/// SmallVec contents: the ranges never exceed a handful of elements and
/// std::sort's 16-element insertion threshold trips GCC's array-bounds
/// analysis on fixed-size storage.
template <typename T, std::size_t N, typename Less>
void insertion_sort(SmallVec<T, N>& v, Less less) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    T key = v[i];
    std::size_t j = i;
    while (j > 0 && less(key, v[j - 1])) {
      v[j] = v[j - 1];
      --j;
    }
    v[j] = key;
  }
}

}  // namespace dxbar
