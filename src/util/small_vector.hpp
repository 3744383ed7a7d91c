/// \file small_vector.hpp
/// \brief A vector with inline storage for small sizes.
///
/// Sequences exchanged by Algorithm 1 contain at most ⌊k/2⌋ node IDs, so the
/// dominant container in the hot path is a tiny array. SmallVector keeps up to
/// N elements inline (no heap allocation) and spills to the heap only beyond
/// that, following the common HPC idiom of allocation-free inner loops.
///
/// Only trivially copyable element types are supported; this keeps the
/// implementation simple and is all the library needs (IDs and indices).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace decycle::util {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector supports trivially copyable types only");
  static_assert(N >= 1, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept = default;

  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  explicit SmallVector(std::span<const T> values) { assign(values.begin(), values.end()); }

  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }

  SmallVector(SmallVector&& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      assign(other.begin(), other.end());
      other.size_ = 0;
    }
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    release_heap();
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      size_ = 0;
      capacity_ = N;
      assign(other.begin(), other.end());
      other.size_ = 0;
    }
    return *this;
  }

  ~SmallVector() { release_heap(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool on_heap() const noexcept { return heap_ != nullptr; }

  [[nodiscard]] T* data() noexcept { return on_heap() ? heap_ : reinterpret_cast<T*>(storage_); }
  [[nodiscard]] const T* data() const noexcept {
    return on_heap() ? heap_ : reinterpret_cast<const T*>(storage_);
  }

  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data()[i]; }

  [[nodiscard]] T& at(std::size_t i) {
    DECYCLE_CHECK_MSG(i < size_, "SmallVector::at out of range");
    return data()[i];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    DECYCLE_CHECK_MSG(i < size_, "SmallVector::at out of range");
    return data()[i];
  }

  [[nodiscard]] T& front() noexcept { return data()[0]; }
  [[nodiscard]] const T& front() const noexcept { return data()[0]; }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  operator std::span<const T>() const noexcept { return {data(), size_}; }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t want) {
    if (want > capacity_) grow_to(want);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow_to(capacity_ * 2);
    data()[size_++] = value;
  }

  void pop_back() noexcept { --size_; }

  void resize(std::size_t n, const T& fill = T{}) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data()[i] = fill;
    size_ = n;
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  /// Returns true iff \p value occurs in the vector (linear scan — sequences
  /// are tiny, so this beats any set structure).
  [[nodiscard]] bool contains(const T& value) const noexcept {
    return std::find(begin(), end(), value) != end();
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) noexcept {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

  /// Lexicographic order; used to iterate received sequences deterministically.
  friend bool operator<(const SmallVector& a, const SmallVector& b) noexcept {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void grow_to(std::size_t want) {
    const std::size_t new_cap = std::max<std::size_t>(want, capacity_ * 2);
    T* fresh = new T[new_cap];
    std::memcpy(static_cast<void*>(fresh), static_cast<const void*>(data()), size_ * sizeof(T));
    release_heap();
    heap_ = fresh;
    capacity_ = new_cap;
  }

  void release_heap() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = N;
  }

  alignas(T) std::byte storage_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t capacity_ = N;
  std::size_t size_ = 0;
};

}  // namespace decycle::util
