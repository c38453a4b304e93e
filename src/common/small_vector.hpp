// SmallVec<T, N>: a vector with N elements of inline storage.
//
// Shuffle records in the dataflow engine carry factor-matrix rows of length
// R (the CP rank; R=2 in every paper experiment). Storing those rows in a
// std::vector would cost one heap allocation per record per stage — millions
// of allocations per CP-ALS iteration. SmallVec keeps rows up to N inline
// and spills to the heap only for larger ranks.
//
// Only the operations the engine needs are implemented (this is not a full
// std::vector replacement): push_back, indexing, iteration, resize, copy,
// move, comparison.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace cstf {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  explicit SmallVec(std::size_t n, const T& value = T()) {
    resize(n, value);
  }

  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVec(const SmallVec& other) { copyFrom(other); }

  SmallVec(SmallVec&& other) noexcept { moveFrom(std::move(other)); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      copyFrom(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      destroy();
      moveFrom(std::move(other));
    }
    return *this;
  }

  ~SmallVec() { destroy(); }

  T* data() { return heap_ ? heap_ : inlineData(); }
  const T* data() const { return heap_ ? heap_ : inlineData(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return heap_ ? heapCap_ : N; }
  bool onHeap() const { return heap_ != nullptr; }

  T& operator[](std::size_t i) {
    CSTF_ASSERT(i < size_, "SmallVec index out of range");
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    CSTF_ASSERT(i < size_, "SmallVec index out of range");
    return data()[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  void push_back(const T& v) {
    grow(size_ + 1);
    new (data() + size_) T(v);
    ++size_;
  }

  void push_back(T&& v) {
    grow(size_ + 1);
    new (data() + size_) T(std::move(v));
    ++size_;
  }

  void pop_back() {
    CSTF_ASSERT(size_ > 0, "pop_back on empty SmallVec");
    data()[size_ - 1].~T();
    --size_;
  }

  void clear() {
    T* p = data();
    for (std::size_t i = 0; i < size_; ++i) p[i].~T();
    size_ = 0;
  }

  void resize(std::size_t n, const T& value = T()) {
    if (n < size_) {
      T* p = data();
      for (std::size_t i = n; i < size_; ++i) p[i].~T();
      size_ = n;
    } else {
      grow(n);
      T* p = data();
      for (std::size_t i = size_; i < n; ++i) new (p + i) T(value);
      size_ = n;
    }
  }

  void reserve(std::size_t n) { grow(n); }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SmallVec& a, const SmallVec& b) {
    return !(a == b);
  }

 private:
  T* inlineData() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* inlineData() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  void grow(std::size_t need) {
    if (need <= capacity()) return;
    std::size_t cap = std::max<std::size_t>(capacity() * 2, need);
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    T* old = data();
    for (std::size_t i = 0; i < size_; ++i) {
      new (fresh + i) T(std::move(old[i]));
      old[i].~T();
    }
    if (heap_) ::operator delete(heap_);
    heap_ = fresh;
    heapCap_ = cap;
  }

  void destroy() {
    clear();
    if (heap_) {
      ::operator delete(heap_);
      heap_ = nullptr;
      heapCap_ = 0;
    }
  }

  // Trivially copyable elements relocate as raw bytes. An inline buffer
  // moves as one fixed-size block whatever its size, so the copy compiles
  // to a few stores instead of a length-dependent loop or library call.
  static constexpr bool kRawCopy = std::is_trivially_copyable_v<T>;

  /// Copy `other`'s elements into this vector, which must be empty.
  void copyFrom(const SmallVec& other) {
    if constexpr (kRawCopy) {
      if (other.size_ <= capacity()) {
        if (!heap_) {
          std::memcpy(inline_, other.data(), sizeof(inline_));
        } else if (other.size_ != 0) {
          std::memcpy(heap_, other.data(), other.size_ * sizeof(T));
        }
        size_ = other.size_;
        return;
      }
    }
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) push_back(other[i]);
  }

  void moveFrom(SmallVec&& other) {
    if (other.heap_) {
      heap_ = other.heap_;
      heapCap_ = other.heapCap_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.heapCap_ = 0;
      other.size_ = 0;
    } else if constexpr (kRawCopy) {
      std::memcpy(inline_, other.inline_, sizeof(inline_));
      heap_ = nullptr;
      heapCap_ = 0;
      size_ = other.size_;
      other.size_ = 0;
    } else {
      heap_ = nullptr;
      heapCap_ = 0;
      size_ = 0;
      T* src = other.inlineData();
      for (std::size_t i = 0; i < other.size_; ++i) {
        new (inlineData() + i) T(std::move(src[i]));
      }
      size_ = other.size_;
      other.clear();
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t heapCap_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cstf
