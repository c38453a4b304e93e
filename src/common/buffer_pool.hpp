// BufferPool: recycles byte buffers across shuffle stages.
//
// Every shuffle map task produces one bucket per destination partition; at
// steady state (CP-ALS iterating) the same bucket sizes recur stage after
// stage, so freeing and re-allocating them is pure overhead. The pool keeps
// released buffers (capacity intact, contents cleared) and hands them back
// on the next acquire, bounded by a total-byte budget so a one-off giant
// stage cannot pin memory forever.
//
// Thread-safe: acquire/release take a mutex, but each call is O(1) and the
// engine calls them once per bucket, not per record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace cstf {

class BufferPool {
 public:
  /// `maxPooledBytes` caps the total capacity parked in the pool; releases
  /// beyond it free the buffer instead.
  explicit BufferPool(std::size_t maxPooledBytes = std::size_t{64} << 20)
      : maxPooledBytes_(maxPooledBytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  struct Stats {
    std::uint64_t acquires = 0;
    /// Acquires served by a pooled buffer (vs a fresh allocation).
    std::uint64_t hits = 0;
    std::uint64_t releases = 0;
    /// Capacity bytes handed back out by hits.
    std::uint64_t bytesReused = 0;
  };

  /// An empty buffer with capacity >= `capacityHint` (reserved up front so
  /// the caller's writes never reallocate). Reuses a pooled buffer when one
  /// is available.
  std::vector<std::uint8_t> acquire(std::size_t capacityHint) {
    std::vector<std::uint8_t> buf;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.acquires;
      if (!free_.empty()) {
        buf = std::move(free_.back());
        free_.pop_back();
        pooledBytes_ -= buf.capacity();
        ++stats_.hits;
        stats_.bytesReused += buf.capacity();
      }
    }
    buf.clear();
    if (buf.capacity() < capacityHint) buf.reserve(capacityHint);
    return buf;
  }

  /// Park a buffer for reuse. Contents are discarded; capacity is kept
  /// unless the pool's byte budget is exhausted (then the buffer frees).
  void release(std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.releases;
    if (pooledBytes_ + buf.capacity() > maxPooledBytes_) return;  // frees
    pooledBytes_ += buf.capacity();
    free_.push_back(std::move(buf));
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Drop all parked buffers (stats are kept).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.clear();
    pooledBytes_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t pooledBytes_ = 0;
  std::size_t maxPooledBytes_;
  Stats stats_;
};

}  // namespace cstf
