// LRU result cache for the serving layer.
//
// One recency list plus an index map under one mutex, holding exactly
// `capacity` entries; capacity 0 turns the cache off (every get misses,
// every put is dropped). Values are shared_ptr<const V>: a hit hands out a
// reference to the cached result with no copy, and eviction never
// invalidates a result a caller is still holding.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace cstf::serve {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// nullptr on miss; a hit refreshes the entry's recency.
  ValuePtr get(const K& key) {
    if (capacity_ == 0) return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  /// Insert or refresh; evicts the least-recently-used entry when full.
  void put(const K& key, ValuePtr value) {
    CSTF_ASSERT(value != nullptr, "cache values must be non-null");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    map_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    map_.clear();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<K, ValuePtr>;

  const std::size_t capacity_;
  std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> map_;
};

}  // namespace cstf::serve
