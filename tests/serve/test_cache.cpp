// LRU cache: recency-ordered eviction, exact capacity, the off switch, and
// values outliving eviction.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"

namespace cstf::serve {
namespace {

using IntCache = LruCache<int, int>;

std::shared_ptr<const int> val(int v) {
  return std::make_shared<const int>(v);
}

/// Keys in [0, n) the cache currently holds.
template <typename Cache>
std::size_t resident(Cache& c, int n) {
  std::size_t held = 0;
  for (int k = 0; k < n; ++k) held += c.get(k) != nullptr;
  return held;
}

TEST(Cache, MissThenHit) {
  IntCache c(8);
  EXPECT_EQ(c.get(1), nullptr);
  c.put(1, val(10));
  const auto got = c.get(1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 10);
}

TEST(Cache, EvictsLeastRecentlyUsed) {
  IntCache c(2);
  c.put(1, val(10));
  c.put(2, val(20));
  ASSERT_NE(c.get(1), nullptr);  // refresh 1; 2 is now the LRU entry
  c.put(3, val(30));
  EXPECT_NE(c.get(1), nullptr);
  EXPECT_EQ(c.get(2), nullptr);
  EXPECT_NE(c.get(3), nullptr);
}

TEST(Cache, PutRefreshesExistingKeys) {
  IntCache c(2);
  c.put(1, val(10));
  c.put(2, val(20));
  c.put(1, val(11));  // refresh, not insert: nothing evicted
  ASSERT_NE(c.get(2), nullptr);
  const auto got = c.get(1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 11);
}

TEST(Cache, ValuesSurviveEviction) {
  IntCache c(1);
  c.put(1, val(10));
  const auto held = c.get(1);
  c.put(2, val(20));  // evicts key 1
  EXPECT_EQ(c.get(1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 10);
}

TEST(Cache, HoldsExactlyItsCapacity) {
  IntCache c(3);
  EXPECT_EQ(c.capacity(), 3u);
  for (int k = 0; k < 16; ++k) c.put(k, val(k));
  EXPECT_EQ(resident(c, 16), 3u);
  // The three most recent puts are the ones kept.
  EXPECT_NE(c.get(13), nullptr);
  EXPECT_NE(c.get(14), nullptr);
  EXPECT_NE(c.get(15), nullptr);

  // Capacity 0 is off: nothing is kept.
  IntCache off(0);
  off.put(1, val(10));
  EXPECT_EQ(off.get(1), nullptr);
}

TEST(Cache, ClearEmptiesEveryShard) {
  IntCache c(64);
  for (int i = 0; i < 32; ++i) c.put(i, val(i));
  EXPECT_EQ(resident(c, 32), 32u);
  c.clear();
  EXPECT_EQ(resident(c, 32), 0u);
}

TEST(Cache, ConcurrentReadersAndWritersStaySane) {
  LruCache<int, std::string> c(64);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c, t] {
      for (int i = 0; i < 2000; ++i) {
        const int key = (t * 31 + i) % 100;
        if (const auto got = c.get(key)) {
          EXPECT_EQ(*got, std::to_string(key));
        } else {
          c.put(key, std::make_shared<const std::string>(
                         std::to_string(key)));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(resident(c, 100), c.capacity());
}

}  // namespace
}  // namespace cstf::serve
