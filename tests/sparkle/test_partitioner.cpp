#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sparkle/partitioner.hpp"

namespace cstf::sparkle {
namespace {

TEST(Partitioner, HashPartitionerInRange) {
  HashPartitioner p(7);
  for (std::uint64_t h = 0; h < 1000; ++h) EXPECT_LT(p.partitionOf(h), 7u);
}

TEST(Partitioner, RejectsZeroPartitions) {
  EXPECT_THROW(HashPartitioner(0), Error);
}

TEST(Partitioner, KeyHashSpreadsSequentialIntegers) {
  HashPartitioner p(16);
  std::vector<int> hits(16, 0);
  for (std::uint32_t k = 0; k < 16000; ++k) {
    ++hits[p.partitionOf(KeyHash<std::uint32_t>{}(k))];
  }
  for (int h : hits) {
    EXPECT_GT(h, 800);
    EXPECT_LT(h, 1200);
  }
}

TEST(Partitioner, KeyHashIsDeterministic) {
  EXPECT_EQ(KeyHash<std::uint32_t>{}(12345), KeyHash<std::uint32_t>{}(12345));
  const auto k = std::make_pair(std::uint32_t{3}, std::uint64_t{9});
  EXPECT_EQ((KeyHash<std::pair<std::uint32_t, std::uint64_t>>{}(k)),
            (KeyHash<std::pair<std::uint32_t, std::uint64_t>>{}(k)));
}

TEST(Partitioner, PairHashDistinguishesComponents) {
  using PK = std::pair<std::uint32_t, std::uint32_t>;
  std::set<std::uint64_t> hashes;
  for (std::uint32_t a = 0; a < 50; ++a) {
    for (std::uint32_t b = 0; b < 50; ++b) {
      hashes.insert(KeyHash<PK>{}({a, b}));
    }
  }
  EXPECT_EQ(hashes.size(), 2500u);
  EXPECT_NE(KeyHash<PK>{}({1, 2}), KeyHash<PK>{}({2, 1}));
}

TEST(Partitioner, SamePartitioningIsIdentityBased) {
  auto a = std::make_shared<HashPartitioner>(4);
  auto b = std::make_shared<HashPartitioner>(4);
  EXPECT_TRUE(samePartitioning(a, a));
  EXPECT_FALSE(samePartitioning(a, b));  // conservative, like Spark
  EXPECT_FALSE(samePartitioning(nullptr, a));
  EXPECT_FALSE(samePartitioning(a, nullptr));
}

}  // namespace
}  // namespace cstf::sparkle
