#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sparkle/sparkle.hpp"
#include "support/join_pairs.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::joinPairs;
using testsupport::shuffleAll;

using KV = std::pair<std::uint32_t, double>;

Context makeCtx() {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return Context(cfg, 2);
}

TEST(PairOps, MapValuesKeepsKeys) {
  auto ctx = makeCtx();
  std::vector<KV> data{{1, 1.0}, {2, 2.0}, {3, 3.0}};
  auto out = parallelize(ctx, data, 2)
                 .mapValues([](const double& v) { return v * 10.0; })
                 .collect();
  std::map<std::uint32_t, double> m(out.begin(), out.end());
  EXPECT_DOUBLE_EQ(m[2], 20.0);
}

TEST(PairOps, ReduceByKeyAggregates) {
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t k = 0; k < 10; ++k) {
    for (int r = 0; r < 5; ++r) data.push_back({k, 1.0});
  }
  auto out = parallelize(ctx, data, 4)
                 .reduceByKey([](double& a, const double& b) {
                   a += b;
                 })
                 .collect();
  ASSERT_EQ(out.size(), 10u);
  for (const auto& [k, v] : out) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(PairOps, ReduceByKeyWithoutCombineMatches) {
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t k = 0; k < 7; ++k) {
    for (int r = 0; r <= int(k); ++r) data.push_back({k, double(r)});
  }
  auto sum = [](double& a, const double& b) { a += b; };
  auto combined = parallelize(ctx, data, 4)
                      .reduceByKey(sum, nullptr, /*mapSideCombine=*/true)
                      .collect();
  auto plain = parallelize(ctx, data, 4)
                   .reduceByKey(sum, nullptr, /*mapSideCombine=*/false)
                   .collect();
  std::map<std::uint32_t, double> a(combined.begin(), combined.end());
  std::map<std::uint32_t, double> b(plain.begin(), plain.end());
  EXPECT_EQ(a, b);
}

TEST(PairOps, MapSideCombineShufflesFewerRecords) {
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (int r = 0; r < 100; ++r) data.push_back({k, 1.0});
  }
  auto sum = [](double& a, const double& b) { a += b; };

  parallelize(ctx, data, 4).reduceByKey(sum, nullptr, true).materialize();
  const auto withCombine = ctx.metrics().totals();
  ctx.metrics().reset();
  parallelize(ctx, data, 4).reduceByKey(sum, nullptr, false).materialize();
  const auto without = ctx.metrics().totals();

  EXPECT_LT(withCombine.shuffleRecords, without.shuffleRecords);
  EXPECT_EQ(without.shuffleRecords, 400u);
  // Per partition at most 4 distinct keys survive the combiner.
  EXPECT_LE(withCombine.shuffleRecords, 16u);
}

TEST(PairOps, ReduceByKeyMergesInMapPartitionThenRecordOrder) {
  // An order-sensitive merge (append) shows the order in which a key's
  // values meet: map-partition order, then record order within each map
  // partition, with or without map-side combine. Every floating-point sum
  // of a reduceByKey is bit-identical across builds only because of this.
  using Tags = std::vector<std::uint32_t>;
  constexpr std::uint32_t kRecords = 240;
  constexpr std::uint32_t kKeys = 13;
  std::vector<std::pair<std::uint32_t, Tags>> data;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    data.push_back({(i * 7) % kKeys, Tags{i}});
  }
  auto append = [](Tags& acc, const Tags& x) {
    acc.insert(acc.end(), x.begin(), x.end());
  };
  for (const bool combine : {true, false}) {
    SCOPED_TRACE(combine ? "map-side combine" : "no map-side combine");
    auto ctx = makeCtx();
    // parallelize cuts the input into contiguous blocks, so input order is
    // (map partition, record) order.
    auto out = parallelize(ctx, data, 5)
                   .reduceByKey(append, ctx.hashPartitioner(3), combine)
                   .collect();
    ASSERT_EQ(out.size(), kKeys);
    for (const auto& [k, tags] : out) {
      Tags want;
      for (std::uint32_t i = 0; i < kRecords; ++i) {
        if ((i * 7) % kKeys == k) want.push_back(i);
      }
      EXPECT_EQ(tags, want) << "key " << k;
    }
  }
}

TEST(PairOps, JoinEmitsDuplicateRightKeysInArrivalOrder) {
  auto ctx = makeCtx();
  std::vector<KV> left;
  for (std::uint32_t k = 0; k < 6; ++k) left.push_back({k, double(k)});
  std::vector<std::pair<std::uint32_t, int>> right;
  for (int i = 0; i < 60; ++i) right.push_back({std::uint32_t(i % 6), i});
  auto out = joinPairs(parallelize(ctx, left, 2), parallelize(ctx, right, 4),
                       ctx.hashPartitioner(3))
                 .collect();
  ASSERT_EQ(out.size(), right.size());
  // One left record per key, so a key's outputs are that record's matches
  // in emission order; right-side arrival order is input order.
  std::map<std::uint32_t, std::vector<int>> seen;
  for (const auto& [k, vw] : out) seen[k].push_back(vw.second);
  ASSERT_EQ(seen.size(), left.size());
  for (const auto& [k, ws] : seen) {
    std::vector<int> want;
    for (int i = static_cast<int>(k); i < 60; i += 6) want.push_back(i);
    EXPECT_EQ(ws, want) << "key " << k;
  }
}

TEST(PairOps, JoinMatchesKeys) {
  auto ctx = makeCtx();
  std::vector<KV> left{{1, 10.0}, {2, 20.0}, {3, 30.0}};
  std::vector<std::pair<std::uint32_t, int>> right{{2, 200}, {3, 300},
                                                   {4, 400}};
  auto out =
      joinPairs(parallelize(ctx, left, 2), parallelize(ctx, right, 3))
          .collect();
  ASSERT_EQ(out.size(), 2u);
  std::map<std::uint32_t, std::pair<double, int>> m;
  for (const auto& [k, vw] : out) m[k] = vw;
  EXPECT_DOUBLE_EQ(m[2].first, 20.0);
  EXPECT_EQ(m[2].second, 200);
  EXPECT_EQ(m[3].second, 300);
}

TEST(PairOps, JoinIsInner) {
  auto ctx = makeCtx();
  std::vector<KV> left{{1, 1.0}};
  std::vector<KV> right{{2, 2.0}};
  EXPECT_TRUE(joinPairs(parallelize(ctx, left, 2), parallelize(ctx, right, 2))
                  .collect()
                  .empty());
}

TEST(PairOps, JoinProducesCrossProductPerKey) {
  auto ctx = makeCtx();
  std::vector<KV> left{{5, 1.0}, {5, 2.0}};
  std::vector<std::pair<std::uint32_t, int>> right{{5, 7}, {5, 8}, {5, 9}};
  auto out =
      joinPairs(parallelize(ctx, left, 2), parallelize(ctx, right, 2))
          .collect();
  EXPECT_EQ(out.size(), 6u);
}

TEST(PairOps, JoinCountsOneShuffleOpTwoStages) {
  auto ctx = makeCtx();
  std::vector<KV> left{{1, 1.0}, {2, 2.0}};
  std::vector<KV> right{{1, 3.0}, {2, 4.0}};
  joinPairs(parallelize(ctx, left, 2), parallelize(ctx, right, 2))
      .materialize();
  const auto t = ctx.metrics().totals();
  EXPECT_EQ(t.shuffleOps, 1u);  // one logical join
  std::size_t shuffleStages = 0;
  for (const auto& s : ctx.metrics().stages()) {
    if (s.kind == StageKind::kShuffle) ++shuffleStages;
  }
  EXPECT_EQ(shuffleStages, 2u);  // both sides moved
}

TEST(PairOps, JoinSkipsShuffleForCoPartitionedSide) {
  auto ctx = makeCtx();
  auto sum = [](double& a, const double& b) { a += b; };
  std::vector<KV> left{{1, 1.0}, {2, 2.0}, {3, 3.0}};
  std::vector<KV> right{{1, 9.0}, {3, 9.0}};
  auto part = ctx.hashPartitioner(8);
  auto leftPart = parallelize(ctx, left, 2).reduceByKey(sum, part);
  leftPart.materialize();
  ctx.metrics().reset();

  joinPairs(leftPart, parallelize(ctx, right, 2), part).materialize();
  std::size_t shuffleStages = 0;
  for (const auto& s : ctx.metrics().stages()) {
    if (s.kind == StageKind::kShuffle) ++shuffleStages;
  }
  EXPECT_EQ(shuffleStages, 1u);  // only the right side moved
}

TEST(PairOps, ReduceByKeyAfterPartitionByIsNarrow) {
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t k = 0; k < 8; ++k) data.push_back({k, 1.0});
  auto part = ctx.hashPartitioner(4);
  // A partition-preserving step after the shuffle puts a second value of
  // every key in the partition `part` names.
  auto pre = shuffleAll(parallelize(ctx, data, 4), part)
                 .mapPartitionsWithCounters(
                     [](std::size_t, const std::vector<KV>& in,
                        TaskCounters&) {
                       std::vector<KV> out;
                       for (const auto& [k, v] : in) {
                         out.push_back({k, v});
                         out.push_back({k, 2.0 * v});
                       }
                       return out;
                     },
                     /*preservesPartitioning=*/true);
  pre.materialize();
  ctx.metrics().reset();

  auto out = pre.reduceByKey(
                    [](double& a, const double& b) { a += b; },
                    part)
                 .collect();
  ASSERT_EQ(out.size(), 8u);
  for (const auto& [k, v] : out) EXPECT_DOUBLE_EQ(v, 3.0) << k;
  // Spark semantics: already co-partitioned, no second shuffle.
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 0u);
}

TEST(PairOps, MapValuesPreservesPartitioningMapDoesNot) {
  auto ctx = makeCtx();
  std::vector<KV> data{{1, 1.0}, {2, 2.0}};
  auto part = ctx.hashPartitioner(4);
  auto rdd = parallelize(ctx, data, 2).reduceByKey(
      [](double& a, const double& b) { a += b; }, part);
  auto mv = rdd.mapValues([](const double& v) { return v + 1.0; });
  EXPECT_EQ(mv.partitioning(), part);
  auto plain = rdd.map([](const KV& kv) { return kv; });
  EXPECT_EQ(plain.partitioning(), nullptr);
}

}  // namespace
}  // namespace cstf::sparkle
