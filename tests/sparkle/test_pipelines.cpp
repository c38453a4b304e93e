// End-to-end engine pipelines: multi-shuffle DAGs, diamond lineage, and
// re-use of one shuffled dataset by several consumers — the shapes the
// CSTF algorithms actually build.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "sparkle/sparkle.hpp"
#include "support/join_pairs.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::joinPairs;

using KV = std::pair<std::uint32_t, double>;

Context makeCtx() {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return Context(cfg, 2);
}

TEST(Pipelines, ThreeChainedShufflesProduceCorrectResult) {
  // Mimics one CSTF-COO MTTKRP: keyed join, re-key, join, re-key, reduce.
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t i = 0; i < 300; ++i) data.push_back({i, double(i)});
  std::vector<std::pair<std::uint32_t, double>> tableA;
  std::vector<std::pair<std::uint32_t, double>> tableB;
  for (std::uint32_t k = 0; k < 300; ++k) tableA.push_back({k, 2.0});
  for (std::uint32_t k = 0; k < 10; ++k) tableB.push_back({k, 3.0});

  auto out =
      parallelize(ctx, data, 8)
          .join(parallelize(ctx, tableA, 4),
                [](KV& kv, const double& a) {  // (k, v) -> (k%10, 2v)
                  kv.second *= a;
                  kv.first %= 10;
                })
          .join(parallelize(ctx, tableB, 4),
                [](const KV& kv, const double& b) {  // -> (k%10, 6v)
                  return KV(kv.first, kv.second * b);
                })
          .reduceByKey([](double& a, const double& b) { a += b; })
          .collect();

  // Expected: for each residue r, sum over i with i%10==r of 6i.
  std::map<std::uint32_t, double> want;
  for (std::uint32_t i = 0; i < 300; ++i) want[i % 10] += 6.0 * i;
  std::map<std::uint32_t, double> got(out.begin(), out.end());
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [k, v] : want) EXPECT_NEAR(got[k], v, 1e-9) << k;
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 3u);
}

TEST(Pipelines, DiamondLineageComputesSharedParentOnce) {
  // Two consumers of one cached shuffled dataset (the QCOO shape: the
  // advanced RDD feeds both the reduce and the next join).
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t i = 0; i < 200; ++i) data.push_back({i % 20, 1.0});

  auto shared = parallelize(ctx, data, 8)
                    .reduceByKey(
                        [](double& a, const double& b) { a += b; },
                        ctx.hashPartitioner(8));
  shared.cache();
  auto left = shared.mapValues([](const double& v) { return v * 2; })
                  .reduceByKey(
                      [](double& a, const double& b) { a += b; });
  auto right = shared.mapValues([](const double& v) { return v * 3; })
                   .reduceByKey(
                       [](double& a, const double& b) { a += b; });

  const auto leftOut = left.collect();
  const auto rightOut = right.collect();
  std::map<std::uint32_t, double> l(leftOut.begin(), leftOut.end());
  std::map<std::uint32_t, double> r(rightOut.begin(), rightOut.end());
  for (std::uint32_t k = 0; k < 20; ++k) {
    EXPECT_DOUBLE_EQ(l[k], 20.0);
    EXPECT_DOUBLE_EQ(r[k], 30.0);
  }
  // One shuffle for `shared`; each reduceByKey after mapValues is narrow
  // (co-partitioned), so only the first reduceByKey shuffled.
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 1u);
}

TEST(Pipelines, WordCountComposition) {
  // Lines of word ids: mapPartitionsWithCounters splits them into
  // (word, 1) pairs.
  auto ctx = makeCtx();
  using Line = std::vector<std::uint32_t>;
  std::vector<Line> lines{{0, 1, 0}, {1, 2}, {0}};
  auto counts =
      parallelize(ctx, lines, 2)
          .mapPartitionsWithCounters([](std::size_t,
                                        const std::vector<Line>& part,
                                        TaskCounters&) {
            std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
            for (const Line& l : part) {
              for (std::uint32_t w : l) out.emplace_back(w, 1);
            }
            return out;
          })
          .reduceByKey(
              [](std::uint32_t& x, const std::uint32_t& y) {
                x += y;
              })
          .collect();
  std::map<std::uint32_t, std::uint32_t> m(counts.begin(), counts.end());
  EXPECT_EQ(m[0], 3u);
  EXPECT_EQ(m[1], 2u);
  EXPECT_EQ(m[2], 1u);
}

TEST(Pipelines, JoinAfterReduceByKeyReusesPartitioning) {
  auto ctx = makeCtx();
  std::vector<KV> data;
  for (std::uint32_t i = 0; i < 100; ++i) data.push_back({i % 10, 1.0});
  auto part = ctx.hashPartitioner(8);
  auto reduced = parallelize(ctx, data, 4)
                     .reduceByKey(
                         [](double& a, const double& b) { a += b; },
                         part);
  reduced.materialize();
  const auto opsBefore = ctx.metrics().totals().shuffleOps;

  std::vector<std::pair<std::uint32_t, int>> side;
  for (std::uint32_t k = 0; k < 10; ++k) side.push_back({k, int(k)});
  auto joined = joinPairs(reduced, parallelize(ctx, side, 2), part);
  EXPECT_EQ(joined.count(), 10u);
  // Only the side table shuffled; `reduced` was already on `part`.
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, opsBefore + 1);
}

TEST(Pipelines, DeepNarrowChainStaysSingleStage) {
  auto ctx = makeCtx();
  auto rdd = generate(ctx, 1000, [](std::size_t i) { return int(i); }, 8);
  Rdd<int> cur = rdd;
  for (int hop = 0; hop < 20; ++hop) {
    cur = cur.map([](const int& x) { return x + 1; });
  }
  const std::vector<int> out = cur.collect();
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0,
                            [](int a, int b) { return std::max(a, b); }),
            999 + 20);
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 0u);
  EXPECT_EQ(ctx.metrics().totals().stages, 1u);  // one result stage
}

}  // namespace
}  // namespace cstf::sparkle
