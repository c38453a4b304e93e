// Engine-level invariants swept over partition counts, node counts and
// data sizes: shuffles must preserve multisets of records, byte accounting
// must decompose exactly into remote + local, and results must be
// independent of partitioning and cluster size.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/strings.hpp"
#include "sparkle/sparkle.hpp"
#include "support/join_pairs.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::joinPairs;
using testsupport::shuffleAll;

using KV = std::pair<std::uint32_t, double>;

struct EngineCase {
  int nodes;
  std::size_t inputPartitions;
  std::size_t shufflePartitions;
  std::uint32_t records;
};

std::string engineCaseName(const testing::TestParamInfo<EngineCase>& info) {
  const auto& c = info.param;
  return strprintf("n%d_pin%zu_pout%zu_r%u", c.nodes, c.inputPartitions,
                   c.shufflePartitions, unsigned(c.records));
}

class EngineInvariants : public testing::TestWithParam<EngineCase> {
 protected:
  std::vector<KV> makeData() const {
    std::vector<KV> v;
    v.reserve(GetParam().records);
    for (std::uint32_t i = 0; i < GetParam().records; ++i) {
      v.push_back({i % 97, double(i)});
    }
    return v;
  }

  Context makeContext() const {
    ClusterConfig cfg;
    cfg.numNodes = GetParam().nodes;
    cfg.coresPerNode = 2;
    return Context(cfg, 2);
  }
};

TEST_P(EngineInvariants, ShufflePreservesRecordMultiset) {
  // A join against one row per key hands back every shuffled record once.
  auto ctx = makeContext();
  const auto data = makeData();
  std::vector<std::pair<std::uint32_t, int>> keys;
  for (std::uint32_t k = 0; k < 97; ++k) keys.push_back({k, 0});
  auto joined =
      joinPairs(parallelize(ctx, data, GetParam().inputPartitions),
                parallelize(ctx, keys, 3),
                ctx.hashPartitioner(GetParam().shufflePartitions))
          .collect();
  std::vector<KV> out;
  for (const auto& [k, vw] : joined) out.push_back({k, vw.first});
  ASSERT_EQ(out.size(), data.size());
  auto sorted = data;
  std::sort(sorted.begin(), sorted.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, sorted);
}

TEST_P(EngineInvariants, ShuffleGroupsKeysCompletely) {
  auto ctx = makeContext();
  auto rdd =
      shuffleAll(parallelize(ctx, makeData(), GetParam().inputPartitions),
                 ctx.hashPartitioner(GetParam().shufflePartitions));
  // Each key appears in exactly one partition.
  auto keysPerPartition = rdd.mapPartitionsWithCounters(
      [](std::size_t, const std::vector<KV>& part, TaskCounters&) {
        std::vector<std::uint32_t> keys;
        for (const auto& [k, v] : part) keys.push_back(k);
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        return keys;
      });
  auto allKeys = keysPerPartition.collect();
  std::map<std::uint32_t, int> seen;
  for (std::uint32_t k : allKeys) ++seen[k];
  for (const auto& [k, n] : seen) {
    EXPECT_EQ(n, 1) << "key " << k << " split across partitions";
  }
}

TEST_P(EngineInvariants, ByteAccountingDecomposesExactly) {
  auto ctx = makeContext();
  shuffleAll(parallelize(ctx, makeData(), GetParam().inputPartitions),
             ctx.hashPartitioner(GetParam().shufflePartitions))
      .materialize();
  std::uint64_t remote = 0;
  std::uint64_t local = 0;
  std::uint64_t records = 0;
  for (const auto& s : ctx.metrics().stages()) {
    remote += s.shuffleBytesRemote;
    local += s.shuffleBytesLocal;
    records += s.shuffleRecords;
  }
  EXPECT_EQ(records, GetParam().records);
  const auto t = ctx.metrics().totals();
  EXPECT_EQ(t.shuffleBytesRemote, remote);
  EXPECT_EQ(t.shuffleBytesLocal, local);
  // Each record is a u32 key and an f64 value: 12 bytes.
  EXPECT_EQ(remote + local,
            records * (12 + ctx.config().recordEnvelopeBytes));
}

TEST_P(EngineInvariants, ReduceByKeyResultIndependentOfPartitioning) {
  auto ctx = makeContext();
  auto out = parallelize(ctx, makeData(), GetParam().inputPartitions)
                 .reduceByKey(
                     [](double& a, const double& b) { a += b; },
                     ctx.hashPartitioner(GetParam().shufflePartitions))
                 .collect();
  std::map<std::uint32_t, double> got(out.begin(), out.end());
  std::map<std::uint32_t, double> want;
  for (const auto& [k, v] : makeData()) want[k] += v;
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [k, v] : want) EXPECT_NEAR(got[k], v, 1e-9) << k;
}

TEST_P(EngineInvariants, JoinResultIndependentOfClusterShape) {
  auto ctx = makeContext();
  std::vector<std::pair<std::uint32_t, int>> right;
  for (std::uint32_t k = 0; k < 97; k += 2) right.push_back({k, int(k)});
  auto out = joinPairs(parallelize(ctx, makeData(), GetParam().inputPartitions),
                       parallelize(ctx, right, 3),
                       ctx.hashPartitioner(GetParam().shufflePartitions))
                 .collect();
  // Expected size: records with even key.
  std::size_t expect = 0;
  for (const auto& [k, v] : makeData()) {
    if (k % 2 == 0) ++expect;
  }
  EXPECT_EQ(out.size(), expect);
  for (const auto& [k, vw] : out) EXPECT_EQ(vw.second, int(k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineInvariants,
    testing::Values(EngineCase{1, 4, 4, 500},
                    EngineCase{2, 3, 7, 501},
                    EngineCase{4, 8, 8, 1000},
                    EngineCase{4, 1, 16, 700},
                    EngineCase{8, 16, 4, 2000},
                    EngineCase{16, 32, 32, 3000},
                    EngineCase{32, 64, 64, 5000},
                    EngineCase{3, 5, 11, 997}),
    engineCaseName);

}  // namespace
}  // namespace cstf::sparkle
