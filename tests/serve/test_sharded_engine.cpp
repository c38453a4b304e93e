// ShardedEngine: scatter/gather top-k bit-identity against the single
// Engine across shard counts and replication levels, chained-declustering
// placement, replica failover after node loss, typed shedding when a shard
// has no replica left, and FaultPlan-driven deterministic kills at batch
// boundaries. Query and model validation for both providers lives in
// test_engine.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/metrics_registry.hpp"
#include "common/rng.hpp"
#include "serve/engine.hpp"
#include "serve/sharded_engine.hpp"

namespace cstf::serve {
namespace {

CpModel randomModel(std::vector<Index> dims, std::size_t rank,
                    std::uint64_t seed) {
  CpModel m;
  m.rank = rank;
  m.dims = std::move(dims);
  Pcg32 rng(seed);
  m.lambda.resize(rank);
  for (auto& l : m.lambda) l = rng.nextDouble(0.5, 2.0);
  for (const Index d : m.dims) {
    la::Matrix f(d, rank);
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t r = 0; r < rank; ++r) f(i, r) = rng.nextGaussian();
    }
    m.factors.push_back(std::move(f));
  }
  return m;
}

ShardedEngineOptions shardOpts(std::size_t shards, std::size_t replicas) {
  ShardedEngineOptions o;
  o.numShards = shards;
  o.numReplicas = replicas;
  o.threads = 2;
  o.liveMetrics = nullptr;
  return o;
}

/// Every (mode, fixed, k) probe must come back bit-identical: same
/// indices, same scores, same order.
void expectParity(const Engine& single, const ShardedEngine& sharded,
                  std::uint64_t seed) {
  Pcg32 rng(seed);
  const auto& dims = single.dims();
  for (ModeId mode = 0; mode < single.order(); ++mode) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{1000}}) {
      std::vector<Index> fixed(dims.size());
      for (ModeId m = 0; m < single.order(); ++m) {
        fixed[m] = rng.nextBounded(dims[m]);
      }
      const TopKResult a = single.topK(mode, fixed, k);
      const TopKResult b = sharded.topK(mode, fixed, k);
      ASSERT_EQ(a.entries, b.entries)
          << "mode " << int(mode) << " k " << k;
      // Pruning must not change the sharded answer either.
      TopKOptions noPrune;
      noPrune.prune = false;
      ASSERT_EQ(sharded.topK(mode, fixed, k, noPrune).entries, a.entries);
    }
  }
}

TEST(ShardedEngine, ScatterGatherMatchesSingleEngineBitForBit) {
  // Second input: every row repeats one of the first five, so scores and
  // norms tie across shards and the merge must order ties by global index.
  CpModel tied = randomModel({50, 20, 20}, 3, 42);
  for (la::Matrix& f : tied.factors) {
    for (std::size_t i = 5; i < f.rows(); ++i) {
      for (std::size_t r = 0; r < tied.rank; ++r) f(i, r) = f(i % 5, r);
    }
  }
  for (const CpModel& model : {randomModel({50, 20, 20}, 3, 42), tied}) {
    const Engine single(CpModel(model), 2);
    for (const std::size_t shards : {1, 2, 3, 7}) {
      for (const std::size_t replicas : {1, 2}) {
        const ShardedEngine sharded(CpModel(model),
                                    shardOpts(shards, replicas));
        EXPECT_EQ(sharded.numShards(), shards);
        expectParity(single, sharded, 100 + shards * 10 + replicas);
      }
    }
  }
}

TEST(ShardedEngine, MoreShardsThanRowsStillMatches) {
  const CpModel model = randomModel({5, 4, 3}, 2, 7);
  const Engine single(CpModel(model), 1);
  const ShardedEngine sharded(CpModel(model), shardOpts(7, 2));
  expectParity(single, sharded, 9);
}

TEST(ShardedEngine, PredictMatchesSingleEngineBitForBit) {
  const CpModel model = randomModel({30, 10, 12}, 4, 11);
  const Engine single(CpModel(model), 1);
  const ShardedEngine sharded(CpModel(model), shardOpts(3, 1));
  Pcg32 rng(5);
  for (int i = 0; i < 50; ++i) {
    const std::vector<Index> q = {rng.nextBounded(30), rng.nextBounded(10),
                                  rng.nextBounded(12)};
    EXPECT_EQ(single.predict(q), sharded.predict(q));
  }
}

TEST(ShardedEngine, ChainedDeclusteringPlacesCopiesOnDistinctNodes) {
  const CpModel model = randomModel({40, 16, 16}, 2, 3);
  ShardedEngineOptions o = shardOpts(4, 2);
  const ShardedEngine e(CpModel(model), o);
  EXPECT_EQ(e.numNodes(), 4u);
  // Every shard has exactly min(numReplicas, numShards) copies.
  EXPECT_EQ(e.stats().totalReplicas, 8u);
  const ShardedEngine capped(CpModel(model), shardOpts(2, 5));
  EXPECT_EQ(capped.stats().totalReplicas, 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(e.nodeOfCopy(s, 0), int(s));
    EXPECT_EQ(e.nodeOfCopy(s, 1), int((s + 1) % 4));
  }
}

TEST(ShardedEngine, NodeLossFailsOverToReplicaWithIdenticalResults) {
  const CpModel model = randomModel({50, 20, 20}, 3, 21);
  const Engine single(CpModel(model), 2);
  metrics::Registry reg;
  ShardedEngineOptions o = shardOpts(4, 2);
  o.liveMetrics = &reg;
  const ShardedEngine sharded(CpModel(model), o);

  sharded.killNode(1);
  EXPECT_FALSE(sharded.nodeAlive(1));
  // Shard 1 lost its primary, shard 0 lost its chained second copy; every
  // query still answers exactly off the surviving replicas.
  expectParity(single, sharded, 77);
  const ShardedStats st = sharded.stats();
  EXPECT_GE(st.failovers, 1u);
  EXPECT_EQ(st.shedUnavailable, 0u);
  EXPECT_EQ(st.deadNodes, 1u);
  EXPECT_EQ(reg.counter("serve_failover_total").value(), st.failovers);
  EXPECT_EQ(reg.gauge("serve_shards").value(), 4.0);
  EXPECT_EQ(reg.gauge("serve_nodes_dead").value(), 1.0);
}

TEST(ShardedEngine, UnreplicatedShardLossShedsWithTypedError) {
  const CpModel model = randomModel({50, 20, 20}, 3, 33);
  const ShardedEngine sharded(CpModel(model), shardOpts(2, 1));
  sharded.killNode(0);
  std::vector<Index> fixed = {0, 1, 1};
  EXPECT_THROW(sharded.topK(0, fixed, 5), ShedError);
  EXPECT_GE(sharded.stats().shedUnavailable, 1u);
  // Revival restores exact service.
  sharded.reviveNode(0);
  const Engine single(CpModel(model), 1);
  EXPECT_EQ(sharded.topK(0, fixed, 5).entries,
            single.topK(0, fixed, 5).entries);
}

TEST(ShardedEngine, FaultPlanKillsDeterministicallyAtBatchBoundaries) {
  const CpModel model = randomModel({50, 20, 20}, 3, 55);
  const Engine single(CpModel(model), 2);
  ShardedEngineOptions o = shardOpts(4, 2);
  o.faults.schedule = {{3, 1}};  // after batch 3, node 1 dies
  const ShardedEngine sharded(CpModel(model), o);

  for (std::uint64_t batch = 1; batch <= 5; ++batch) {
    sharded.noteBatchBoundary(batch);
    EXPECT_EQ(sharded.nodeAlive(1), batch < 3) << "batch " << batch;
  }
  EXPECT_EQ(sharded.stats().nodesKilled, 1u);
  // Replicated shards keep answering exactly after the planned loss.
  expectParity(single, sharded, 99);
}

}  // namespace
}  // namespace cstf::serve
