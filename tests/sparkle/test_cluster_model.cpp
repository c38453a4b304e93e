#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sparkle/sparkle.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::shuffleAll;

using KV = std::pair<std::uint32_t, double>;

std::vector<KV> makeData(std::uint32_t n) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i, double(i)});
  return v;
}

double simTimeForNodes(int nodes, ExecutionMode mode = ExecutionMode::kSpark,
                       std::uint32_t n = 20000) {
  ClusterConfig cfg;
  cfg.numNodes = nodes;
  cfg.coresPerNode = 4;
  cfg.mode = mode;
  Context ctx(cfg, 2, 64);
  auto rdd = parallelize(ctx, makeData(n), 64)
                 .mapValues([](const double& v) { return v * 2; }, 10.0)
                 .reduceByKey(
                     [](double& a, const double& b) { a += b; });
  rdd.materialize();
  return ctx.metrics().simTimeSec();
}

TEST(ClusterModel, MoreNodesRunFaster) {
  const double t4 = simTimeForNodes(4);
  const double t16 = simTimeForNodes(16);
  EXPECT_LT(t16, t4);
}

TEST(ClusterModel, ScalingIsSubLinear) {
  // Fixed per-stage overhead and the growing remote fraction keep speedup
  // below ideal — the "scalability is not better" effect of paper §6.4.
  const double t4 = simTimeForNodes(4, ExecutionMode::kSpark, 200000);
  const double t32 = simTimeForNodes(32, ExecutionMode::kSpark, 200000);
  EXPECT_LT(t32, t4);
  EXPECT_GT(t32, t4 / 8.0);
}

TEST(ClusterModel, HadoopModeIsSlower) {
  const double spark = simTimeForNodes(8, ExecutionMode::kSpark);
  const double hadoop = simTimeForNodes(8, ExecutionMode::kHadoop);
  EXPECT_GT(hadoop, 1.5 * spark);
}

TEST(ClusterModel, SimTimeIsDeterministic) {
  EXPECT_DOUBLE_EQ(simTimeForNodes(8), simTimeForNodes(8));
}

TEST(ClusterModel, StageOverheadContributes) {
  ClusterConfig cfg;
  cfg.numNodes = 2;
  cfg.coresPerNode = 2;
  cfg.stageOverheadSec = 10.0;
  Context ctx(cfg, 2);
  parallelize(ctx, makeData(10), 2).materialize();
  EXPECT_GE(ctx.metrics().simTimeSec(), 10.0);
}

TEST(ClusterModel, ComputeSecondsFollowThroughput) {
  ClusterConfig cfg;
  cfg.numNodes = 1;
  cfg.recordsPerSecPerCore = 1000;
  cfg.flopsPerSecPerCore = 1e6;
  Context ctx(cfg, 2);
  TaskCounters c;
  c.recordsProcessed = 500;
  c.flops = 2000;
  const double sec = ctx.metrics().computeSecondsOf(c);
  EXPECT_NEAR(sec, 0.5 + 0.002, 1e-9);
}

TEST(ClusterModel, NodeOfPartitionRoundRobins) {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  EXPECT_EQ(cfg.nodeOfPartition(0), 0);
  EXPECT_EQ(cfg.nodeOfPartition(5), 1);
  EXPECT_EQ(cfg.nodeOfPartition(7), 3);
}

TEST(ClusterModel, ValidateRejectsBadConfig) {
  ClusterConfig cfg;
  cfg.numNodes = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.numNodes = 4;
  cfg.networkBytesPerSecPerNode = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
}

// The stage time model with every term worked out by hand: throughputs
// of 2 records, 24 disk bytes, 1 flop and 24 network bytes per second make
// each term a whole number of seconds.
ClusterConfig handModel(int numNodes, int coresPerNode, ExecutionMode mode) {
  ClusterConfig cfg;
  cfg.numNodes = numNodes;
  cfg.coresPerNode = coresPerNode;
  cfg.mode = mode;
  cfg.recordsPerSecPerCore = 2;
  cfg.diskBytesPerSecPerNode = 24;
  cfg.flopsPerSecPerCore = 1;
  cfg.networkBytesPerSecPerNode = 24;
  cfg.stageOverheadSec = 0.25;
  cfg.jobOverheadSec = 0.5;
  cfg.recordEnvelopeBytes = 0;
  cfg.faults.allowEnvChaos = false;
  return cfg;
}

TEST(ClusterModel, StageTimeMatchesTheFormulaByHand) {
  // Result stage: six one-record partitions on two nodes of two cores
  // (node 0 runs p0, p2, p4). A task reads one 24-byte source record
  // (1 s) and processes 2 records (1 s), plus its flops. The compute phase
  // is max(longest task, largest node sum / coresPerNode).
  using Rec = std::array<double, 3>;
  auto resultStage = [](std::array<std::uint64_t, 6> flops) {
    Context ctx(handModel(2, 2, ExecutionMode::kSpark), 2);
    parallelize(ctx, std::vector<Rec>(6), 6)
        .mapPartitionsWithCounters(
            [flops](std::size_t p, const std::vector<Rec>& in,
                    TaskCounters& c) {
              c.flops += flops[p];
              return in;
            })
        .materialize();
    const auto stages = ctx.metrics().stages();
    EXPECT_EQ(stages.size(), 1u);
    return stages.front();
  };
  // One long task of 8 s outlasts node 0's (8 + 2 + 2) / 2 = 6 s.
  const StageMetrics longTask = resultStage({6, 0, 0, 0, 0, 0});
  ASSERT_EQ(longTask.tasks.size(), 6u);
  EXPECT_DOUBLE_EQ(longTask.tasks[0].simTimeSec, 8.0);
  EXPECT_DOUBLE_EQ(longTask.tasks[1].simTimeSec, 2.0);
  EXPECT_DOUBLE_EQ(longTask.simTimeSec, 8.0 + 0.25);
  // Node 0's three 6 s tasks on two cores take 9 s, more than any task.
  const StageMetrics busyNode = resultStage({4, 0, 4, 0, 4, 0});
  EXPECT_DOUBLE_EQ(busyNode.simTimeSec, 9.0 + 0.25);

  // Hadoop: one key, so four 12-byte records (u32 key, f64 value) land on
  // one reduce partition; each of the two map tasks reads 24 source bytes
  // (1 s) and processes 4 records (2 s). The map task on the reducer's
  // node ships locally, the other's 24 bytes cross the network (1 s).
  // Disk: 3 x 48 bytes over two nodes' disks (3 s). Plus one job start.
  Context ctx(handModel(2, 1, ExecutionMode::kHadoop), 2);
  const std::vector<KV> sameKey(4, KV{7, 1.0});
  shuffleAll(parallelize(ctx, sameKey, 2), ctx.hashPartitioner(2))
      .materialize();
  // A broadcast pulls 24 bytes onto node 1 (1 s) and starts no job.
  broadcast(ctx, std::array<double, 3>{1, 2, 3});
  const auto stages = ctx.metrics().stages();
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].kind, StageKind::kShuffle);
  EXPECT_EQ(stages[0].shuffleBytesRemote + stages[0].shuffleBytesLocal, 48u);
  EXPECT_DOUBLE_EQ(stages[0].simTimeSec, 3.0 + 1.0 + 3.0 + 0.25 + 0.5);
  // The result stage merges the four records on one node (2 s): a job
  // start, no disk.
  EXPECT_EQ(stages[1].kind, StageKind::kResult);
  EXPECT_DOUBLE_EQ(stages[1].simTimeSec, 2.0 + 0.25 + 0.5);
  EXPECT_EQ(stages[2].kind, StageKind::kBroadcast);
  EXPECT_DOUBLE_EQ(stages[2].simTimeSec, 1.0 + 0.25);
}

TEST(ClusterModel, WallTimeRecorded) {
  ClusterConfig cfg;
  cfg.numNodes = 2;
  Context ctx(cfg, 2);
  shuffleAll(parallelize(ctx, makeData(1000), 4), ctx.hashPartitioner(4))
      .materialize();
  const auto t = ctx.metrics().totals();
  EXPECT_GT(t.wallTimeSec, 0.0);
}

}  // namespace
}  // namespace cstf::sparkle
