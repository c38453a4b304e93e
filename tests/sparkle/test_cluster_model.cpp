#include <gtest/gtest.h>

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
