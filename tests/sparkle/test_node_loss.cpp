// Node-loss fault model: a FaultPlan kills whole nodes at stage
// boundaries — cached blocks evaporate, map outputs vanish — and the
// scheduler recovers by re-running only the lost map tasks. Results must
// stay byte-identical to a failure-free run; jobs that exhaust their
// stage-attempt budget abort with a typed error.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "cstf/cstf.hpp"
#include "sparkle/sparkle.hpp"
#include "tensor/generator.hpp"

namespace cstf::sparkle {
namespace {

using KV = std::pair<std::uint32_t, double>;

ClusterConfig cleanCluster() {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  // Metering-exact baselines must not pick up CSTF_CHAOS from the
  // environment (the chaos CI job runs this whole suite with it set).
  cfg.faults.allowEnvChaos = false;
  return cfg;
}

/// Kill `node` once at every plausible stage id; recovery then runs on
/// whichever shuffle stages the job actually executes.
ClusterConfig scheduledLossCluster(int node) {
  ClusterConfig cfg = cleanCluster();
  for (std::uint64_t s = 1; s <= 16; ++s) {
    cfg.faults.schedule.push_back({s, node});
  }
  cfg.faults.stageRetryDelaySec = 0.0;
  return cfg;
}

std::vector<KV> makeData(std::uint32_t n) {
  std::vector<KV> v;
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i % 37, double(i)});
  return v;
}

std::map<std::uint32_t, double> sumByKey(Context& ctx, std::uint32_t n) {
  auto out = parallelize(ctx, makeData(n), 8)
                 .reduceByKey(
                     [](double& a, const double& b) { a += b; })
                 .collect();
  return {out.begin(), out.end()};
}

TEST(NodeLoss, ScheduledLossRecoversByteIdentical) {
  std::map<std::uint32_t, double> clean;
  {
    Context ctx(cleanCluster(), 2);
    clean = sumByKey(ctx, 1000);
  }
  Context ctx(scheduledLossCluster(0), 2);
  EXPECT_EQ(sumByKey(ctx, 1000), clean);
  EXPECT_GT(ctx.metrics().lostNodes(), 0u);
  // 8 map partitions round-robin over 4 nodes: node 0 held exactly 2, and
  // only those were recomputed.
  EXPECT_EQ(ctx.metrics().recomputedMapTasks(), 2u);
}

TEST(NodeLoss, RateDrivenLossIsDeterministicAndRecovers) {
  std::map<std::uint32_t, double> clean;
  {
    Context ctx(cleanCluster(), 2);
    clean = sumByKey(ctx, 1000);
  }
  auto run = [&](std::map<std::uint32_t, double>* out) {
    ClusterConfig cfg = cleanCluster();
    cfg.faults.nodeLossRate = 0.9;
    cfg.faults.stageRetryDelaySec = 0.0;
    Context ctx(cfg, 2);
    *out = sumByKey(ctx, 1000);
    return std::make_pair(ctx.metrics().lostNodes(),
                          ctx.metrics().recomputedMapTasks());
  };
  std::map<std::uint32_t, double> a, b;
  const auto countsA = run(&a);
  const auto countsB = run(&b);
  EXPECT_EQ(a, clean);
  EXPECT_EQ(b, clean);
  EXPECT_EQ(countsA, countsB);
  EXPECT_GT(countsA.first, 0u);
}

TEST(NodeLoss, EvictedCacheBlocksRecomputeFromLineage) {
  Context ctx(scheduledLossCluster(0), 2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 200,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return KV{std::uint32_t(i % 37), double(i)};
                      },
                      8);
  rdd.cache();
  // Materialize the cache; result stages have no node-loss boundary, so
  // all 200 generator calls happen exactly once here.
  EXPECT_EQ(rdd.count(), 200u);
  EXPECT_EQ(counter->load(), 200);
  // The shuffle's stage boundary kills node 0: its 2 cached blocks (of 8)
  // are evicted, and the 2 lost map tasks recompute them from the
  // generator (25 records each).
  auto out = rdd.reduceByKey(
                    [](double& a, const double& b) { a += b; })
                 .collect();
  EXPECT_EQ(out.size(), 37u);
  EXPECT_EQ(ctx.metrics().evictedCacheBlocks(), 2u);
  EXPECT_EQ(ctx.metrics().recomputedMapTasks(), 2u);
  EXPECT_EQ(counter->load(), 250);
}

TEST(NodeLoss, CertainLossExhaustsAttemptsAndAborts) {
  ClusterConfig cfg = cleanCluster();
  cfg.faults.nodeLossRate = 1.0;
  cfg.faults.maxStageAttempts = 2;
  cfg.faults.stageRetryDelaySec = 0.0;
  Context ctx(cfg, 2);
  auto rdd = parallelize(ctx, makeData(100), 8)
                 .reduceByKey(
                     [](double& a, const double& b) { a += b; });
  EXPECT_THROW(rdd.collect(), JobAbortedError);
}

TEST(NodeLoss, SingleAttemptBudgetAbortsOnScheduledLoss) {
  ClusterConfig cfg = scheduledLossCluster(0);
  cfg.faults.maxStageAttempts = 1;
  Context ctx(cfg, 2);
  auto rdd = parallelize(ctx, makeData(100), 8)
                 .reduceByKey(
                     [](double& a, const double& b) { a += b; });
  try {
    rdd.collect();
    FAIL() << "expected JobAbortedError";
  } catch (const JobAbortedError& e) {
    EXPECT_NE(std::string(e.what()).find("fetch failed"), std::string::npos);
  }
}

TEST(NodeLoss, RecoveryDelayIsChargedToClusterTime) {
  auto runWithDelay = [](double delaySec) {
    ClusterConfig cfg = scheduledLossCluster(0);
    cfg.faults.stageRetryDelaySec = delaySec;
    Context ctx(cfg, 2);
    parallelize(ctx, makeData(1000), 8)
        .reduceByKey([](double& a, const double& b) { a += b; })
        .collect();
    return ctx.metrics().simTimeSec();
  };
  const double base = runWithDelay(0.0);
  const double delayed = runWithDelay(5.0);
  // Exactly one shuffle stage lost a node once: one recovery round, one
  // delay charge.
  EXPECT_NEAR(delayed - base, 5.0, 1e-9);
}

TEST(NodeLoss, CpAlsWithChaosYieldsByteIdenticalFactors) {
  auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 500});
  cstf_core::CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = 2;
  o.backend = cstf_core::Backend::kCoo;

  cstf_core::CpAlsResult clean;
  {
    Context ctx(cleanCluster(), 2);
    clean = cstf_core::cpAls(ctx, t, o);
  }
  ClusterConfig cfg = cleanCluster();
  cfg.faults.nodeLossRate = 0.4;
  cfg.faults.stageRetryDelaySec = 0.0;
  Context ctx(cfg, 2);
  auto faulty = cstf_core::cpAls(ctx, t, o);
  EXPECT_GT(ctx.metrics().lostNodes(), 0u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(faulty.factors[m], clean.factors[m])
        << "recovered run must reproduce factors byte-identically";
  }
  // Recovery re-ran strictly fewer map tasks than the job ran in total.
  std::uint64_t totalTasks = 0;
  for (const StageMetrics& s : ctx.metrics().stages()) {
    totalTasks += s.tasks.size();
  }
  EXPECT_GT(ctx.metrics().recomputedMapTasks(), 0u);
  EXPECT_LT(ctx.metrics().recomputedMapTasks(), totalTasks);
}

TEST(NodeLoss, TaskAbortNamesOpAndNode) {
  ClusterConfig cfg = cleanCluster();
  cfg.taskFailureRate = 1.0;
  Context ctx(cfg, 2);
  auto rdd = parallelize(ctx, makeData(100), 4);
  try {
    rdd.count();
    FAIL() << "expected TaskFailedError";
  } catch (const TaskFailedError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("permanently failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node "), std::string::npos) << msg;
    EXPECT_NE(msg.find("task '"), std::string::npos) << msg;
  }
}

TEST(NodeLoss, TaskRetriesAreAttributedToScopes) {
  ClusterConfig cfg = cleanCluster();
  cfg.taskFailureRate = 0.3;
  Context ctx(cfg, 2);
  {
    ScopedStage scope(ctx.metrics(), "phase-a");
    sumByKey(ctx, 800);
  }
  const std::uint64_t total = ctx.metrics().taskRetries();
  EXPECT_GT(total, 0u);
  EXPECT_EQ(ctx.metrics().totalsForScope("phase-a").taskRetries, total);
  EXPECT_EQ(ctx.metrics().totalsForScope("phase-b").taskRetries, 0u);
}

TEST(NodeLoss, NodeLossInjectionIsAPureFunction) {
  ClusterConfig cfg = cleanCluster();
  cfg.faults.nodeLossRate = 0.5;
  for (std::uint64_t stage = 1; stage < 20; ++stage) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(injectNodeLoss(cfg, stage, attempt, true),
                injectNodeLoss(cfg, stage, attempt, true));
    }
  }
  // Scheduled events fire on the first attempt only, regardless of rate.
  cfg.faults.nodeLossRate = 0.0;
  cfg.faults.schedule.push_back({7, 2});
  EXPECT_EQ(injectNodeLoss(cfg, 7, 0, true), 2);
  EXPECT_EQ(injectNodeLoss(cfg, 7, 1, true), -1);
  EXPECT_EQ(injectNodeLoss(cfg, 6, 0, true), -1);
}

}  // namespace
}  // namespace cstf::sparkle
