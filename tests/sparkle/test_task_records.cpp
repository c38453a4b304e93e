// Per-partition task records, skew statistics, and the live task series.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics_registry.hpp"
#include "sparkle/sparkle.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::shuffleAll;

using KV = std::pair<std::uint32_t, double>;

ClusterConfig cfgNodes(int nodes, double failureRate = 0.0) {
  ClusterConfig cfg;
  cfg.numNodes = nodes;
  cfg.coresPerNode = 2;
  cfg.taskFailureRate = failureRate;
  return cfg;
}

std::vector<KV> uniformData(std::uint32_t n) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i, double(i)});
  return v;
}

/// Every record carries the same key: after a shuffle, one partition
/// holds everything — the canonical skew scenario.
std::vector<KV> constantKeyData(std::uint32_t n) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({7, double(i)});
  return v;
}

const StageMetrics* findStage(const std::vector<StageMetrics>& stages,
                              StageKind kind, const std::string& label) {
  for (const auto& s : stages) {
    if (s.kind == kind && s.label == label) return &s;
  }
  return nullptr;
}

TEST(TaskRecords, ResultStageRecordsOneTaskPerPartition) {
  Context ctx(cfgNodes(4), 2);
  parallelize(ctx, uniformData(100), 4).collect();

  const auto stages = ctx.metrics().stages();
  const StageMetrics* s = findStage(stages, StageKind::kResult, "collect");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->tasks.size(), 4u);
  std::uint64_t records = 0;
  for (std::size_t p = 0; p < s->tasks.size(); ++p) {
    EXPECT_EQ(s->tasks[p].partition, p);
    EXPECT_EQ(s->tasks[p].node, std::uint32_t(ctx.config().nodeOfPartition(p)));
    EXPECT_GE(s->tasks[p].wallTimeSec, 0.0);
    records += s->tasks[p].work.recordsProcessed;
  }
  EXPECT_EQ(records, s->work.recordsProcessed);
  EXPECT_GT(records, 0u);
}

TEST(TaskRecords, MapTaskShuffleBytesSumToStageTotals) {
  Context ctx(cfgNodes(4), 2);
  shuffleAll(parallelize(ctx, uniformData(500), 8), ctx.hashPartitioner(8))
      .materialize();

  const auto stages = ctx.metrics().stages();
  const StageMetrics* s = nullptr;
  for (const auto& st : stages) {
    if (st.kind == StageKind::kShuffle) s = &st;
  }
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->tasks.size(), 8u);
  std::uint64_t taskBytes = 0;
  for (const auto& t : s->tasks) taskBytes += t.shuffleBytesOut;
  EXPECT_EQ(taskBytes, s->shuffleBytesRemote + s->shuffleBytesLocal)
      << "per-task map output must decompose the stage's shuffle volume";
}

TEST(TaskRecords, SkewedPartitioningShowsUpInSkewStats) {
  Context ctx(cfgNodes(4), 2);
  // All 800 records hash to one of 8 partitions; the downstream stage (the
  // reduce-side merge) has one heavy task and seven idle ones.
  shuffleAll(parallelize(ctx, constantKeyData(800), 8),
             ctx.hashPartitioner(8))
      .count();

  const auto stages = ctx.metrics().stages();
  const StageMetrics* s = findStage(stages, StageKind::kResult, "count");
  ASSERT_NE(s, nullptr);
  const TaskSkewStats skew = computeTaskSkew(s->tasks);
  EXPECT_EQ(skew.tasks, 8u);
  EXPECT_GT(skew.maxSec, 0.0);
  // One task carries everything: max/mean approaches the partition count.
  EXPECT_GE(skew.imbalance, 2.0);
  EXPECT_GE(skew.p95Sec, skew.p50Sec);
  EXPECT_GE(skew.maxSec, skew.p95Sec);
  // The heaviest partition is the one all keys hashed to.
  EXPECT_EQ(s->tasks[skew.heaviestPartition].work.recordsProcessed, 800u);
}

TEST(TaskRecords, BalancedStageHasLowImbalance) {
  Context ctx(cfgNodes(4), 2);
  parallelize(ctx, uniformData(800), 8)
      .mapValues([](const double& v) { return v + 1.0; })
      .count();
  const auto stages = ctx.metrics().stages();
  const StageMetrics* s = findStage(stages, StageKind::kResult, "count");
  ASSERT_NE(s, nullptr);
  const TaskSkewStats skew = computeTaskSkew(s->tasks);
  EXPECT_GE(skew.imbalance, 1.0);
  EXPECT_LT(skew.imbalance, 1.5)
      << "uniform data over equal partitions must be nearly balanced";
}

TEST(TaskRecords, SkewForScopePoolsTasksAcrossStages) {
  Context ctx(cfgNodes(4), 2);
  {
    ScopedStage scope(ctx.metrics(), "phase-a");
    parallelize(ctx, uniformData(100), 4).count();
    parallelize(ctx, uniformData(100), 4).count();
  }
  parallelize(ctx, uniformData(100), 4).count();  // outside the scope
  std::vector<TaskRecord> pooled;
  for (const StageMetrics& s : ctx.metrics().stages()) {
    if (s.scope != "phase-a") continue;
    pooled.insert(pooled.end(), s.tasks.begin(), s.tasks.end());
  }
  EXPECT_EQ(computeTaskSkew(pooled).tasks, 8u);
  EXPECT_EQ(ctx.metrics().stages().size(), 3u);
}

TEST(TaskRecords, ComputeTaskSkewEdgeCases) {
  EXPECT_EQ(computeTaskSkew({}).tasks, 0u);
  EXPECT_DOUBLE_EQ(computeTaskSkew({}).imbalance, 0.0);

  // All-zero work: balanced by definition, not a division by zero.
  std::vector<TaskRecord> idle(4);
  for (std::uint32_t p = 0; p < 4; ++p) idle[p].partition = p;
  const TaskSkewStats z = computeTaskSkew(idle);
  EXPECT_EQ(z.tasks, 4u);
  EXPECT_DOUBLE_EQ(z.imbalance, 1.0);

  std::vector<TaskRecord> two(2);
  two[0].partition = 0;
  two[0].simTimeSec = 1.0;
  two[1].partition = 1;
  two[1].simTimeSec = 3.0;
  const TaskSkewStats s = computeTaskSkew(two);
  EXPECT_DOUBLE_EQ(s.meanSec, 2.0);
  EXPECT_DOUBLE_EQ(s.p50Sec, 1.0);
  EXPECT_DOUBLE_EQ(s.p95Sec, 3.0);
  EXPECT_DOUBLE_EQ(s.maxSec, 3.0);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.5);
  EXPECT_EQ(s.heaviestPartition, 1u);
}

TEST(TaskRecords, RetriesAreCountedPerStageAndInTotals) {
  Context ctx(cfgNodes(4, /*failureRate=*/0.3), 2);
  parallelize(ctx, uniformData(1000), 8)
      .reduceByKey([](double& a, const double& b) { a += b; })
      .collect();

  const std::uint64_t global = ctx.metrics().taskRetries();
  EXPECT_GT(global, 0u) << "0.3 failure rate must inject at least one retry";
  EXPECT_EQ(ctx.metrics().totals().taskRetries, global)
      << "per-stage retry attribution must add up to the global counter";
  std::uint64_t perStage = 0;
  for (const auto& s : ctx.metrics().stages()) perStage += s.taskRetries;
  EXPECT_EQ(perStage, global);
}

TEST(TaskRecords, InflightGaugeReadsZeroAfterAStage) {
  metrics::Registry& live = metrics::globalRegistry();
  const metrics::Counter& started =
      live.counter("sparkle_tasks_started_total");
  const metrics::Counter& finished =
      live.counter("sparkle_tasks_finished_total");
  const std::uint64_t startedBefore = started.value();
  const std::uint64_t finishedBefore = finished.value();
  Context ctx(cfgNodes(4), 4);
  parallelize(ctx, uniformData(1000), 8)
      .reduceByKey([](double& a, const double& b) { a += b; })
      .collect();
  EXPECT_GE(started.value() - startedBefore, 8u);
  EXPECT_EQ(finished.value() - finishedBefore,
            started.value() - startedBefore);
  EXPECT_EQ(live.gauge("sparkle_tasks_inflight").value(), 0.0);

  // A task that fails for good is no longer in flight either.
  Context failing(cfgNodes(2, /*failureRate=*/1.0), 2);
  EXPECT_THROW(parallelize(failing, uniformData(100), 4).count(),
               TaskFailedError);
  EXPECT_EQ(live.gauge("sparkle_tasks_inflight").value(), 0.0);
}

}  // namespace
}  // namespace cstf::sparkle
