// Per-partition task records, skew statistics, the metrics CSV, and the
// straggler log.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
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

TEST(MetricsCsv, HasHeaderAndRows) {
  Context ctx(cfgNodes(4), 2);
  {
    ScopedStage scope(ctx.metrics(), "MTTKRP-1");
    shuffleAll(parallelize(ctx, uniformData(2), 2), ctx.hashPartitioner(2))
        .materialize();
  }
  const std::string csv = ctx.metrics().toCsv();
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("stage_id"), std::string::npos);
  EXPECT_NE(header.find("shuffle_bytes_remote"), std::string::npos);

  std::size_t rows = 0;
  std::size_t scoped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++rows;
    if (line.find("MTTKRP-1") != std::string::npos) ++scoped;
  }
  EXPECT_EQ(rows, ctx.metrics().stages().size());
  EXPECT_GE(scoped, 1u);
  // Column count is stable: 26 commas per row (14 base columns + retries +
  // 6 task-skew columns + 3 reduce-record-skew columns + 3 node-loss
  // recovery columns).
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 26);
  EXPECT_NE(header.find("recomputed_map_tasks"), std::string::npos);
  EXPECT_NE(header.find("reduce_imbalance"), std::string::npos);
}

TEST(MetricsCsv, EscapesScopesAndIncludesRetries) {
  Context ctx(cfgNodes(2), 2);
  {
    ScopedStage scope(ctx.metrics(), "we,ird \"scope\"");
    parallelize(ctx, uniformData(50), 2).count();
  }
  const std::string csv = ctx.metrics().toCsv();
  EXPECT_NE(csv.find("task_retries"), std::string::npos);
  EXPECT_NE(csv.find("task_imbalance"), std::string::npos);
  // RFC-4180: the field is quoted and inner quotes doubled.
  EXPECT_NE(csv.find("\"we,ird \"\"scope\"\"\""), std::string::npos) << csv;
}

TEST(StragglerLog, WarnsForTheFirstThreeThenSummarizesOnce) {
  const LogLevel savedLevel = logLevel();
  setLogLevel(LogLevel::kWarn);
  const metrics::Counter& flaggedTotal =
      metrics::globalRegistry().counter("sparkle_straggler_tasks_total");
  const std::uint64_t before = flaggedTotal.value();
  ::testing::internal::CaptureStderr();
  {
    Context ctx(cfgNodes(4), 2);
    StragglerWatchdog& w = ctx.straggler();
    // Thirty 0.1 s tasks fix stage 1's median; ten 1 s tasks then flag.
    for (std::uint32_t p = 0; p < 40; ++p) {
      w.taskStarted(1, p, 0.0);
      w.taskFinished(1, p, p < 30 ? 0.1 : 1.0);
    }
    EXPECT_EQ(w.flagged(), 10u);
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  setLogLevel(savedLevel);

  std::istringstream lines(err);
  int warnings = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("[WARN]") != std::string::npos &&
        line.find("straggler") != std::string::npos) {
      ++warnings;
    }
  }
  EXPECT_EQ(warnings, 4) << err;  // three events plus one summary
  EXPECT_NE(err.find("7 more flagged tasks"), std::string::npos) << err;
  EXPECT_EQ(flaggedTotal.value() - before, 10u);
}

}  // namespace
}  // namespace cstf::sparkle
