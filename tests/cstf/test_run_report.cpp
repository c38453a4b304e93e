// RunReport: golden shape of the per-(iteration, mode) telemetry, JSON
// validity, and the exact-decomposition guarantees against the registry.
#include "cstf/run_report.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cstf/cp_als.hpp"
#include "sparkle/sparkle.hpp"
#include "support/json_check.hpp"
#include "tensor/generator.hpp"

namespace cstf::cstf_core {
namespace {

sparkle::ClusterConfig testCluster() {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return cfg;
}

CpAlsOptions reportOpts(Backend b, int iters = 2) {
  CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = iters;
  o.tolerance = 0.0;  // never converge early: the shape test needs N iters
  o.backend = b;
  o.seed = 7;
  return o;
}

class RunReportShape : public ::testing::TestWithParam<Backend> {};

TEST_P(RunReportShape, OneEntryPerIterationAndMode) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 70});
  auto res = cpAls(ctx, t, reportOpts(GetParam(), 2));

  const RunReport& r = res.report;
  EXPECT_EQ(r.backend, backendName(GetParam()));
  EXPECT_EQ(r.rank, 2u);
  EXPECT_EQ(r.dims, t.dims());
  EXPECT_EQ(r.nnz, t.nnz());
  EXPECT_EQ(r.nodes, 4);
  EXPECT_EQ(r.finalFit, res.finalFit);

  ASSERT_EQ(r.iterations.size(), 2u);
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    const IterationTelemetry& it = r.iterations[i];
    EXPECT_EQ(it.iteration, int(i) + 1);
    ASSERT_EQ(it.modes.size(), std::size_t(t.order()))
        << "one telemetry entry per mode per iteration";
    double modeSim = 0.0;
    for (std::size_t m = 0; m < it.modes.size(); ++m) {
      EXPECT_EQ(it.modes[m].iteration, int(i) + 1);
      EXPECT_EQ(it.modes[m].mode, int(m) + 1);
      modeSim += it.modes[m].simTimeSec;
    }
    // Mode entries are registry deltas across the iteration: they must
    // decompose the iteration's engine time exactly.
    EXPECT_NEAR(modeSim, it.simTimeSec, 1e-9 + 1e-9 * it.simTimeSec);
    EXPECT_GT(it.lambdaL2, 0.0);
    EXPECT_LE(it.lambdaMin, it.lambdaMax);
    EXPECT_EQ(it.fit, res.iterations[i].fit);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RunReportShape,
                         ::testing::Values(Backend::kCoo, Backend::kQcoo));

TEST(RunReport, StageSumsMatchRegistryTotalsExactly) {
  // The join chain (coo kernel) and broadcast-local (csf kernel), so the
  // broadcast bytes are summed over stages that have some.
  for (const sparkle::LocalKernel kernel :
       {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
    SCOPED_TRACE(sparkle::localKernelName(kernel));
    sparkle::ClusterConfig cfg = testCluster();
    cfg.localKernel = kernel;
    sparkle::Context ctx(cfg, 2);
    auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 70});
    auto res = cpAls(ctx, t, reportOpts(Backend::kCoo, 2));
    const RunReport& r = res.report;

    const sparkle::MetricsTotals live = ctx.metrics().totals();
    EXPECT_EQ(r.totals.shuffleBytesRemote, live.shuffleBytesRemote);
    EXPECT_EQ(r.totals.shuffleBytesLocal, live.shuffleBytesLocal);
    EXPECT_EQ(r.totals.shuffleRecords, live.shuffleRecords);
    EXPECT_EQ(r.totals.flops, live.flops);
    EXPECT_EQ(r.stages.size(), live.stages);

    // The acceptance bar: every per-stage counter sums to its total, with no
    // drift between the two views.
    std::uint64_t remote = 0;
    std::uint64_t local = 0;
    std::uint64_t records = 0;
    std::uint64_t processed = 0;
    std::uint64_t flops = 0;
    std::uint64_t source = 0;
    std::uint64_t broadcast = 0;
    std::set<std::uint64_t> shuffleOps;
    double sim = 0.0;
    for (const StageSummary& s : r.stages) {
      remote += s.shuffleBytesRemote;
      local += s.shuffleBytesLocal;
      records += s.shuffleRecords;
      processed += s.recordsProcessed;
      flops += s.flops;
      source += s.sourceBytesRead;
      broadcast += s.broadcastBytes;
      if (s.shuffleOpId != 0) shuffleOps.insert(s.shuffleOpId);
      sim += s.simTimeSec;
    }
    EXPECT_EQ(remote, r.totals.shuffleBytesRemote);
    EXPECT_EQ(local, r.totals.shuffleBytesLocal);
    EXPECT_EQ(records, r.totals.shuffleRecords);
    EXPECT_EQ(processed, r.totals.recordsProcessed);
    EXPECT_GT(processed, 0u);
    EXPECT_EQ(flops, r.totals.flops);
    EXPECT_GT(flops, 0u);
    EXPECT_EQ(source, r.totals.sourceBytesRead);
    EXPECT_EQ(broadcast, r.totals.broadcastBytes);
    if (kernel == sparkle::LocalKernel::kCsf) {
      EXPECT_GT(broadcast, 0u);
    }
    EXPECT_EQ(shuffleOps.size(), r.totals.shuffleOps);
    EXPECT_NEAR(sim, r.totals.simTimeSec, 1e-9 + 1e-9 * sim);
  }
}

TEST(RunReport, ScopeWithCommaAndQuotesSurvivesTheJson) {
  sparkle::Context ctx(testCluster(), 2);
  const std::string scope = "we,ird \"scope\"";
  {
    sparkle::ScopedStage tag(ctx.metrics(), scope);
    sparkle::parallelize(ctx, std::vector<int>(50, 1), 2).count();
  }
  RunReport r;
  finalizeRunReport(ctx.metrics(), r);
  ASSERT_FALSE(r.stages.empty());
  for (const StageSummary& s : r.stages) EXPECT_EQ(s.scope, scope);
  const std::string json = r.toJson();
  EXPECT_TRUE(testsupport::isValidJson(json)) << json;
  EXPECT_NE(json.find(R"("shuffleOpId":0,"scope":"we,ird \"scope\"")"),
            std::string::npos)
      << json;
  // The stage's work counters travel with it.
  const StageSummary& st = r.stages[0];
  EXPECT_GT(st.recordsProcessed, 0u);
  EXPECT_NE(json.find("\"kind\":\"" + st.kind + "\",\"recordsProcessed\":" +
                      std::to_string(st.recordsProcessed) + ","),
            std::string::npos)
      << json;
}

TEST(RunReport, StagesCarrySkewAndScopes) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 70});
  auto res = cpAls(ctx, t, reportOpts(Backend::kCoo, 1));

  bool sawMttkrpScope = false;
  bool sawTasks = false;
  for (const StageSummary& s : res.report.stages) {
    if (s.scope.rfind("MTTKRP-", 0) == 0) sawMttkrpScope = true;
    if (s.skew.tasks > 0) {
      sawTasks = true;
      EXPECT_GE(s.skew.imbalance, 0.0);
      EXPECT_GE(s.skew.maxSec, s.skew.p95Sec);
      EXPECT_GE(s.skew.p95Sec, s.skew.p50Sec);
    }
    EXPECT_FALSE(s.kind.empty());
  }
  EXPECT_TRUE(sawMttkrpScope);
  EXPECT_TRUE(sawTasks);
}

TEST(RunReport, JsonIsValidAndCarriesSchema) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 70});
  auto res = cpAls(ctx, t, reportOpts(Backend::kQcoo, 2));
  const std::string json = res.report.toJson();

  EXPECT_TRUE(testsupport::isValidJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"cstf-run-report-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"iterations\""), std::string::npos);
  EXPECT_NE(json.find("\"modes\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"backend\":\"CSTF-QCOO\""), std::string::npos);
}

TEST(RunReport, EmptyReportSerializesToValidJson) {
  RunReport r;
  EXPECT_TRUE(testsupport::isValidJson(r.toJson()));
}

TEST(SkewPolicies, ReportExposesReduceSkewTelemetry) {
  auto t = tensor::generateZipf({300, 300, 300}, 4000, 1.1, 5);
  sparkle::Context ctx(testCluster(), 2);
  auto res = cpAls(ctx, t, reportOpts(Backend::kCoo, 1));
  ASSERT_FALSE(res.report.iterations.empty());
  ASSERT_FALSE(res.report.iterations[0].modes.empty());
  bool sawReduceRecords = false;
  for (const auto& mt : res.report.iterations[0].modes) {
    if (mt.reduceSkew.partitions > 0) sawReduceRecords = true;
  }
  EXPECT_TRUE(sawReduceRecords);
  const std::string json = res.report.toJson();
  EXPECT_NE(json.find("\"reduceSkew\""), std::string::npos);
}

}  // namespace
}  // namespace cstf::cstf_core
