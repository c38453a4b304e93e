// RunReport: golden shape of the per-(iteration, mode) telemetry, JSON
// validity, and the exact-decomposition guarantees against the registry.
#include "cstf/run_report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>
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
  CpAlsOptions o = reportOpts(GetParam(), 2);
  std::vector<CpAlsIterationStats> seen;
  o.onIteration = [&](const CpAlsIterationStats& it) { seen.push_back(it); };
  auto res = cpAls(ctx, t, o);

  const RunReport& r = res.report;
  EXPECT_EQ(r.backend, backendName(GetParam()));
  EXPECT_EQ(r.rank, 2u);
  EXPECT_EQ(r.dims, t.dims());
  EXPECT_EQ(r.nnz, t.nnz());
  EXPECT_EQ(r.nodes, 4);
  EXPECT_EQ(r.finalFit, res.finalFit);

  ASSERT_EQ(r.iterations.size(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    const CpAlsIterationStats& it = r.iterations[i];
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
    // onIteration receives the record the report keeps.
    EXPECT_EQ(it.fit, seen[i].fit);
    EXPECT_EQ(it.lambdaL2, seen[i].lambdaL2);
    EXPECT_EQ(it.modes.size(), seen[i].modes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RunReportShape,
                         ::testing::Values(Backend::kCoo, Backend::kQcoo));

TEST(RunReport, StageSumsMatchRegistryTotalsExactly) {
  // The join chain (coo kernel) and broadcast-local (csf kernel), so the
  // broadcast bytes are summed over stages that have some; task failures
  // and scheduled node losses make the fault counters non-zero.
  for (const sparkle::LocalKernel kernel :
       {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
    SCOPED_TRACE(sparkle::localKernelName(kernel));
    sparkle::ClusterConfig cfg = testCluster();
    cfg.localKernel = kernel;
    cfg.taskFailureRate = 0.2;
    cfg.faults.allowEnvChaos = false;
    for (std::uint64_t s = 2; s <= 40; s += 3) {
      cfg.faults.schedule.push_back({s, int(s % 4)});
    }
    sparkle::Context ctx(cfg, 2);
    auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 70});
    auto res = cpAls(ctx, t, reportOpts(Backend::kCoo, 2));
    const RunReport& r = res.report;

    const sparkle::MetricsTotals live = ctx.metrics().totals();
    EXPECT_EQ(r.stages.size(), live.stages);
    std::set<std::uint64_t> shuffleOps;
    for (const StageSummary& s : r.stages) {
      if (s.shuffleOpId != 0) shuffleOps.insert(s.shuffleOpId);
    }
    EXPECT_EQ(shuffleOps.size(), r.totals.shuffleOps);

    // The acceptance bar: every field of the counter block sums over the
    // stages to its total in the same order, so exactly, doubles included.
    // Per u64 counter, the mode rows plus the stages outside every mode
    // update (scopes other than MTTKRP-* and Other) decompose it too.
    std::size_t walkedBytes = 0;
    sparkle::StageCounts::forEachField([&](const char* name, auto field) {
      using T = std::remove_cvref_t<decltype(r.totals.*field)>;
      walkedBytes += sizeof(T);
      T stageSum{};
      T outsideModes{};
      for (const StageSummary& s : r.stages) {
        stageSum += s.*field;
        if (s.scope.rfind("MTTKRP-", 0) != 0 && s.scope != "Other") {
          outsideModes += s.*field;
        }
      }
      EXPECT_EQ(stageSum, r.totals.*field) << name;
      EXPECT_EQ(live.*field, r.totals.*field) << name;
      if constexpr (std::is_same_v<T, std::uint64_t>) {
        T modeSum{};
        for (const CpAlsIterationStats& it : r.iterations) {
          for (const ModeTelemetry& m : it.modes) modeSum += m.*field;
        }
        EXPECT_EQ(modeSum + outsideModes, r.totals.*field) << name;
      }
    });
    EXPECT_EQ(walkedBytes, sizeof(sparkle::StageCounts))
        << "a StageCounts member is missing from forEachField";

    EXPECT_GT(r.totals.recordsProcessed, 0u);
    EXPECT_GT(r.totals.flops, 0u);
    EXPECT_GT(r.totals.taskRetries, 0u);
    if (kernel == sparkle::LocalKernel::kCoo) {
      // Node losses fire at shuffle fetches, which only the join chain has.
      EXPECT_GT(r.totals.lostNodes, 0u);
      EXPECT_GT(r.totals.recomputedMapTasks, 0u);
      EXPECT_GT(r.totals.evictedCacheBlocks, 0u);
    } else {
      EXPECT_GT(r.totals.broadcastBytes, 0u);
    }
  }
}

TEST(RunReport, AbortedRunCarriesItsPartialReport) {
  // Find a shuffle stage of iteration 2 in a clean run: its stage ids are
  // those past every stage id of a clean one-iteration run.
  auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 70});
  sparkle::ClusterConfig cfg = testCluster();
  cfg.faults.allowEnvChaos = false;
  std::uint64_t lastOfIter1 = 0;
  {
    sparkle::Context ctx(cfg, 2);
    for (const StageSummary& s :
         cpAls(ctx, t, reportOpts(Backend::kCoo, 1)).report.stages) {
      lastOfIter1 = std::max(lastOfIter1, s.stageId);
    }
  }
  std::uint64_t target = 0;
  {
    sparkle::Context ctx(cfg, 2);
    for (const StageSummary& s :
         cpAls(ctx, t, reportOpts(Backend::kCoo, 2)).report.stages) {
      if (s.stageId > lastOfIter1 && s.kind == "shuffle" && target == 0) {
        target = s.stageId;
      }
    }
  }
  ASSERT_NE(target, 0u);

  // One stage attempt: the scheduled loss there aborts the job.
  cfg.faults.maxStageAttempts = 1;
  cfg.faults.schedule = {{target, 0}};
  sparkle::Context ctx(cfg, 2);
  try {
    cpAls(ctx, t, reportOpts(Backend::kCoo, 3));
    FAIL() << "expected CpAlsAbortedError";
  } catch (const CpAlsAbortedError& e) {
    EXPECT_EQ(e.report.iterations.size(), 1u);
    EXPECT_FALSE(e.report.stages.empty());
    EXPECT_FALSE(e.report.converged);
    EXPECT_EQ(e.report.finalFit, e.report.iterations.back().fit);
    EXPECT_EQ(e.report.stages.size(), e.report.totals.stages);
    EXPECT_TRUE(testsupport::isValidJson(e.report.toJson()));
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
