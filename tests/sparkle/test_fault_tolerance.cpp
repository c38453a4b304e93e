// Fault tolerance: with injected task failures, jobs retry and recompute
// from lineage — results must be byte-identical to a failure-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>

#include "cstf/cstf.hpp"
#include "sparkle/sparkle.hpp"
#include "support/join_pairs.hpp"
#include "tensor/generator.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::joinPairs;

using KV = std::pair<std::uint32_t, double>;

ClusterConfig faultyCluster(double rate) {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  cfg.taskFailureRate = rate;
  return cfg;
}

std::vector<KV> makeData(std::uint32_t n) {
  std::vector<KV> v;
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i % 37, double(i)});
  return v;
}

TEST(FaultTolerance, NoFailuresMeansNoRetries) {
  Context ctx(faultyCluster(0.0), 2);
  parallelize(ctx, makeData(500), 8)
      .reduceByKey([](double& a, const double& b) { a += b; })
      .collect();
  EXPECT_EQ(ctx.metrics().taskRetries(), 0u);
}

TEST(FaultTolerance, ResultsSurviveInjectedFailures) {
  std::map<std::uint32_t, double> clean;
  {
    Context ctx(faultyCluster(0.0), 2);
    auto out = parallelize(ctx, makeData(1000), 8)
                   .mapValues([](const double& v) { return v * 2.0; })
                   .reduceByKey(
                       [](double& a, const double& b) { a += b; })
                   .collect();
    clean.insert(out.begin(), out.end());
  }
  Context ctx(faultyCluster(0.3), 2);
  auto out = parallelize(ctx, makeData(1000), 8)
                 .mapValues([](const double& v) { return v * 2.0; })
                 .reduceByKey(
                     [](double& a, const double& b) { a += b; })
                 .collect();
  std::map<std::uint32_t, double> faulty(out.begin(), out.end());
  EXPECT_EQ(faulty, clean);
  EXPECT_GT(ctx.metrics().taskRetries(), 0u);
}

TEST(FaultTolerance, RetriesAreDeterministic) {
  auto run = [] {
    Context ctx(faultyCluster(0.25), 2);
    parallelize(ctx, makeData(800), 8)
        .reduceByKey([](double& a, const double& b) { a += b; })
        .collect();
    return ctx.metrics().taskRetries();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

TEST(FaultTolerance, RetryRecomputesUncachedLineage) {
  Context ctx(faultyCluster(0.3), 2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto rdd = generate(ctx, 200,
                      [counter](std::size_t i) {
                        counter->fetch_add(1);
                        return static_cast<int>(i);
                      },
                      8);
  const std::size_t n = rdd.count();
  EXPECT_EQ(n, 200u);
  // Some task retried, and each retry re-ran the generator for its
  // partition (25 records per partition).
  EXPECT_GT(ctx.metrics().taskRetries(), 0u);
  EXPECT_EQ(counter->load(),
            200 + 25 * static_cast<int>(ctx.metrics().taskRetries()));
}

TEST(FaultTolerance, CertainFailureEventuallyAborts) {
  Context ctx(faultyCluster(1.0), 2);
  auto rdd = parallelize(ctx, makeData(100), 4);
  EXPECT_THROW(rdd.count(), Error);
}

TEST(FaultTolerance, JoinSurvivesFailures) {
  Context ctx(faultyCluster(0.3), 2);
  std::vector<std::pair<std::uint32_t, int>> right;
  for (std::uint32_t k = 0; k < 37; ++k) right.push_back({k, int(k * 10)});
  auto out =
      joinPairs(parallelize(ctx, makeData(500), 8), parallelize(ctx, right, 4))
          .collect();
  EXPECT_EQ(out.size(), 500u);
  for (const auto& [k, vw] : out) EXPECT_EQ(vw.second, int(k * 10));
}

TEST(FaultTolerance, CpAlsSurvivesFailures) {
  auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 500});
  cstf_core::CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = 2;
  o.backend = cstf_core::Backend::kQcoo;

  cstf_core::CpAlsResult clean;
  {
    Context ctx(faultyCluster(0.0), 2);
    clean = cstf_core::cpAls(ctx, t, o);
  }
  Context ctx(faultyCluster(0.2), 2);
  auto faulty = cstf_core::cpAls(ctx, t, o);
  EXPECT_GT(ctx.metrics().taskRetries(), 0u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_LT(faulty.factors[m].maxAbsDiff(clean.factors[m]), 1e-12)
        << "fault-injected run must produce identical factors";
  }
}

TEST(FaultTolerance, InjectionIsAPureFunction) {
  ClusterConfig cfg = faultyCluster(0.5);
  for (std::uint64_t stage = 1; stage < 20; ++stage) {
    for (std::size_t p = 0; p < 20; ++p) {
      EXPECT_EQ(injectTaskFailure(cfg, stage, p, 0),
                injectTaskFailure(cfg, stage, p, 0));
    }
  }
}

TEST(FaultTolerance, InjectionRateIsRoughlyHonored) {
  ClusterConfig cfg = faultyCluster(0.3);
  int failures = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (injectTaskFailure(cfg, std::uint64_t(i) + 1, i % 64, 0)) ++failures;
  }
  EXPECT_NEAR(double(failures) / trials, 0.3, 0.03);
}

}  // namespace
}  // namespace cstf::sparkle
