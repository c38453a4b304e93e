#include "cstf/cp_als.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ios>
#include <string>
#include <vector>

#include "sparkle/sparkle.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::cstf_core {
namespace {

sparkle::ClusterConfig testCluster() {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return cfg;
}

CpAlsOptions baseOpts(Backend b, int iters = 8) {
  CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = iters;
  o.backend = b;
  o.seed = 7;
  return o;
}

TEST(CpAls, ReferenceBackendRecoversLowRankTensor) {
  sparkle::Context ctx(testCluster(), 2);
  // Fully observed grid: exactly rank 2.
  auto t = tensor::generateLowRank({12, 12, 10}, 2, 12 * 12 * 10, 5);
  auto o = baseOpts(Backend::kReference, 80);
  o.tolerance = 1e-10;
  auto res = cpAls(ctx, t, o);
  EXPECT_GT(res.finalFit, 0.99)
      << "rank-2 ALS must fit a rank-2 tensor almost perfectly";
}

TEST(CpAls, FitMatchesDirectComputation) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{12, 14, 10}, 300, {}, 70});
  auto res = cpAls(ctx, t, baseOpts(Backend::kCoo, 3));
  const double direct = tensor::cpFit(t, res.factors, res.lambda);
  EXPECT_NEAR(res.finalFit, direct, 1e-8)
      << "the MTTKRP-based fit trick must equal the direct formula";
}

TEST(CpAls, AllBackendsProduceIdenticalFactors) {
  // Same seed, same schedule: every distributed backend must walk the
  // exact same ALS trajectory as the sequential reference.
  auto t = tensor::generateRandom({{15, 12, 10}, 400, {}, 71});
  CpAlsResult ref;
  {
    sparkle::Context ctx(testCluster(), 2);
    ref = cpAls(ctx, t, baseOpts(Backend::kReference, 4));
  }
  for (Backend b : {Backend::kCoo, Backend::kQcoo, Backend::kBigtensor}) {
    sparkle::Context ctx(testCluster(), 2);
    auto res = cpAls(ctx, t, baseOpts(b, 4));
    ASSERT_EQ(res.factors.size(), ref.factors.size());
    for (std::size_t m = 0; m < ref.factors.size(); ++m) {
      EXPECT_LT(res.factors[m].maxAbsDiff(ref.factors[m]), 1e-8)
          << backendName(b) << " factor " << m;
    }
    for (std::size_t r = 0; r < ref.lambda.size(); ++r) {
      EXPECT_NEAR(res.lambda[r], ref.lambda[r], 1e-8) << backendName(b);
    }
    EXPECT_NEAR(res.finalFit, ref.finalFit, 1e-8) << backendName(b);
  }
}

TEST(CpAls, QcooMatchesReferenceOn4Order) {
  auto t = tensor::generateRandom({{8, 10, 9, 6}, 300, {}, 72});
  CpAlsResult ref;
  {
    sparkle::Context ctx(testCluster(), 2);
    ref = cpAls(ctx, t, baseOpts(Backend::kReference, 3));
  }
  sparkle::Context ctx(testCluster(), 2);
  auto res = cpAls(ctx, t, baseOpts(Backend::kQcoo, 3));
  EXPECT_NEAR(res.finalFit, ref.finalFit, 1e-8);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_LT(res.factors[m].maxAbsDiff(ref.factors[m]), 1e-8);
  }
}

TEST(CpAls, FitIsNonDecreasing) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{15, 15, 15}, 500, {}, 73});
  auto res = cpAls(ctx, t, baseOpts(Backend::kCoo, 6));
  for (std::size_t i = 1; i < res.iterations.size(); ++i) {
    EXPECT_GE(res.iterations[i].fit, res.iterations[i - 1].fit - 1e-9)
        << "ALS fit must not decrease (iteration " << i << ")";
  }
}

TEST(CpAls, ConvergesAndStopsEarly) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateLowRank({15, 15, 15}, 2, 800, 9);
  auto o = baseOpts(Backend::kReference, 100);
  o.tolerance = 1e-7;
  auto res = cpAls(ctx, t, o);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations.size(), 100u);
}

TEST(CpAls, BigtensorRejects4Order) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{5, 5, 5, 5}, 50, {}, 74});
  EXPECT_THROW(cpAls(ctx, t, baseOpts(Backend::kBigtensor, 2)), Error);
}

TEST(CpAls, LambdaIsPositiveAndFactorsNormalized) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{10, 10, 10}, 300, {}, 75});
  auto res = cpAls(ctx, t, baseOpts(Backend::kCoo, 3));
  for (double l : res.lambda) EXPECT_GT(l, 0.0);
  for (const auto& f : res.factors) {
    for (std::size_t r = 0; r < f.cols(); ++r) {
      double s = 0;
      for (std::size_t i = 0; i < f.rows(); ++i) s += f(i, r) * f(i, r);
      EXPECT_NEAR(s, 1.0, 1e-9);
    }
  }
}

TEST(CpAls, PerIterationStatsPopulated) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{10, 10, 10}, 200, {}, 76});
  auto res = cpAls(ctx, t, baseOpts(Backend::kCoo, 3));
  ASSERT_EQ(res.iterations.size(), 3u);
  for (const auto& it : res.iterations) {
    EXPECT_GT(it.simTimeSec, 0.0);
    EXPECT_GT(it.wallTimeSec, 0.0);
  }
}

TEST(CpAls, ScopesCoverAllModes) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{10, 10, 10}, 200, {}, 77});
  cpAls(ctx, t, baseOpts(Backend::kCoo, 2));
  for (int mode = 1; mode <= 3; ++mode) {
    const auto s = ctx.metrics().totalsForScope("MTTKRP-" +
                                                std::to_string(mode));
    EXPECT_GT(s.shuffleOps, 0u) << "mode " << mode;
    EXPECT_GT(s.simTimeSec, 0.0) << "mode " << mode;
  }
}

TEST(CpAls, HigherRankRuns) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{12, 12, 12}, 300, {}, 78});
  auto o = baseOpts(Backend::kQcoo, 2);
  o.rank = 8;  // beyond the SmallVec inline capacity
  auto res = cpAls(ctx, t, o);
  EXPECT_EQ(res.factors[0].cols(), 8u);
  const double direct = tensor::cpFit(t, res.factors, res.lambda);
  EXPECT_NEAR(res.finalFit, direct, 1e-8);
}

TEST(CpAls, RejectsBadOptions) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{5, 5, 5}, 20, {}, 79});
  auto o = baseOpts(Backend::kCoo);
  o.rank = 0;
  EXPECT_THROW(cpAls(ctx, t, o), Error);
  o = baseOpts(Backend::kCoo);
  o.maxIterations = 0;
  EXPECT_THROW(cpAls(ctx, t, o), Error);
}

/// A double's bit pattern, for exact comparison against captured literals.
std::uint64_t bitsOf(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

std::string hexList(const std::vector<std::uint64_t>& v) {
  std::string s;
  char buf[32];
  for (const std::uint64_t x : v) {
    std::snprintf(buf, sizeof buf, "0x%016llxull, ",
                  static_cast<unsigned long long>(x));
    s += buf;
  }
  return s;
}

TEST(CpAls, FitFromGramCacheMatchesModelNormSqBits) {
  // The fit's model norm reuses CP-ALS's gram cache instead of recomputing
  // every gram through tensor::modelNormSq(factors, lambda). On every plan
  // resolvePlan accepts, each iteration's fit must keep the exact bits it
  // had when the fit called modelNormSq; the literals were captured then.
  struct PlanCase {
    const char* plan;
    Backend backend;
    sparkle::LocalKernel kernel;
    std::vector<std::uint64_t> fits;
  };
  const std::vector<PlanCase> cases = {
      {"join-chain CSTF-COO", Backend::kCoo, sparkle::LocalKernel::kCoo,
       {0x3fd04e45090fbc8eull, 0x3fd168c130ec874cull, 0x3fd19ff66a4e8a3cull}},
      {"join-chain CSTF-QCOO", Backend::kQcoo, sparkle::LocalKernel::kCoo,
       {0x3fd04e45090fbc8eull, 0x3fd168c130ec874cull, 0x3fd19ff66a4e8a3cull}},
      {"join-chain BIGtensor", Backend::kBigtensor,
       sparkle::LocalKernel::kCoo,
       {0x3fd04e45090fbc8eull, 0x3fd168c130ec8746ull, 0x3fd19ff66a4e8a3cull}},
      {"broadcast-local, csf kernel", Backend::kCoo,
       sparkle::LocalKernel::kCsf,
       {0x3fd04e45090fbc92ull, 0x3fd168c130ec874cull, 0x3fd19ff66a4e8a40ull}},
      {"sequential reference", Backend::kReference,
       sparkle::LocalKernel::kCoo,
       {0x3fd04e45090fbc8eull, 0x3fd168c130ec874cull, 0x3fd19ff66a4e8a3cull}},
  };
  const auto t = tensor::generateZipf({14, 11, 9}, 400, 1.1, 72);
  for (const PlanCase& c : cases) {
    sparkle::ClusterConfig cfg = testCluster();
    cfg.localKernel = c.kernel;
    sparkle::Context ctx(cfg, 2);
    auto o = baseOpts(c.backend, 3);
    o.rank = 3;
    o.tolerance = 0.0;
    std::vector<std::uint64_t> fits;
    o.onIteration = [&](const CpAlsIterationStats& it) {
      fits.push_back(bitsOf(it.fit));
    };
    const CpAlsResult res = cpAls(ctx, t, o);
    EXPECT_EQ(res.report.plan, c.plan);
    EXPECT_EQ(fits, c.fits) << c.plan << ": " << hexList(fits);
  }
}

TEST(FitDelta, FirstIterationDeltaIsUndefined) {
  auto t = tensor::generateZipf({40, 35, 30}, 800, 0.8, 3);
  sparkle::Context ctx(testCluster(), 2);
  auto o = baseOpts(Backend::kCoo, 3);
  o.tolerance = 0.0;
  auto res = cpAls(ctx, t, o);
  ASSERT_GE(res.iterations.size(), 2u);
  EXPECT_TRUE(std::isnan(res.iterations[0].fitDelta))
      << "iteration 1 has no previous fit; its delta must be undefined";
  EXPECT_TRUE(std::isfinite(res.iterations[1].fitDelta));
  ASSERT_GE(res.report.iterations.size(), 2u);
  EXPECT_TRUE(std::isnan(res.report.iterations[0].fitDelta));

  // JSON: NaN is not representable and degrades to null, exactly once here.
  const std::string json = res.report.toJson();
  EXPECT_NE(json.find("\"fitDelta\":null"), std::string::npos);
}

TEST(FitDelta, ConvergenceCheckUnaffectedByUndefinedFirstDelta) {
  // With an absurdly loose tolerance the run must still execute TWO
  // iterations: iteration 1 can never satisfy the convergence check
  // because it has no previous fit to compare against.
  auto t = tensor::generateZipf({40, 35, 30}, 800, 0.8, 3);
  sparkle::Context ctx(testCluster(), 2);
  auto o = baseOpts(Backend::kCoo, 10);
  o.tolerance = 1e9;
  auto res = cpAls(ctx, t, o);
  EXPECT_EQ(res.iterations.size(), 2u);
  EXPECT_TRUE(res.converged);
}

TEST(FitNumerics, NanFitNeverConverges) {
  // Two ways a fit turns NaN: a NaN tensor value (the norm of X is NaN),
  // and values near 1e200 whose squares overflow (inf / inf). Either way
  // the fit must stay NaN, never a stand-in 0 or 1 that "converges", and
  // NaN never passes the convergence test: the run goes to maxIterations,
  // finalFit is NaN, and nothing throws.
  const auto t = tensor::generateRandom({{8, 7, 6}, 120, {}, 41});
  std::vector<tensor::Nonzero> withNan = t.nonzeros();
  withNan[17].val = std::nan("");
  std::vector<tensor::Nonzero> overflow = t.nonzeros();
  for (tensor::Nonzero& nz : overflow) nz.val *= 1e200;
  for (const auto& nz : {withNan, overflow}) {
    const tensor::CooTensor x(t.dims(), nz);
    for (const Backend b : {Backend::kReference, Backend::kCoo}) {
      sparkle::Context ctx(testCluster(), 2);
      auto o = baseOpts(b, 4);
      o.tolerance = 1e9;
      CpAlsResult res;
      ASSERT_NO_THROW(res = cpAls(ctx, x, o)) << backendName(b);
      EXPECT_EQ(res.iterations.size(), 4u) << backendName(b);
      EXPECT_FALSE(res.converged) << backendName(b);
      for (const CpAlsIterationStats& it : res.iterations) {
        EXPECT_TRUE(std::isnan(it.fit))
            << backendName(b) << " iteration " << it.iteration;
      }
      EXPECT_TRUE(std::isnan(res.finalFit)) << backendName(b);
    }
  }
}

}  // namespace
}  // namespace cstf::cstf_core
