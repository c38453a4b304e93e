#include "cstf/sketch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "cstf/cp_als.hpp"
#include "cstf/factors.hpp"
#include "la/matrix.hpp"
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

CpAlsOptions sketchedOpts(int iters, std::size_t samples, int fitEvery,
                          std::uint64_t sketchSeed = 0x5eed) {
  CpAlsOptions o;
  o.rank = 4;
  o.maxIterations = iters;
  o.tolerance = 0.0;
  o.backend = Backend::kCoo;
  o.seed = 7;
  o.solver = Solver::kSketched;
  o.sketch.samples = samples;
  o.sketch.exactFitEvery = fitEvery;
  o.sketch.seed = sketchSeed;
  return o;
}

TEST(LeverageScores, SumToRankForFullColumnRankFactor) {
  // trace(A pinv(A^T A) A^T) = rank(A): leverage scores of a full-column-
  // rank factor sum to its column count.
  Pcg32 rng(123);
  const la::Matrix f = la::Matrix::random(30, 4, rng);
  const std::vector<double> lev = leverageScores(f, la::gram(f));
  ASSERT_EQ(lev.size(), 30u);
  double sum = 0.0;
  for (double l : lev) {
    EXPECT_GE(l, 0.0);
    sum += l;
  }
  EXPECT_NEAR(sum, 4.0, 1e-8);
}

TEST(LeverageScores, RankDeficientFactorStaysFinite) {
  la::Matrix f(20, 3);
  for (std::size_t i = 0; i < 20; ++i) f(i, 0) = f(i, 1) = 1.0;  // col0==col1
  const std::vector<double> lev = leverageScores(f, la::gram(f));
  for (double l : lev) {
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_GE(l, 0.0);
  }
}

TEST(MttkrpSketched, ApproximatesTheExactMttkrp) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{20, 18, 16}, 600, {}, 81});
  const std::size_t rank = 4;
  const auto factors = randomFactors(t.dims(), rank, 9);
  std::vector<la::Matrix> grams;
  for (const auto& f : factors) grams.push_back(la::gram(f));
  auto X = tensorToRdd(ctx, t, 8).cache();

  MttkrpOptions mo;
  SketchOptions so;
  so.samples = 20000;  // >> nnz: sampling noise nearly averages out
  SketchTelemetry tel;
  const la::Matrix approx =
      mttkrpSketched(ctx, X, t.dims(), factors, grams, 0, mo, so, 1, &tel);
  const la::Matrix exact = tensor::referenceMttkrp(t, factors, 0);

  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < exact.rows(); ++i) {
    for (std::size_t r = 0; r < exact.cols(); ++r) {
      const double d = approx(i, r) - exact(i, r);
      num += d * d;
      den += exact(i, r) * exact(i, r);
    }
  }
  EXPECT_LT(std::sqrt(num / den), 0.15)
      << "a 20k-draw sketch of a 600-nnz tensor must be close to exact";
  EXPECT_EQ(tel.sketchedMttkrps, 1u);
  EXPECT_EQ(tel.sampledNnz, 20000u);
}

TEST(MttkrpSketched, DeterministicInSeedAndDrawId) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{15, 15, 15}, 400, {}, 82});
  const auto factors = randomFactors(t.dims(), 3, 10);
  std::vector<la::Matrix> grams;
  for (const auto& f : factors) grams.push_back(la::gram(f));
  auto X = tensorToRdd(ctx, t, 6).cache();

  MttkrpOptions mo;
  SketchOptions so;
  so.samples = 500;
  const auto a = mttkrpSketched(ctx, X, t.dims(), factors, grams, 1, mo, so, 3);
  const auto b = mttkrpSketched(ctx, X, t.dims(), factors, grams, 1, mo, so, 3);
  EXPECT_EQ(a.maxAbsDiff(b), 0.0) << "same (seed, drawId) must replay exactly";
  const auto c = mttkrpSketched(ctx, X, t.dims(), factors, grams, 1, mo, so, 4);
  EXPECT_GT(a.maxAbsDiff(c), 0.0) << "a new drawId must resample";
}

TEST(CpAlsSketched, SeededRunsAreBitIdentical) {
  auto t = tensor::generateZipf({40, 40, 40}, 3000, 1.1, 911);
  CpAlsResult a, b;
  {
    sparkle::Context ctx(testCluster(), 2);
    a = cpAls(ctx, t, sketchedOpts(4, 2000, 2));
  }
  {
    sparkle::Context ctx(testCluster(), 2);
    b = cpAls(ctx, t, sketchedOpts(4, 2000, 2));
  }
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    EXPECT_EQ(a.factors[m].maxAbsDiff(b.factors[m]), 0.0) << "factor " << m;
  }
  for (std::size_t r = 0; r < a.lambda.size(); ++r) {
    EXPECT_EQ(a.lambda[r], b.lambda[r]);
  }
  // A different sketch seed must walk a different trajectory.
  sparkle::Context ctx(testCluster(), 2);
  auto c = cpAls(ctx, t, sketchedOpts(4, 2000, 2, 0xfeed));
  double diff = 0.0;
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    diff = std::max(diff, a.factors[m].maxAbsDiff(c.factors[m]));
  }
  EXPECT_GT(diff, 0.0);
}

TEST(CpAlsSketched, FinalFitWithinToleranceOfExact) {
  // The ISSUE acceptance bar: on a Zipf tensor the sketched solver's final
  // (exact-cadence) fit lands within 0.01 of the exact solver's.
  auto t = tensor::generateZipf({60, 60, 60}, 8000, 1.1, 37);
  CpAlsResult exact;
  {
    sparkle::Context ctx(testCluster(), 2);
    CpAlsOptions o = sketchedOpts(6, 12000, 3);
    o.solver = Solver::kExact;
    exact = cpAls(ctx, t, o);
  }
  sparkle::Context ctx(testCluster(), 2);
  auto sk = cpAls(ctx, t, sketchedOpts(6, 12000, 3));
  EXPECT_TRUE(std::isfinite(sk.finalFit))
      << "iters divisible by the cadence must end on an exact fit";
  EXPECT_NEAR(sk.finalFit, exact.finalFit, 0.01);
}

TEST(CpAlsSketched, HalvesModeledTimePerIterationOnZipf3D) {
  // The sketched solver's reason to exist (CP-ARLS-LEV): on a skewed 500^3
  // tensor, 32k leverage draws per MTTKRP cut modeled cluster time per
  // iteration >= 2x against exact CP-ALS, with the final exact fit within
  // 0.01. Modeled time is deterministic, so this is an exact check.
  auto t = tensor::generateZipf({500, 500, 500}, 100000, 1.1, 4242);
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 8;
  cfg.coresPerNode = 4;
  struct Run {
    double simSecPerIter;
    double finalFit;
  };
  auto run = [&](Solver solver) {
    sparkle::Context ctx(cfg, 2);
    CpAlsOptions o;
    o.rank = 4;
    o.maxIterations = 4;
    o.tolerance = 0.0;
    o.backend = Backend::kCoo;
    o.solver = solver;
    o.sketch.samples = 32768;
    o.sketch.exactFitEvery = 2;
    o.mttkrp.numPartitions = 32;
    const CpAlsResult res = cpAls(ctx, t, o);
    return Run{ctx.metrics().simTimeSec() / double(res.iterations.size()),
               res.finalFit};
  };
  const Run exact = run(Solver::kExact);
  const Run sketched = run(Solver::kSketched);
  EXPECT_GE(exact.simSecPerIter / sketched.simSecPerIter, 2.0)
      << "exact " << exact.simSecPerIter << " sim-s/iter, sketched "
      << sketched.simSecPerIter;
  EXPECT_NEAR(sketched.finalFit, exact.finalFit, 0.01);
}

TEST(CpAlsSketched, ReportCarriesSketchTelemetry) {
  auto t = tensor::generateZipf({30, 30, 30}, 2000, 1.1, 55);
  sparkle::Context ctx(testCluster(), 2);
  auto res = cpAls(ctx, t, sketchedOpts(5, 1000, 2));
  const RunReport& r = res.report;
  EXPECT_EQ(r.solver, "sketched");
  EXPECT_EQ(r.sketchSamples, 1000u);
  EXPECT_EQ(r.sketchExactFitEvery, 2);
  EXPECT_GT(r.sketchedMttkrps, 0u);
  EXPECT_GT(r.sketchSampledNnz, 0u);
  ASSERT_EQ(r.iterations.size(), 5u);
  for (const auto& it : r.iterations) {
    // Cadence: iterations 2, 4 (multiples of exactFitEvery) and the last
    // carry exact fits; the rest have no fit at all.
    const bool expectExact =
        it.iteration % 2 == 0 || it.iteration == 5;
    EXPECT_EQ(it.fitExact, expectExact) << "iteration " << it.iteration;
    EXPECT_EQ(std::isfinite(it.fit), expectExact)
        << "iteration " << it.iteration;
    EXPECT_GT(it.sketchSampledNnz, 0u) << "iteration " << it.iteration;
    if (expectExact) {
      EXPECT_TRUE(std::isfinite(it.sketchEpsilon))
          << "epsilon probe must run on exact-fit iterations";
    }
  }
}

TEST(CpAlsSketched, ExactSolverReportsNoSketchWork) {
  auto t = tensor::generateRandom({{12, 12, 12}, 300, {}, 83});
  sparkle::Context ctx(testCluster(), 2);
  CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = 3;
  o.backend = Backend::kCoo;
  o.seed = 7;
  auto res = cpAls(ctx, t, o);
  EXPECT_EQ(res.report.solver, "exact");
  EXPECT_EQ(res.report.sketchedMttkrps, 0u);
  EXPECT_EQ(res.report.sketchSampledNnz, 0u);
  for (const auto& it : res.report.iterations) {
    EXPECT_TRUE(it.fitExact);
    EXPECT_TRUE(std::isfinite(it.fit));
    EXPECT_EQ(it.sketchSampledNnz, 0u);
  }
}

TEST(CpAlsSketched, RejectsUnsupportedConfigurations) {
  auto t = tensor::generateRandom({{8, 8, 8}, 100, {}, 84});
  sparkle::Context ctx(testCluster(), 2);
  auto o = sketchedOpts(2, 100, 1);
  o.backend = Backend::kReference;
  EXPECT_THROW(cpAls(ctx, t, o), Error)
      << "the sketched solver needs a distributed backend";
  o = sketchedOpts(2, 0, 1);
  EXPECT_THROW(cpAls(ctx, t, o), Error);
  o = sketchedOpts(2, 100, 0);
  EXPECT_THROW(cpAls(ctx, t, o), Error);
}

TEST(CpAlsSketched, WorksWithCsfLocalKernel) {
  // The sampled path hands the kernel a transient subset with no
  // precomputed layout; the CSF kernel must build one on the fly.
  auto t = tensor::generateZipf({25, 25, 25}, 1500, 1.1, 66);
  sparkle::ClusterConfig cfg = testCluster();
  cfg.localKernel = sparkle::LocalKernel::kCsf;
  sparkle::Context ctx(cfg, 2);
  auto res = cpAls(ctx, t, sketchedOpts(3, 800, 3));
  EXPECT_GT(res.report.sketchedMttkrps, 0u);
  EXPECT_TRUE(std::isfinite(res.finalFit));
}

}  // namespace
}  // namespace cstf::cstf_core
