// CP-ALS invariants swept across backends, ranks, orders and datasets:
//  * fit is monotonically non-decreasing,
//  * the reported fit equals the direct residual formula,
//  * all distributed backends walk the reference trajectory exactly,
//  * a rank-R ALS recovers a rank-R ground truth.
#include <gtest/gtest.h>

#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::cstf_core {
namespace {

struct AlsCase {
  Backend backend;
  std::vector<Index> dims;
  std::size_t nnz;
  std::size_t rank;
  int iters;
  std::uint64_t seed;
};

std::string alsCaseName(const testing::TestParamInfo<AlsCase>& info) {
  const auto& c = info.param;
  std::string b;
  switch (c.backend) {
    case Backend::kCoo: b = "coo"; break;
    case Backend::kQcoo: b = "qcoo"; break;
    case Backend::kBigtensor: b = "bigtensor"; break;
    case Backend::kReference: b = "reference"; break;
  }
  return b + "_order" + std::to_string(c.dims.size()) + "_r" +
         std::to_string(c.rank) + "_s" + std::to_string(c.seed);
}

class CpAlsInvariants : public testing::TestWithParam<AlsCase> {};

TEST_P(CpAlsInvariants, FitMonotoneAndConsistent) {
  const auto& c = GetParam();
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  sparkle::Context ctx(cfg, 2);
  auto t = tensor::generateRandom({c.dims, c.nnz, {}, c.seed});

  CpAlsOptions o;
  o.backend = c.backend;
  o.rank = c.rank;
  o.maxIterations = c.iters;
  o.seed = c.seed + 7;
  auto res = cpAls(ctx, t, o);

  const auto& its = res.report.iterations;
  ASSERT_FALSE(its.empty());
  for (std::size_t i = 1; i < its.size(); ++i) {
    EXPECT_GE(its[i].fit, its[i - 1].fit - 1e-9)
        << "fit decreased at iteration " << i;
  }
  EXPECT_NEAR(res.finalFit, tensor::cpFit(t, res.factors, res.lambda), 1e-8);
  EXPECT_GE(res.finalFit, 0.0);
  EXPECT_LE(res.finalFit, 1.0 + 1e-12);
}

TEST_P(CpAlsInvariants, MatchesReferenceTrajectory) {
  const auto& c = GetParam();
  if (c.backend == Backend::kReference) GTEST_SKIP();
  auto t = tensor::generateRandom({c.dims, c.nnz, {}, c.seed});

  CpAlsOptions o;
  o.backend = Backend::kReference;
  o.rank = c.rank;
  o.maxIterations = std::min(c.iters, 3);
  o.seed = c.seed + 7;

  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  CpAlsResult ref;
  {
    sparkle::Context ctx(cfg, 2);
    ref = cpAls(ctx, t, o);
  }
  o.backend = c.backend;
  sparkle::Context ctx(cfg, 2);
  auto res = cpAls(ctx, t, o);
  for (std::size_t m = 0; m < t.order(); ++m) {
    EXPECT_LT(res.factors[m].maxAbsDiff(ref.factors[m]), 1e-8);
  }
  EXPECT_NEAR(res.finalFit, ref.finalFit, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CpAlsInvariants,
    testing::Values(
        AlsCase{Backend::kReference, {20, 20, 20}, 600, 2, 6, 200},
        AlsCase{Backend::kCoo, {20, 20, 20}, 600, 2, 5, 201},
        AlsCase{Backend::kCoo, {15, 25, 10}, 500, 4, 4, 202},
        AlsCase{Backend::kQcoo, {20, 20, 20}, 600, 2, 5, 203},
        AlsCase{Backend::kQcoo, {10, 12, 14, 8}, 500, 2, 4, 204},
        AlsCase{Backend::kQcoo, {15, 25, 10}, 500, 6, 3, 205},
        AlsCase{Backend::kBigtensor, {18, 14, 22}, 500, 2, 4, 206},
        AlsCase{Backend::kCoo, {10, 12, 14, 8}, 500, 3, 3, 207},
        AlsCase{Backend::kCoo, {8, 7, 6, 5, 4}, 300, 2, 3, 208},
        AlsCase{Backend::kQcoo, {8, 7, 6, 5, 4}, 300, 2, 3, 209}),
    alsCaseName);

struct RecoveryCase {
  Backend backend;
  sparkle::LocalKernel kernel;
  std::size_t rank;
  std::uint64_t seed;
};

class LowRankRecovery
    : public testing::TestWithParam<RecoveryCase> {};

TEST_P(LowRankRecovery, AlsRecoversPlantedFactors) {
  const auto& c = GetParam();
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.localKernel = c.kernel;
  sparkle::Context ctx(cfg, 2);
  // Fully observed grid (nnz = cells): exactly rank `c.rank`.
  auto t = tensor::generateLowRank({12, 10, 8}, c.rank, 12 * 10 * 8, c.seed);

  CpAlsOptions o;
  o.backend = c.backend;
  o.rank = c.rank;
  o.maxIterations = 150;
  o.tolerance = 1e-10;
  o.seed = c.seed + 1;
  auto res = cpAls(ctx, t, o);
  EXPECT_GT(res.finalFit, 0.97)
      << "rank-" << c.rank << " ALS should fit a planted rank-" << c.rank
      << " tensor";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LowRankRecovery,
    testing::Values(
        RecoveryCase{Backend::kReference, sparkle::LocalKernel::kCoo, 1, 300},
        RecoveryCase{Backend::kReference, sparkle::LocalKernel::kCoo, 2, 301},
        RecoveryCase{Backend::kReference, sparkle::LocalKernel::kCoo, 3, 302},
        RecoveryCase{Backend::kCoo, sparkle::LocalKernel::kCoo, 2, 303},
        RecoveryCase{Backend::kQcoo, sparkle::LocalKernel::kCoo, 2, 304},
        RecoveryCase{Backend::kCoo, sparkle::LocalKernel::kCsf, 2, 305},
        RecoveryCase{Backend::kQcoo, sparkle::LocalKernel::kCsf, 3, 306},
        RecoveryCase{Backend::kBigtensor, sparkle::LocalKernel::kCoo, 2,
                     308}),
    [](const testing::TestParamInfo<RecoveryCase>& info) {
      return "rank" + std::to_string(info.param.rank) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace cstf::cstf_core
