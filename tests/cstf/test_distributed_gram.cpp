#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <vector>

#include "cstf/cp_als.hpp"
#include "cstf/factors.hpp"
#include "tensor/generator.hpp"
#include "la/matrix.hpp"

namespace cstf::cstf_core {
namespace {

sparkle::Context makeCtx() {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return sparkle::Context(cfg, 2);
}

TEST(DistributedGram, MatchesLocalGram) {
  auto ctx = makeCtx();
  Pcg32 rng(3);
  for (std::size_t rank : {1u, 2u, 5u}) {
    la::Matrix m = la::Matrix::random(200, rank, rng);
    auto rdd = factorToRdd(ctx, m, 8);
    la::Matrix dist = distributedGram(rdd, rank);
    EXPECT_LT(dist.maxAbsDiff(la::gram(m)), 1e-10) << "rank " << rank;
  }
}

TEST(DistributedGram, IsSymmetric) {
  auto ctx = makeCtx();
  Pcg32 rng(4);
  la::Matrix m = la::Matrix::random(64, 4, rng);
  la::Matrix g = distributedGram(factorToRdd(ctx, m, 4), 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    }
  }
}

TEST(DistributedGram, NoShuffleRequired) {
  // The gram reduce aggregates R x R partials to the driver — no shuffle,
  // which is the "eliminates the need to perform extra reduce operations"
  // property of computing grams once per iteration (paper section 4.2).
  auto ctx = makeCtx();
  Pcg32 rng(5);
  la::Matrix m = la::Matrix::random(100, 2, rng);
  distributedGram(factorToRdd(ctx, m, 8), 2);
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 0u);
}

TEST(DistributedGram, RankMismatchThrows) {
  auto ctx = makeCtx();
  Pcg32 rng(6);
  la::Matrix m = la::Matrix::random(10, 3, rng);
  auto rdd = factorToRdd(ctx, m, 2);
  EXPECT_THROW(distributedGram(rdd, 2), Error);
}

TEST(DistributedGram, CpAlsOptionProducesIdenticalResults) {
  auto t = tensor::generateRandom({{12, 10, 8}, 250, {}, 8});
  CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = 3;
  o.backend = Backend::kCoo;
  o.seed = 5;

  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  CpAlsResult driver;
  {
    sparkle::Context ctx(cfg, 2);
    driver = cpAls(ctx, t, o);
  }
  sparkle::Context ctx(cfg, 2);
  o.distributedGrams = true;
  auto dist = cpAls(ctx, t, o);
  EXPECT_NEAR(dist.finalFit, driver.finalFit, 1e-12);
  for (ModeId m = 0; m < 3; ++m) {
    EXPECT_LT(dist.factors[m].maxAbsDiff(driver.factors[m]), 1e-12);
  }
}

TEST(DistributedGram, CpAlsFitsKeepTheirBits) {
  // Distributed grams sum in partition order, so their fit keeps computing
  // the model norm through tensor::modelNormSq(factors, lambda) rather
  // than from the gram cache. Its per-iteration fits must keep the exact
  // bits captured before the cache was reused for the fit.
  auto t = tensor::generateRandom({{12, 10, 8}, 250, {}, 8});
  CpAlsOptions o;
  o.rank = 3;
  o.maxIterations = 3;
  o.tolerance = 0.0;
  o.backend = Backend::kCoo;
  o.seed = 5;
  o.distributedGrams = true;
  std::vector<std::uint64_t> fits;
  o.onIteration = [&](const CpAlsIterationStats& it) {
    std::uint64_t b;
    std::memcpy(&b, &it.fit, sizeof b);
    fits.push_back(b);
  };
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  sparkle::Context ctx(cfg, 2);
  cpAls(ctx, t, o);
  const std::vector<std::uint64_t> want = {
      0x3fc3033039feace0ull, 0x3fc456cf94986c98ull, 0x3fc51fb939cf9cf8ull};
  ASSERT_EQ(fits.size(), want.size());
  for (std::size_t i = 0; i < fits.size(); ++i) {
    EXPECT_EQ(fits[i], want[i]) << "iteration " << i + 1 << ": 0x"
                                << std::hex << fits[i];
  }
}

TEST(DistributedGram, SinglePartition) {
  auto ctx = makeCtx();
  Pcg32 rng(7);
  la::Matrix m = la::Matrix::random(30, 2, rng);
  la::Matrix g = distributedGram(factorToRdd(ctx, m, 1), 2);
  EXPECT_LT(g.maxAbsDiff(la::gram(m)), 1e-12);
}

}  // namespace
}  // namespace cstf::cstf_core
