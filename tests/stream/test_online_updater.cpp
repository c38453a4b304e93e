// OnlineUpdater: warm-start row-subset ALS tracks a full retrain
// (replay-equals-batch), the cached Grams follow their rank-one
// corrections exactly, the base lifts a planted warm model, and
// ordering/shape violations are rejected.
#include "stream/online_updater.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cstf/cp_als.hpp"
#include "sparkle/sparkle.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::stream {
namespace {

sparkle::ClusterConfig testCluster() {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return cfg;
}

struct Split {
  tensor::CooTensor base;
  std::vector<tensor::Delta> deltas;
};

/// Seeded split of an arbitrary tensor into base + disjoint append batches
/// (the generateZipfStream shape, usable on low-rank oracles too).
Split splitTensor(const tensor::CooTensor& full, std::size_t batches,
                  double deltaFraction, std::uint64_t seed) {
  Split s;
  s.deltas.resize(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    s.deltas[b].seq = b + 1;
    s.deltas[b].dims = full.dims();
  }
  Pcg32 rng(mix64(seed));
  std::vector<tensor::Nonzero> baseNzs;
  for (const tensor::Nonzero& nz : full.nonzeros()) {
    if (rng.nextDouble() < deltaFraction) {
      s.deltas[rng.nextBounded(std::uint32_t(batches))].entries.push_back(nz);
    } else {
      baseNzs.push_back(nz);
    }
  }
  s.base = tensor::CooTensor(full.dims(), std::move(baseNzs), "split-base");
  s.base.coalesce();
  return s;
}

serve::CpModel modelOf(const cstf_core::CpAlsResult& res,
                       const std::vector<Index>& dims) {
  serve::CpModel m;
  m.rank = res.lambda.size();
  m.dims = dims;
  m.lambda = res.lambda;
  m.factors = res.factors;
  m.finalFit = res.finalFit;
  return m;
}

serve::CpModel randomModel(const std::vector<Index>& dims, std::size_t rank,
                           std::uint64_t seed) {
  serve::CpModel m;
  m.rank = rank;
  m.dims = dims;
  Pcg32 rng(seed);
  for (Index d : dims) m.factors.push_back(la::Matrix::random(d, rank, rng));
  m.lambda.assign(rank, 1.0);
  return m;
}

cstf_core::CpAlsOptions alsOpts(std::size_t rank, int iters) {
  cstf_core::CpAlsOptions o;
  o.rank = rank;
  o.maxIterations = iters;
  o.backend = cstf_core::Backend::kReference;
  o.seed = 7;
  o.tolerance = 1e-9;
  return o;
}

OnlineUpdaterOptions quietOpts() {
  OnlineUpdaterOptions o;
  o.liveMetrics = nullptr;
  return o;
}

// The acceptance property: replaying base + deltas online must land
// within 1e-2 fit of a full retrain over the identical materialized data.
TEST(OnlineUpdater, ReplayEqualsBatchRetrainWithinTolerance) {
  // Fully observed rank-3 grid: both paths should reach fit ~1, and any
  // bookkeeping error (stale Grams, missed rows) shows up as a fit gap.
  const std::vector<Index> dims = {12, 10, 8};
  const auto full = tensor::generateLowRank(dims, 3, 12 * 10 * 8, 11);
  const Split s = splitTensor(full, 3, 0.25, 42);
  ASSERT_GT(s.base.nnz(), 0u);
  for (const auto& d : s.deltas) ASSERT_GT(d.entries.size(), 0u);

  double fitFull = 0.0;
  {
    sparkle::Context ctx(testCluster(), 2);
    fitFull = cstf_core::cpAls(ctx, full, alsOpts(3, 60)).finalFit;
  }
  cstf_core::CpAlsResult baseRes;
  {
    sparkle::Context ctx(testCluster(), 2);
    baseRes = cstf_core::cpAls(ctx, s.base, alsOpts(3, 40));
  }

  OnlineUpdaterOptions uo = quietOpts();
  uo.alsSweeps = 4;
  OnlineUpdater u(modelOf(baseRes, dims), s.base, uo);
  for (const auto& d : s.deltas) u.apply(d);
  const double fitOnline = u.exactFit();

  constexpr double kTolerance = 1e-2;  // the acceptance bound
  EXPECT_NEAR(fitOnline, fitFull, kTolerance)
      << "online replay drifted from the full retrain";
  EXPECT_GT(fitFull, 0.99);
}

TEST(OnlineUpdater, AccumulatedTensorMatchesMaterializedStream) {
  const auto full = tensor::generateZipf({20, 15, 10}, 600, 0.8, 5);
  const Split s = splitTensor(full, 4, 0.3, 9);
  OnlineUpdater u(randomModel(full.dims(), 2, 3), s.base, quietOpts());
  for (const auto& d : s.deltas) u.apply(d);

  tensor::CooTensor got = u.tensor();
  got.coalesce();
  tensor::CooTensor want = tensor::materializeStream(s.base, s.deltas);
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_TRUE(got.nonzeros() == want.nonzeros());
  // And since the split is a partition of `full`, replay recovers it.
  EXPECT_TRUE(got.nonzeros() == full.nonzeros());
}

TEST(OnlineUpdater, GramCacheTracksRankOneCorrections) {
  const auto full = tensor::generateZipf({18, 14, 9}, 500, 0.9, 21);
  const Split s = splitTensor(full, 3, 0.3, 33);
  OnlineUpdater u(randomModel(full.dims(), 3, 13), s.base, quietOpts());
  for (const auto& d : s.deltas) u.apply(d);
  for (ModeId m = 0; m < 3; ++m) {
    const la::Matrix exact = la::gram(u.factor(m));
    EXPECT_LT(u.gram(m).maxAbsDiff(exact), 1e-8)
        << "mode " << int(m)
        << ": cached Gram drifted from its rank-one corrections";
  }
}

// DESIGN §16's planted inputs (the analogs' fits are ~1e-4, too small to
// show an update's effect): with the base tensor, row-subset ALS improves
// the warm model on the grown tensor and keeps every factor finite.
TEST(OnlineUpdater, AlsWithBaseImprovesWarmModelOnPlantedTensor) {
  const std::vector<Index> dims = {30, 25, 20};
  for (const std::uint64_t seed : {1, 2, 3}) {
    const auto full = tensor::generateLowRank(dims, 4, 30 * 25 * 20, seed);
    const Split s = splitTensor(full, 8, 0.25, seed + 100);
    cstf_core::CpAlsResult baseRes;
    {
      sparkle::Context ctx(testCluster(), 2);
      baseRes = cstf_core::cpAls(ctx, s.base, alsOpts(4, 10));
    }
    const serve::CpModel warm = modelOf(baseRes, dims);
    const double fitWarm = tensor::cpFit(
        tensor::materializeStream(s.base, s.deltas), warm.factors,
        warm.lambda);

    OnlineUpdater u(warm, s.base, quietOpts());
    for (const auto& d : s.deltas) u.apply(d);
    for (ModeId m = 0; m < 3; ++m) {
      for (std::size_t i = 0; i < u.factor(m).rows(); ++i) {
        for (std::size_t r = 0; r < u.rank(); ++r) {
          ASSERT_TRUE(std::isfinite(u.factor(m)(i, r))) << "seed " << seed;
        }
      }
    }
    EXPECT_GT(u.exactFit(), fitWarm) << "seed " << seed;
  }
}

TEST(OnlineUpdater, SnapshotModelIsNormalizedAndEquivalent) {
  const auto full = tensor::generateZipf({10, 9, 8}, 300, 0.7, 8);
  const Split s = splitTensor(full, 2, 0.3, 12);
  OnlineUpdater u(randomModel(full.dims(), 2, 99), s.base, quietOpts());
  for (const auto& d : s.deltas) u.apply(d);

  const serve::CpModel snap = u.snapshotModel();
  ASSERT_EQ(snap.factors.size(), 3u);
  for (const la::Matrix& f : snap.factors) {
    for (std::size_t r = 0; r < snap.rank; ++r) {
      double normSq = 0.0;
      for (std::size_t i = 0; i < f.rows(); ++i) normSq += f(i, r) * f(i, r);
      EXPECT_NEAR(std::sqrt(normSq), 1.0, 1e-9) << "column " << r;
    }
  }
  // [[lambda; normalized factors]] must equal the working model.
  tensor::CooTensor acc = u.tensor();
  std::vector<double> ones(u.rank(), 1.0);
  std::vector<la::Matrix> raw;
  for (ModeId m = 0; m < 3; ++m) raw.push_back(u.factor(m));
  EXPECT_NEAR(tensor::cpFit(acc, snap.factors, snap.lambda),
              tensor::cpFit(acc, raw, ones), 1e-9);
}

TEST(OnlineUpdater, RejectsOutOfOrderAndMismatchedDeltas) {
  const auto full = tensor::generateZipf({8, 8, 8}, 120, 0.5, 4);
  const Split s = splitTensor(full, 2, 0.4, 6);
  OnlineUpdater u(randomModel(full.dims(), 2, 1), s.base, quietOpts());
  u.apply(s.deltas[0]);
  EXPECT_THROW(u.apply(s.deltas[0]), Error);  // replayed seq
  tensor::Delta wrongDims = s.deltas[1];
  wrongDims.dims = {8, 8, 9};
  EXPECT_THROW(u.apply(wrongDims), Error);
  u.apply(s.deltas[1]);  // the real one still lands
  EXPECT_EQ(u.stats().newestSeq, 2u);
  EXPECT_EQ(u.stats().batchesApplied, 2u);
}

TEST(OnlineUpdater, FitProbeRunsOnCadence) {
  const auto full = tensor::generateZipf({10, 10, 10}, 200, 0.6, 14);
  const Split s = splitTensor(full, 4, 0.4, 15);
  OnlineUpdaterOptions uo = quietOpts();
  uo.fitProbeEvery = 2;
  OnlineUpdater u(randomModel(full.dims(), 2, 2), s.base, uo);
  EXPECT_TRUE(std::isnan(u.stats().lastFitProbe));
  for (const auto& d : s.deltas) u.apply(d);
  EXPECT_EQ(u.stats().fitProbes, 2u);
  EXPECT_FALSE(std::isnan(u.stats().lastFitProbe));
}

}  // namespace
}  // namespace cstf::stream
