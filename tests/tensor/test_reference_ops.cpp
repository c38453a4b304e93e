#include "tensor/reference_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "tensor/generator.hpp"

namespace cstf::tensor {
namespace {

std::vector<la::Matrix> randomFactorsFor(const CooTensor& t, std::size_t rank,
                                         std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<la::Matrix> fs;
  for (ModeId m = 0; m < t.order(); ++m) {
    fs.push_back(la::Matrix::random(t.dim(m), rank, rng));
  }
  return fs;
}

TEST(ReferenceMttkrp, SingleNonzeroHandComputed) {
  // X(1,2,0) = 2; mode-0 MTTKRP: M(1,:) = 2 * B(2,:) .* C(0,:).
  CooTensor t({3, 3, 2}, {makeNonzero3(1, 2, 0, 2.0)});
  auto fs = randomFactorsFor(t, 2, 1);
  la::Matrix m = referenceMttkrp(t, fs, 0);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(m(1, r), 2.0 * fs[1](2, r) * fs[2](0, r));
    EXPECT_DOUBLE_EQ(m(0, r), 0.0);
    EXPECT_DOUBLE_EQ(m(2, r), 0.0);
  }
}

TEST(ReferenceMttkrp, MatchesUnfoldingDefinitionAllModes3Order) {
  CooTensor t = generateRandom({{6, 7, 8}, 100, {}, 11});
  auto fs = randomFactorsFor(t, 3, 2);
  for (ModeId mode = 0; mode < 3; ++mode) {
    la::Matrix fast = referenceMttkrp(t, fs, mode);
    la::Matrix slow = mttkrpViaUnfolding(t, fs, mode);
    EXPECT_LT(fast.maxAbsDiff(slow), 1e-10) << "mode " << int(mode);
  }
}

TEST(ReferenceMttkrp, MatchesUnfoldingDefinition4Order) {
  CooTensor t = generateRandom({{4, 5, 6, 3}, 80, {}, 13});
  auto fs = randomFactorsFor(t, 2, 3);
  for (ModeId mode = 0; mode < 4; ++mode) {
    la::Matrix fast = referenceMttkrp(t, fs, mode);
    la::Matrix slow = mttkrpViaUnfolding(t, fs, mode);
    EXPECT_LT(fast.maxAbsDiff(slow), 1e-10) << "mode " << int(mode);
  }
}

TEST(ReferenceMttkrp, LinearInTensorValues) {
  CooTensor t = generateRandom({{5, 5, 5}, 40, {}, 17});
  auto fs = randomFactorsFor(t, 2, 4);
  la::Matrix m1 = referenceMttkrp(t, fs, 0);
  CooTensor t2 = t;
  for (auto& nz : t2.mutableNonzeros()) nz.val *= 3.0;
  la::Matrix m3 = referenceMttkrp(t2, fs, 0);
  m1 *= 3.0;
  EXPECT_LT(m1.maxAbsDiff(m3), 1e-10);
}

TEST(ReferenceMttkrp, ShapeMismatchThrows) {
  CooTensor t({4, 4, 4}, {makeNonzero3(0, 0, 0, 1.0)});
  auto fs = randomFactorsFor(t, 2, 5);
  fs[1] = la::Matrix(3, 2);  // wrong row count
  EXPECT_THROW(referenceMttkrp(t, fs, 0), Error);
}

TEST(ReferenceMttkrp, ModeSymmetricUnderPermutation) {
  // MTTKRP along mode 0 of the mode-permuted tensor (with permuted
  // factors) must equal MTTKRP along perm[0] of the original — the
  // invariant that justifies testing distributed backends mainly on low
  // modes.
  CooTensor t = generateRandom({{6, 7, 8}, 120, {}, 3});
  Pcg32 rng(4);
  std::vector<la::Matrix> fs;
  for (ModeId m = 0; m < 3; ++m) {
    fs.push_back(la::Matrix::random(t.dim(m), 2, rng));
  }
  // New mode m holds what old mode perm[m] held; perm = {2, 0, 1}.
  std::vector<Nonzero> nzs;
  for (const Nonzero& nz : t.nonzeros()) {
    nzs.push_back(makeNonzero3(nz.idx[2], nz.idx[0], nz.idx[1], nz.val));
  }
  const CooTensor p({t.dim(2), t.dim(0), t.dim(1)}, std::move(nzs));
  const std::vector<la::Matrix> pfs{fs[2], fs[0], fs[1]};

  la::Matrix viaPermuted = referenceMttkrp(p, pfs, 0);
  la::Matrix direct = referenceMttkrp(t, fs, 2);
  EXPECT_LT(viaPermuted.maxAbsDiff(direct), 1e-12);
}

TEST(ModelOps, InnerProductMatchesDense) {
  CooTensor t = generateRandom({{4, 3, 5}, 30, {}, 19});
  auto fs = randomFactorsFor(t, 2, 6);
  std::vector<double> lambda{1.5, 0.5};

  const auto dense = denseReconstruction(t.dims(), fs, lambda);
  double expected = 0.0;
  for (const Nonzero& nz : t.nonzeros()) {
    const std::size_t flat =
        (std::size_t(nz.idx[0]) * 3 + nz.idx[1]) * 5 + nz.idx[2];
    expected += nz.val * dense[flat];
  }
  EXPECT_NEAR(innerProductWithModel(t, fs, lambda), expected, 1e-10);
}

TEST(ModelOps, ModelNormSqMatchesDense) {
  const std::vector<Index> dims{4, 3, 5};
  CooTensor t = generateRandom({dims, 10, {}, 20});
  auto fs = randomFactorsFor(t, 2, 7);
  std::vector<double> lambda{2.0, 0.25};
  const auto dense = denseReconstruction(dims, fs, lambda);
  double normSq = 0.0;
  for (double v : dense) normSq += v * v;
  EXPECT_NEAR(modelNormSq(fs, lambda), normSq, 1e-8);
}

TEST(ModelOps, ModelNormSqFromGramsIsTheSameFormula) {
  const std::vector<Index> dims{9, 7, 8, 5};
  CooTensor t = generateRandom({dims, 60, {}, 21});
  auto fs = randomFactorsFor(t, 5, 8);
  const std::vector<double> lambda{2.0, 0.25, 1.5, 3.0, 0.5};
  std::vector<la::Matrix> grams;
  for (const la::Matrix& f : fs) grams.push_back(la::gram(f));
  // Bit-identical, not merely close: CP-ALS's fit relies on it.
  EXPECT_EQ(modelNormSqFromGrams(grams, lambda), modelNormSq(fs, lambda));
}

TEST(ModelOps, PerfectModelHasFitOne) {
  // Build the tensor FROM a CP model over all cells of a tiny grid: fit = 1.
  const std::vector<Index> dims{3, 3, 3};
  Pcg32 rng(8);
  std::vector<la::Matrix> fs;
  for (Index d : dims) fs.push_back(la::Matrix::random(d, 2, rng));
  std::vector<double> lambda{1.0, 1.0};
  const auto dense = denseReconstruction(dims, fs, lambda);

  std::vector<Nonzero> nzs;
  std::size_t c = 0;
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 3; ++j) {
      for (Index k = 0; k < 3; ++k) nzs.push_back(makeNonzero3(i, j, k, dense[c++]));
    }
  }
  CooTensor t(dims, std::move(nzs));
  EXPECT_NEAR(cpFit(t, fs, lambda), 1.0, 1e-10);
}

TEST(ModelOps, ZeroModelFitFormula) {
  CooTensor t({2, 2, 2}, {makeNonzero3(0, 0, 0, 3.0)});
  std::vector<la::Matrix> fs{la::Matrix(2, 1), la::Matrix(2, 1),
                             la::Matrix(2, 1)};
  std::vector<double> lambda{1.0};
  // Residual equals ||X||, so fit = 0.
  EXPECT_NEAR(cpFit(t, fs, lambda), 0.0, 1e-12);
}

TEST(ModelOps, NonFiniteModelHasNaNFit) {
  CooTensor t({2, 2, 2}, {makeNonzero3(0, 0, 0, 3.0)});
  std::vector<la::Matrix> fs{la::Matrix(2, 1, 1.0), la::Matrix(2, 1, 1.0),
                             la::Matrix(2, 1, 1.0)};
  fs[1](1, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(cpFit(t, fs, {1.0})));
}

TEST(ModelOps, DenseReconstructionRejectsHugeTensors) {
  std::vector<la::Matrix> fs{la::Matrix(5000, 1), la::Matrix(5000, 1),
                             la::Matrix(5000, 1)};
  EXPECT_THROW(
      denseReconstruction({5000, 5000, 5000}, fs, {1.0}), Error);
}

}  // namespace
}  // namespace cstf::tensor
