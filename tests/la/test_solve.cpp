#include "la/solve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace cstf::la {
namespace {

Matrix randomSpd(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  Matrix b = Matrix::random(n + 4, n, rng);
  Matrix g = gram(b);
  for (std::size_t i = 0; i < n; ++i) g(i, i) += 0.1;  // well-conditioned
  return g;
}

TEST(Cholesky, ReconstructsSpdMatrix) {
  Matrix a = randomSpd(5, 1);
  auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  Matrix rec = matmul(*l, l->transpose());
  EXPECT_LT(rec.maxAbsDiff(a), 1e-10);
}

TEST(Cholesky, LowerTriangular) {
  auto l = cholesky(randomSpd(4, 2));
  ASSERT_TRUE(l.has_value());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_DOUBLE_EQ((*l)(i, j), 0.0);
    }
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::identity(2);
  a(1, 1) = -1.0;
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  Matrix a = randomSpd(6, 3);
  Pcg32 rng(4);
  std::vector<double> x(6);
  for (double& v : x) v = rng.nextDouble(-1, 1);
  // b = A x
  std::vector<double> b(6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) b[i] += a(i, j) * x[j];
  }
  auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  const auto got = choleskySolve(*l, b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(got[i], x[i], 1e-9);
}

TEST(JacobiEigen, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = 1;
  a(2, 2) = 2;
  const EigenSym e = jacobiEigenSym(a);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 3.0, 1e-12);
}

TEST(JacobiEigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  const EigenSym e = jacobiEigenSym(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(JacobiEigen, ReconstructsMatrix) {
  Matrix a = randomSpd(6, 9);
  const EigenSym e = jacobiEigenSym(a);
  // A = Q diag(w) Q^T
  Matrix d(6, 6);
  for (std::size_t i = 0; i < 6; ++i) d(i, i) = e.values[i];
  Matrix rec = matmul(matmul(e.vectors, d), e.vectors.transpose());
  EXPECT_LT(rec.maxAbsDiff(a), 1e-9);
}

TEST(JacobiEigen, VectorsAreOrthonormal) {
  const EigenSym e = jacobiEigenSym(randomSpd(5, 10));
  Matrix qtq = matmul(e.vectors.transpose(), e.vectors);
  EXPECT_LT(qtq.maxAbsDiff(Matrix::identity(5)), 1e-10);
}

TEST(PinvSym, InvertsSpdMatrix) {
  Matrix a = randomSpd(4, 20);
  Matrix inv = pinvSym(a);
  EXPECT_LT(matmul(a, inv).maxAbsDiff(Matrix::identity(4)), 1e-9);
}

TEST(PinvSym, HandlesRankDeficiency) {
  // Rank-1 PSD matrix: vv^T with v = (1, 2).
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  Matrix p = pinvSym(a);
  // Moore-Penrose conditions: A P A = A and P A P = P.
  EXPECT_LT(matmul(matmul(a, p), a).maxAbsDiff(a), 1e-9);
  EXPECT_LT(matmul(matmul(p, a), p).maxAbsDiff(p), 1e-9);
}

TEST(PinvSym, RankDeficientGramIsFiniteAndReproducesA) {
  // The CP-ALS case: a 6 x 6 gram of a factor whose columns 3-5 repeat
  // columns 0-2, so the matrix has rank 3 and three zero eigenvalues.
  Pcg32 rng(52);
  Matrix b = Matrix::random(40, 6, rng);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 3; j < 6; ++j) b(i, j) = b(i, j - 3);
  }
  const Matrix a = gram(b);
  const Matrix p = pinvSym(a);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(p(i, j))) << i << "," << j;
    }
  }
  EXPECT_LT(matmul(matmul(a, p), a).maxAbsDiff(a), 1e-9 * a.frobeniusNorm());
}

TEST(PinvSym, ZeroMatrixGivesZero) {
  Matrix p = pinvSym(Matrix(3, 3));
  EXPECT_LT(p.maxAbsDiff(Matrix(3, 3)), 1e-15);
}

TEST(Pinv, TallSkinnyLeastSquares) {
  Pcg32 rng(30);
  Matrix b = Matrix::random(8, 3, rng);
  Matrix p = pinv(b);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_EQ(p.cols(), 8u);
  // pinv(B) * B = I for full column rank.
  EXPECT_LT(matmul(p, b).maxAbsDiff(Matrix::identity(3)), 1e-8);
}

TEST(PinvSym, TinyRankUsedInPaper) {
  // R=2, the rank of every paper experiment.
  Matrix a = randomSpd(2, 33);
  EXPECT_LT(matmul(a, pinvSym(a)).maxAbsDiff(Matrix::identity(2)), 1e-10);
}

}  // namespace
}  // namespace cstf::la
