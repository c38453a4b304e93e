#include "la/normalize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace cstf::la {
namespace {

TEST(Normalize, ColumnsBecomeUnitNorm) {
  Pcg32 rng(7);
  Matrix m = Matrix::random(10, 3, rng);
  const auto norms = normalizeColumns(m);
  ASSERT_EQ(norms.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    double s = 0;
    for (std::size_t i = 0; i < 10; ++i) s += m(i, j) * m(i, j);
    EXPECT_NEAR(std::sqrt(s), 1.0, 1e-12);
    EXPECT_GT(norms[j], 0.0);
  }
}

TEST(Normalize, NormsTimesNormalizedRecoversOriginal) {
  Pcg32 rng(8);
  Matrix m = Matrix::random(6, 2, rng);
  Matrix orig = m;
  const auto norms = normalizeColumns(m);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(m(i, j) * norms[j], orig(i, j), 1e-12);
    }
  }
}

TEST(Normalize, ZeroColumnLeftAlone) {
  Matrix m(4, 2);
  m(0, 1) = 3.0;  // column 0 is all zero
  const auto norms = normalizeColumns(m);
  EXPECT_DOUBLE_EQ(norms[0], 0.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(norms[1], 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
}

TEST(Normalize, AllZeroColumnGetsZeroLambdaAndNoNaN) {
  Pcg32 rng(61);
  Matrix m = Matrix::random(50, 3, rng);
  for (std::size_t i = 0; i < m.rows(); ++i) m(i, 1) = 0.0;
  const auto lambda = normalizeColumns(m);
  ASSERT_EQ(lambda.size(), 3u);
  EXPECT_EQ(lambda[1], 0.0);
  EXPECT_GT(lambda[0], 0.0);
  EXPECT_GT(lambda[2], 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(m(i, 1), 0.0) << "row " << i;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      EXPECT_FALSE(std::isnan(m(i, j))) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace cstf::la
