#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "la/matrix.hpp"
#include "la/row.hpp"

namespace cstf::la {
namespace {

TEST(KhatriRao, Shape) {
  Matrix a(3, 2);
  Matrix b(4, 2);
  Matrix k = khatriRao(a, b);
  EXPECT_EQ(k.rows(), 12u);
  EXPECT_EQ(k.cols(), 2u);
}

TEST(KhatriRao, RankMismatchThrows) {
  EXPECT_THROW(khatriRao(Matrix(3, 2), Matrix(3, 3)), Error);
}

TEST(KhatriRao, EntriesAreColumnwiseKroneckers) {
  Pcg32 rng(1);
  Matrix a = Matrix::random(3, 2, rng);
  Matrix b = Matrix::random(4, 2, rng);
  Matrix k = khatriRao(a, b);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_DOUBLE_EQ(k(i * 4 + j, r), a(i, r) * b(j, r));
      }
    }
  }
}

TEST(KhatriRao, AgreesWithKroneckerColumns) {
  // Column r of A (.) B equals column r*R+r of A (x) B.
  Pcg32 rng(2);
  const std::size_t r = 3;
  Matrix a = Matrix::random(2, r, rng);
  Matrix b = Matrix::random(3, r, rng);
  Matrix kr = khatriRao(a, b);
  Matrix kron = kronecker(a, b);
  for (std::size_t row = 0; row < kr.rows(); ++row) {
    for (std::size_t c = 0; c < r; ++c) {
      EXPECT_DOUBLE_EQ(kr(row, c), kron(row, c * r + c));
    }
  }
}

TEST(Kronecker, HandComputed2x2) {
  Matrix a(1, 2);
  a(0, 0) = 2;
  a(0, 1) = 3;
  Matrix b(2, 1);
  b(0, 0) = 5;
  b(1, 0) = 7;
  Matrix k = kronecker(a, b);
  EXPECT_EQ(k.rows(), 2u);
  EXPECT_EQ(k.cols(), 2u);
  EXPECT_DOUBLE_EQ(k(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(k(1, 0), 14.0);
  EXPECT_DOUBLE_EQ(k(0, 1), 15.0);
  EXPECT_DOUBLE_EQ(k(1, 1), 21.0);
}

TEST(Row, OfMatrixAndOps) {
  Matrix m(2, 3);
  m(1, 0) = 1;
  m(1, 1) = 2;
  m(1, 2) = 3;
  Row r = rowOf(m, 1);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[2], 3.0);

  Row s{2.0, 2.0, 2.0};
  Row h = rowHadamard(r, s);
  EXPECT_DOUBLE_EQ(h[1], 4.0);
  Row a = r;
  rowAddInPlace(a, s);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  Row sc = rowScale(r, -1.0);
  EXPECT_DOUBLE_EQ(sc[2], -3.0);
}

TEST(Row, InPlaceVariantsMatchPure) {
  Row a{1.0, 2.0};
  Row b{3.0, 4.0};
  Row h = a;
  rowHadamardInPlace(h, b);
  EXPECT_EQ(h, rowHadamard(a, b));
  Row s = a;
  rowAddInPlace(s, b);
  EXPECT_EQ(s, (Row{4.0, 6.0}));
}

}  // namespace
}  // namespace cstf::la
