// The pooled la path is the one-task loop split across tasks: with and
// without a pool every result must agree to the bit.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "la/matrix.hpp"
#include "la/normalize.hpp"

namespace cstf::la {
namespace {

bool sameBits(const Matrix& a, const Matrix& b) {
  return a.sameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Uniform entries in [-1, 1), with roughly every seventh entry zeroed so
/// matmul's `aik == 0.0` skip runs.
Matrix signedRandom(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Pcg32 rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = 2.0 * rng.nextDouble() - 1.0;
      m(i, j) = rng.nextBounded(7) == 0 ? 0.0 : v;
    }
  }
  return m;
}

/// A row count above the cut-off for rank r that no task count up to 8
/// divides: r * rows > kPooledMinWork, so every call below splits.
std::size_t pooledRows(std::size_t r) {
  std::size_t rows = kPooledMinWork / r + 1;
  while (rows % 2 == 0 || rows % 3 == 0 || rows % 5 == 0 || rows % 7 == 0) {
    ++rows;
  }
  return rows;
}

void expectPoolBitIdentical(ThreadPool& pool, const Matrix& a) {
  const std::size_t r = a.cols();
  const Matrix b = signedRandom(r, r, 99);
  EXPECT_TRUE(sameBits(matmul(a, b), matmul(a, b, &pool)))
      << a.rows() << "x" << r << " matmul";
  EXPECT_TRUE(sameBits(gram(a), gram(a, &pool)))
      << a.rows() << "x" << r << " gram";
  Matrix serial = a;
  Matrix pooled = a;
  EXPECT_TRUE(
      sameBits(normalizeColumns(serial), normalizeColumns(pooled, &pool)))
      << a.rows() << "x" << r << " norms";
  EXPECT_TRUE(sameBits(serial, pooled)) << a.rows() << "x" << r
                                        << " normalized";
}

TEST(PooledLa, SplitCallsMatchOneTaskBitForBit) {
  ThreadPool pool(3);
  for (const std::size_t r : {1u, 2u, 16u, 17u}) {
    const std::size_t rows = pooledRows(r);
    // The shapes really split: rows and columns over several tasks.
    ASSERT_GT(pooledTasks(&pool, rows * r, rows), 1u);
    if (r > 1) {
      ASSERT_GT(pooledTasks(&pool, rows * r, r), 1u);
    }
    if (r > 2) {
      ASSERT_GT(pooledTasks(&pool, rows * r * r, r), 1u);
    }
    expectPoolBitIdentical(pool, signedRandom(rows, r, 7 + r));
  }
}

TEST(PooledLa, BelowTheCutOffRunsAsOneTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pooledTasks(&pool, kPooledMinWork - 1, 100), 1u);
  EXPECT_EQ(pooledTasks(nullptr, kPooledMinWork * 8, 100), 1u);
  EXPECT_EQ(pooledTasks(&pool, kPooledMinWork, 100), 3u);
  EXPECT_EQ(pooledTasks(&pool, kPooledMinWork, 2), 2u);
  expectPoolBitIdentical(pool, signedRandom(31, 4, 3));
  expectPoolBitIdentical(pool, signedRandom(1, 16, 4));
}

TEST(PooledLa, ZeroColumnKeepsNormZeroAndIsNotDivided) {
  ThreadPool pool(4);
  const std::size_t rows = pooledRows(16);
  Matrix a = signedRandom(rows, 16, 21);
  for (std::size_t i = 0; i < rows; ++i) a(i, 5) = 0.0;
  expectPoolBitIdentical(pool, a);
  Matrix pooled = a;
  const std::vector<double> norms = normalizeColumns(pooled, &pool);
  EXPECT_EQ(norms[5], 0.0);
  for (std::size_t i = 0; i < rows; ++i) ASSERT_EQ(pooled(i, 5), 0.0);
}

}  // namespace
}  // namespace cstf::la
