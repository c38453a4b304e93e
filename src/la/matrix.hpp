// Row-major dense matrix used for CP factor matrices (tall-skinny, I x R)
// and the small R x R gram/normal matrices of CP-ALS.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cstf {
class ThreadPool;
}

namespace cstf::la {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);
  /// Entries i.i.d. uniform in [0, 1) — the standard CP-ALS initialization.
  static Matrix random(std::size_t rows, std::size_t cols, Pcg32& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    CSTF_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    CSTF_ASSERT(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }

  double* row(std::size_t i) {
    CSTF_ASSERT(i < rows_, "row index out of range");
    return data_.data() + i * cols_;
  }
  const double* row(std::size_t i) const {
    CSTF_ASSERT(i < rows_, "row index out of range");
    return data_.data() + i * cols_;
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  bool sameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  Matrix transpose() const;

  /// Frobenius norm.
  double frobeniusNorm() const;
  /// max |a_ij - b_ij|; matrices must share shape.
  double maxAbsDiff(const Matrix& other) const;

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// The driver's R-wide steps (matmul, gram, normalizeColumns) take an
// optional pool. Each splits its output elements among tasks and computes
// every element with the serial loop's operations in the serial order, so
// the result is bit-identical with and without a pool; with no pool, or
// below kPooledMinWork multiply-adds, the same loop runs as one task.

/// Work (multiply-adds) below which a pooled call runs as one task, so
/// small calls (rank-2 runs, small dims) never pay a pool dispatch.
inline constexpr std::size_t kPooledMinWork = std::size_t{1} << 16;

/// Tasks a call of `work` multiply-adds whose output splits into at most
/// `parts` pieces runs as: 1 with no pool or below kPooledMinWork, else one
/// per pool thread (the caller runs one of them), capped at `parts`.
std::size_t pooledTasks(const ThreadPool* pool, std::size_t work,
                        std::size_t parts);

/// C = A * B; rows of C split into contiguous blocks across tasks.
Matrix matmul(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr);
/// C = A^T * A (the gram matrix; exploits symmetry). Tasks own rows of the
/// upper triangle of C, and each sums its entries over all rows of A.
Matrix gram(const Matrix& a, ThreadPool* pool = nullptr);
/// Element-wise (Hadamard) product.
Matrix hadamard(const Matrix& a, const Matrix& b);
/// Khatri-Rao product (column-wise Kronecker): (I x R) (.) (J x R) -> (IJ x R).
/// Row ordering matches the standard mode-n matricization convention used by
/// Kolda & Bader: row index of (A (.) B) for rows (i of A, j of B) is i*J + j.
Matrix khatriRao(const Matrix& a, const Matrix& b);
/// Kronecker product (used by tests to cross-check Khatri-Rao).
Matrix kronecker(const Matrix& a, const Matrix& b);

}  // namespace cstf::la
