#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "la/pooled.hpp"

namespace cstf::la {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::random(std::size_t rows, std::size_t cols, Pcg32& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.nextDouble();
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

double Matrix::frobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::maxAbsDiff(const Matrix& other) const {
  CSTF_CHECK(sameShape(other), "maxAbsDiff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  CSTF_CHECK(sameShape(o), "operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  CSTF_CHECK(sameShape(o), "operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

std::size_t pooledTasks(const ThreadPool* pool, std::size_t work,
                        std::size_t parts) {
  if (pool == nullptr || work < kPooledMinWork) return 1;
  // parallelFor runs on the caller plus threadCount() - 1 helpers, so one
  // task per pool thread keeps every running thread on one block.
  return std::max<std::size_t>(1, std::min(pool->threadCount(), parts));
}

Matrix matmul(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  CSTF_CHECK(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  const std::size_t n = a.rows();
  const std::size_t tasks = pooledTasks(pool, n * a.cols() * b.cols(), n);
  runTasks(pool, tasks, [&](std::size_t t) {
    const std::size_t end = n * (t + 1) / tasks;
    for (std::size_t i = n * t / tasks; i < end; ++i) {
      for (std::size_t k = 0; k < a.cols(); ++k) {
        const double aik = a(i, k);
        if (aik == 0.0) continue;
        const double* brow = b.row(k);
        double* crow = c.row(i);
        for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
      }
    }
  });
  return c;
}

Matrix gram(const Matrix& a, ThreadPool* pool) {
  const std::size_t r = a.cols();
  Matrix g(r, r);
  // Row p of the upper triangle holds r - p entries; pairing row p with
  // row r-1-p gives every pair r + 1 of them, and dealing the pairs
  // round-robin balances the tasks.
  const std::size_t pairs = (r + 1) / 2;
  const std::size_t tasks =
      pooledTasks(pool, a.rows() * r * (r + 1) / 2, pairs);
  runTasks(pool, tasks, [&](std::size_t t) {
    std::vector<std::size_t> mine;
    for (std::size_t k = t; k < pairs; k += tasks) {
      mine.push_back(k);
      if (r - 1 - k != k) mine.push_back(r - 1 - k);
    }
    // Each g(p, q), q >= p, is summed in row order, as in one task; sums
    // start in a task-local buffer so tasks share no cache line of g.
    std::vector<double> acc(mine.size() * r, 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double* row = a.row(i);
      for (std::size_t m = 0; m < mine.size(); ++m) {
        const std::size_t p = mine[m];
        const double rp = row[p];
        double* gp = acc.data() + m * r;
        for (std::size_t q = p; q < r; ++q) gp[q] += rp * row[q];
      }
    }
    for (std::size_t m = 0; m < mine.size(); ++m) {
      const std::size_t p = mine[m];
      std::copy(acc.begin() + m * r + p, acc.begin() + (m + 1) * r,
                g.row(p) + p);
    }
  });
  for (std::size_t p = 0; p < r; ++p) {
    for (std::size_t q = 0; q < p; ++q) g(p, q) = g(q, p);
  }
  return g;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  CSTF_CHECK(a.sameShape(b), "hadamard: shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) c(i, j) = a(i, j) * b(i, j);
  }
  return c;
}

Matrix khatriRao(const Matrix& a, const Matrix& b) {
  CSTF_CHECK(a.cols() == b.cols(), "khatriRao: rank mismatch");
  const std::size_t r = a.cols();
  Matrix c(a.rows() * b.rows(), r);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double* out = c.row(i * b.rows() + j);
      for (std::size_t k = 0; k < r; ++k) out[k] = a(i, k) * b(j, k);
    }
  }
  return c;
}

Matrix kronecker(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      for (std::size_t p = 0; p < b.rows(); ++p) {
        for (std::size_t q = 0; q < b.cols(); ++q) {
          c(i * b.rows() + p, j * b.cols() + q) = aij * b(p, q);
        }
      }
    }
  }
  return c;
}

}  // namespace cstf::la
