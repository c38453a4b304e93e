#include "la/normalize.hpp"

#include <algorithm>
#include <cmath>

#include "la/pooled.hpp"

namespace cstf::la {

std::vector<double> normalizeColumns(Matrix& m, ThreadPool* pool) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::vector<double> norms(cols, 0.0);
  const std::size_t colTasks = pooledTasks(pool, rows * cols, cols);
  runTasks(pool, colTasks, [&](std::size_t t) {
    const std::size_t j0 = cols * t / colTasks;
    const std::size_t j1 = cols * (t + 1) / colTasks;
    // Task-local sums, so tasks share no cache line of `norms`.
    std::vector<double> acc(j1 - j0, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      const double* row = m.row(i);
      for (std::size_t j = j0; j < j1; ++j) {
        acc[j - j0] += row[j] * row[j];
      }
    }
    std::copy(acc.begin(), acc.end(), norms.begin() + j0);
  });
  for (double& n : norms) n = std::sqrt(n);
  const std::size_t rowTasks = pooledTasks(pool, rows * cols, rows);
  runTasks(pool, rowTasks, [&](std::size_t t) {
    const std::size_t end = rows * (t + 1) / rowTasks;
    for (std::size_t i = rows * t / rowTasks; i < end; ++i) {
      double* row = m.row(i);
      for (std::size_t j = 0; j < cols; ++j) {
        if (norms[j] > 0.0) row[j] /= norms[j];
      }
    }
  });
  return norms;
}

}  // namespace cstf::la
