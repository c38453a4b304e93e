#include "la/normalize.hpp"

#include <cmath>

namespace cstf::la {

std::vector<double> normalizeColumns(Matrix& m) {
  std::vector<double> norms(m.cols(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) norms[j] += row[j] * row[j];
  }
  for (double& n : norms) n = std::sqrt(n);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (norms[j] > 0.0) row[j] /= norms[j];
    }
  }
  return norms;
}

}  // namespace cstf::la
