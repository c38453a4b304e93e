// Column normalization for CP-ALS factor matrices.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace cstf::la {

/// Normalize each column of `m` to unit 2-norm in place and return the
/// norms (the lambda weights of Algorithm 1). Zero columns are left
/// untouched and report norm 0 — callers treat that as a degenerate factor.
/// With a pool, column groups sum their norms over all rows in row order,
/// then row blocks divide: the same bits as one task.
std::vector<double> normalizeColumns(Matrix& m, ThreadPool* pool = nullptr);

}  // namespace cstf::la
