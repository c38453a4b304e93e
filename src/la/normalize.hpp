// Column normalization for CP-ALS factor matrices.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace cstf::la {

/// Normalize each column of `m` to unit 2-norm in place and return the
/// norms (the lambda weights of Algorithm 1). Zero columns are left
/// untouched and report norm 0 — callers treat that as a degenerate factor.
std::vector<double> normalizeColumns(Matrix& m);

}  // namespace cstf::la
