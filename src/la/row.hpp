// Row: a rank-R factor-matrix row as shipped through the dataflow engine.
//
// SmallVec keeps rows up to rank 4 inline (the paper runs R=2), avoiding a
// heap allocation per shuffled record.
#pragma once

#include "common/small_vector.hpp"
#include "la/matrix.hpp"

namespace cstf::la {

using Row = cstf::SmallVec<double, 4>;

inline Row rowOf(const Matrix& m, std::size_t i) {
  Row r;
  r.reserve(m.cols());
  const double* p = m.row(i);
  for (std::size_t j = 0; j < m.cols(); ++j) r.push_back(p[j]);
  return r;
}

/// a *= b element-wise.
inline void rowHadamardInPlace(Row& a, const Row& b) {
  CSTF_ASSERT(a.size() == b.size(), "row rank mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] *= b[i];
}

inline Row rowHadamard(const Row& a, const Row& b) {
  Row c = a;
  rowHadamardInPlace(c, b);
  return c;
}

/// a += b element-wise.
inline void rowAddInPlace(Row& a, const Row& b) {
  CSTF_ASSERT(a.size() == b.size(), "row rank mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

inline void rowScaleInPlace(Row& a, double s) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] *= s;
}

inline Row rowScale(const Row& a, double s) {
  Row c = a;
  rowScaleInPlace(c, s);
  return c;
}

}  // namespace cstf::la
