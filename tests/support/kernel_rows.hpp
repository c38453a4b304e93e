// Dense view of the CSF kernel's (index, row) output for tests, to compare
// with the sequential oracle: each row lands in its matrix row, absent
// indices stay zero.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "cstf/factors.hpp"
#include "cstf/mttkrp_local.hpp"
#include "la/matrix.hpp"
#include "la/row.hpp"
#include "tensor/csf.hpp"

namespace cstf::testsupport {

inline la::Matrix rowsToDense(
    const std::vector<std::pair<Index, la::Row>>& rows, std::size_t numRows,
    std::size_t rank) {
  la::Matrix m(numRows, rank);
  for (const auto& [idx, row] : rows) {
    std::copy(row.begin(), row.end(), m.row(idx));
  }
  return m;
}

/// csfMttkrp over all of `t` as one partition, its layout built here.
inline la::Matrix csfDense(const tensor::CooTensor& t,
                           const std::vector<la::Matrix>& factors,
                           ModeId mode) {
  const tensor::CsfLayout layout =
      tensor::buildCsfLayout(t.nonzeros(), t.order());
  const std::size_t rank = cstf_core::mttkrpRank(t.dims(), factors, mode);
  cstf_core::LocalKernelStats stats;
  return rowsToDense(
      cstf_core::csfMttkrp(layout, factors, mode, rank, stats), t.dim(mode),
      rank);
}

}  // namespace cstf::testsupport
