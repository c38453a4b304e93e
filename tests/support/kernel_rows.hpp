// Dense view of a local kernel's (index, row) output for tests: each row
// lands in its matrix row, absent indices stay zero.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "la/matrix.hpp"
#include "la/row.hpp"

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

}  // namespace cstf::testsupport
