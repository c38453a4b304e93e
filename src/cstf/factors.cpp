#include "cstf/factors.hpp"

#include <algorithm>

namespace cstf::cstf_core {

FactorRdd factorToRdd(sparkle::Context& ctx, const la::Matrix& m,
                      std::size_t numPartitions) {
  std::vector<std::pair<Index, la::Row>> rows;
  rows.reserve(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    rows.emplace_back(static_cast<Index>(i), la::rowOf(m, i));
  }
  return sparkle::parallelize(ctx, std::move(rows), numPartitions);
}

la::Matrix collectRows(const FactorRdd& rows, std::size_t numRows,
                       std::size_t rank, const std::string& label) {
  la::Matrix m(numRows, rank);
  rows.foreachPartition(
      label, [&](std::size_t, const std::vector<std::pair<Index, la::Row>>&
                                  part) {
        for (const auto& [idx, row] : part) {
          CSTF_CHECK(idx < numRows, "row index out of range in MTTKRP output");
          CSTF_CHECK(row.size() == rank, "row rank mismatch in MTTKRP output");
          std::copy(row.begin(), row.end(), m.row(idx));
        }
      });
  return m;
}

std::size_t mttkrpRank(const std::vector<Index>& dims,
                       const std::vector<la::Matrix>& factors, ModeId mode) {
  CSTF_CHECK(dims.size() >= 2, "MTTKRP needs order >= 2");
  CSTF_CHECK(mode < dims.size(), "mode out of range");
  CSTF_CHECK(factors.size() == dims.size(), "need one factor per mode");
  const std::size_t rank = factors[mode == 0 ? 1 : 0].cols();
  CSTF_CHECK(rank > 0, "rank must be positive");
  return rank;
}

std::vector<la::Matrix> randomFactors(const std::vector<Index>& dims,
                                      std::size_t rank, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<la::Matrix> factors;
  factors.reserve(dims.size());
  for (Index d : dims) factors.push_back(la::Matrix::random(d, rank, rng));
  return factors;
}

sparkle::Rdd<tensor::Nonzero> tensorToRdd(sparkle::Context& ctx,
                                          const tensor::CooTensor& t,
                                          std::size_t numPartitions) {
  return sparkle::parallelize(ctx, t.nonzeros(), numPartitions);
}

}  // namespace cstf::cstf_core
