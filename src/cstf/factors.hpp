// Factor-matrix plumbing between the driver and the engine.
//
// The paper stores factors as Spark IndexedRowMatrix RDDs of
// (index, row) pairs (Table 3); here factors live on the driver as
// la::Matrix and are turned into (index, row) RDDs whenever a backend needs
// to join against them, so each join honestly meters the factor-side
// shuffle the real system pays.
#pragma once

#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/row.hpp"
#include "sparkle/rdd.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::cstf_core {

using FactorRdd = sparkle::Rdd<std::pair<Index, la::Row>>;

/// Distribute a factor matrix as an (index, row) pair RDD.
FactorRdd factorToRdd(sparkle::Context& ctx, const la::Matrix& m,
                      std::size_t numPartitions = 0);

/// Run `rows` as one result stage (`label`) and write each row straight
/// into its row of a dense (numRows x rank) matrix; indices absent from
/// `rows` stay zero (empty tensor slices). Keys must be unique across the
/// whole RDD, as they are after reduceByKey: each task then writes only
/// its own matrix rows, and a retried task rewrites the same values.
la::Matrix collectRows(const FactorRdd& rows, std::size_t numRows,
                       std::size_t rank, const std::string& label);

/// Check one MTTKRP call's shape (order >= 2, mode in range, one factor
/// per mode) and return the rank the non-target factors carry.
std::size_t mttkrpRank(const std::vector<Index>& dims,
                       const std::vector<la::Matrix>& factors, ModeId mode);

/// Random CP-ALS initialization: one (dim_m x rank) matrix per mode.
std::vector<la::Matrix> randomFactors(const std::vector<Index>& dims,
                                      std::size_t rank, std::uint64_t seed);

/// Distribute a tensor's nonzeros as an RDD (typically followed by
/// .cache(), the paper's iteration-reuse strategy in §4.1).
sparkle::Rdd<tensor::Nonzero> tensorToRdd(sparkle::Context& ctx,
                                          const tensor::CooTensor& t,
                                          std::size_t numPartitions = 0);

}  // namespace cstf::cstf_core
