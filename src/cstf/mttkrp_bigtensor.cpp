#include "cstf/mttkrp_bigtensor.hpp"

#include "tensor/matricize.hpp"

namespace cstf::cstf_core {

namespace {
/// Key of a matricized entry: (target-mode row, unfolded column).
using CellKey = std::pair<Index, LongIndex>;
}  // namespace

la::Matrix mttkrpBigtensor(sparkle::Context& ctx,
                           const sparkle::Rdd<tensor::Nonzero>& X,
                           const std::vector<Index>& dims,
                           const std::vector<la::Matrix>& factors,
                           ModeId mode, const MttkrpOptions& opts) {
  CSTF_CHECK(dims.size() == 3,
             "BIGtensor's CP routine supports 3rd-order tensors only");
  CSTF_CHECK(mode < 3, "mode out of range");
  CSTF_CHECK(factors.size() == 3, "need one factor per mode");

  // Fixed modes: `a` is the low-stride mode of the unfolded column,
  // `b` the high-stride one (mode-1 of Table 2: a = j/B, b = k/C).
  const ModeId a = mode == 0 ? 1 : 0;
  const ModeId b = mode == 2 ? 1 : 2;
  const std::size_t rank = factors[a].cols();
  const double r = static_cast<double>(rank);
  const std::vector<Index> dimsCopy = dims;

  auto cellKeyOf = [dimsCopy, mode](const tensor::Nonzero& nz) {
    return CellKey(nz.idx[mode],
                   tensor::matricizedColumn(nz, dimsCopy, mode));
  };

  // STAGE 1: map X(1) on the high-stride fixed mode, join factor `b`,
  // emit ((i, j0), X(i,j0) * C(k,:)).
  auto keyedB = X.map([b, cellKeyOf](const tensor::Nonzero& nz) {
    return std::pair<Index, std::pair<CellKey, Value>>(
        nz.idx[b], {cellKeyOf(nz), nz.val});
  });
  auto factorB = factorToRdd(ctx, factors[b], opts.numPartitions);
  auto stage1 = keyedB.join(
      factorB,
      [](const std::pair<Index, std::pair<CellKey, Value>>& kv,
         const la::Row& row) {
        const auto& [cell, val] = kv.second;
        return std::pair<CellKey, la::Row>(cell, la::rowScale(row, val));
      },
      r, nullptr, "bigtensor-join-1");

  // STAGE 2: bin(X(1)) — the sparsity-pattern pass (values dropped, an
  // extra full scan of the tensor) — joined with factor `a` on the
  // low-stride mode, emitting ((i, j0), B(j,:)).
  auto keyedA = X.map([a, cellKeyOf](const tensor::Nonzero& nz) {
    return std::pair<Index, CellKey>(nz.idx[a], cellKeyOf(nz));
  });
  auto factorA = factorToRdd(ctx, factors[a], opts.numPartitions);
  auto stage2 = keyedA.join(
      factorA,
      [](const std::pair<Index, CellKey>& kv, const la::Row& row) {
        // bin() * B(j,:) — one vector op per record.
        return std::pair<CellKey, la::Row>(kv.second, row);
      },
      r, nullptr, "bigtensor-join-2");

  // STAGE 3: join the two nnz-sized intermediates on (i, j0) — both sides
  // shuffle, "double the number of tensor nonzeros" — Hadamard-combine,
  // then row-sum per i.
  auto combined = stage1.join(
      stage2,
      [](const std::pair<CellKey, la::Row>& kv, const la::Row& row) {
        return std::pair<Index, la::Row>(kv.first.first,
                                         la::rowHadamard(kv.second, row));
      },
      2.0 * r, nullptr, "bigtensor-join-3");
  auto reduced = combined.reduceByKey(la::rowAddInPlace,
                                      ctx.hashPartitioner(opts.numPartitions),
                                      opts.mapSideCombine, r,
                                      "bigtensor-reduceByKey");

  return collectRows(reduced, dims[mode], rank, "bigtensor-mttkrp-result");
}

}  // namespace cstf::cstf_core
