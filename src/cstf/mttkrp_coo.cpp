#include "cstf/mttkrp_coo.hpp"

#include "cstf/records.hpp"

namespace cstf::cstf_core {

std::vector<ModeId> cooJoinOrder(ModeId order, ModeId mode) {
  std::vector<ModeId> fixed;
  for (ModeId m = order; m-- > 0;) {
    if (m != mode) fixed.push_back(m);
  }
  return fixed;
}

la::Matrix mttkrpCoo(sparkle::Context& ctx,
                     const sparkle::Rdd<tensor::Nonzero>& X,
                     const std::vector<Index>& dims,
                     const std::vector<la::Matrix>& factors, ModeId mode,
                     const MttkrpOptions& opts) {
  const ModeId order = static_cast<ModeId>(dims.size());
  const std::size_t rank = mttkrpRank(dims, factors, mode);

  const std::vector<ModeId> fixed = cooJoinOrder(order, mode);
  const double r = static_cast<double>(rank);

  // STAGE 0: key nonzeros by the first join mode.
  auto keyed = X.map([d0 = fixed[0]](const tensor::Nonzero& nz) {
    return std::pair<Index, Carry>(nz.idx[d0], Carry{nz, {}});
  });

  // Joins for every fixed mode but the last: fold the joined factor row
  // into the carried partial product and re-key by the next join mode.
  for (std::size_t s = 0; s + 1 < fixed.size(); ++s) {
    auto factorRdd = factorToRdd(ctx, factors[fixed[s]], opts.numPartitions);
    const ModeId nextKey = fixed[s + 1];
    keyed = keyed.join(
        factorRdd,
        [nextKey](std::pair<Index, Carry>& kv, const la::Row& row) {
          Carry& c = kv.second;
          if (c.partial.empty()) {
            // First join: scale by the tensor value (paper: X(i,j,k)C(k,:)).
            c.partial = la::rowScale(row, c.nz.val);
          } else {
            la::rowHadamardInPlace(c.partial, row);
          }
          kv.first = c.nz.idx[nextKey];
        },
        r, nullptr, "coo-join");
  }

  // Last join: finish the Hadamard product and emit (mode index, row).
  auto lastFactor =
      factorToRdd(ctx, factors[fixed.back()], opts.numPartitions);
  auto rows = keyed.join(
      lastFactor,
      [mode](const std::pair<Index, Carry>& kv, const la::Row& row) {
        const Carry& c = kv.second;
        la::Row out = c.partial.empty() ? la::rowScale(row, c.nz.val)
                                        : la::rowHadamard(c.partial, row);
        return std::pair<Index, la::Row>(c.nz.idx[mode], std::move(out));
      },
      r, nullptr, "coo-join");

  // STAGE 3: sum rows with equal output index.
  auto reduced = rows.reduceByKey(la::rowAddInPlace,
                                  ctx.hashPartitioner(opts.numPartitions),
                                  opts.mapSideCombine, r, "coo-reduceByKey");

  return collectRows(reduced, dims[mode], rank, "coo-mttkrp-result");
}

}  // namespace cstf::cstf_core
