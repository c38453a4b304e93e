#include "cstf/cost_model.hpp"

#include <algorithm>

namespace cstf::cstf_core {

MttkrpCost analyticMttkrpCost(Backend backend, ModeId order,
                              std::uint64_t nnz, std::size_t rank,
                              Index dim2, Index dim3) {
  CSTF_CHECK(order >= 2, "order must be >= 2");
  const double nr = static_cast<double>(nnz) * static_cast<double>(rank);
  MttkrpCost c;
  switch (backend) {
    case Backend::kBigtensor:
      CSTF_CHECK(order == 3, "BIGtensor cost is defined for order 3 only");
      c.flops = 5.0 * nr;
      c.intermediateData =
          static_cast<double>(std::max<std::uint64_t>(dim2 + nnz, dim3 + nnz));
      c.shuffles = 4;
      break;
    case Backend::kCoo:
      c.flops = static_cast<double>(order) * nr;
      c.intermediateData = nr;
      c.shuffles = order;
      break;
    case Backend::kQcoo:
      c.flops = static_cast<double>(order) * nr;
      c.intermediateData = static_cast<double>(order - 1) * nr;
      c.shuffles = 2;
      break;
    case Backend::kReference:
      c.flops = static_cast<double>(order) * nr;
      c.intermediateData = 0.0;
      c.shuffles = 0;
      break;
  }
  return c;
}

CpIterationCost analyticCpIterationCost(Backend backend, ModeId order) {
  CSTF_CHECK(order >= 2, "order must be >= 2");
  const double n = static_cast<double>(order);
  CpIterationCost c;
  switch (backend) {
    case Backend::kBigtensor:
      CSTF_CHECK(order == 3, "BIGtensor cost is defined for order 3 only");
      c.shuffles = 4 * 3;
      // 4 nnz-sized shuffle streams per MTTKRP (two joins, the double-sided
      // stage-3 join, and the reduce).
      c.joinCommUnits = 4.0 * 3.0;
      break;
    case Backend::kCoo:
      c.shuffles = static_cast<int>(order) * static_cast<int>(order);
      c.joinCommUnits = n * n;  // §5: N^2 * nnz * R
      break;
    case Backend::kQcoo:
      c.shuffles = 2 * static_cast<int>(order);
      c.joinCommUnits = n * (n - 1.0);  // §5: N * (N-1) * nnz * R
      break;
    case Backend::kReference:
      break;
  }
  return c;
}

double predictedQcooSavings(ModeId order) {
  CSTF_CHECK(order >= 2, "order must be >= 2");
  return 1.0 / static_cast<double>(order);
}

}  // namespace cstf::cstf_core
