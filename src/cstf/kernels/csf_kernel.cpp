// CSF local kernel: fiber-contiguous accumulation over the cache-time
// compressed layout (tensor/csf.hpp).
//
// Per fiber the R-wide inner loop streams contiguous (innerIdx, val) pairs
// against the innermost factor — one SpMV row — then a single
// Hadamard-scaled combine folds the fiber's accumulator into its slice
// row. For order 3 this is exactly DFacTo's two-SpMV MTTKRP: the fiber
// pass is X(n) against the inner factor, the combine the row-scaled
// product with the outer factor. Compared to a row-at-a-time pass over raw
// COO records (tensor::referenceMttkrp) this saves (order-2) of the
// (order-1) Hadamard multiplies on every nonzero that shares a fiber, and
// the layout's sorted slices emit directly in index order.
// Accumulators are plain contiguous doubles, each fiber's outer factor
// rows are fetched once before the rank loops, and each slice accumulates
// straight into the row it emits.
#include "cstf/mttkrp_local.hpp"

namespace cstf::cstf_core {

std::vector<std::pair<Index, la::Row>> csfMttkrp(
    const tensor::CsfLayout& layout, const std::vector<la::Matrix>& factors,
    ModeId mode, std::size_t rank, LocalKernelStats& stats) {
  const ModeId order = static_cast<ModeId>(factors.size());
  CSTF_CHECK(layout.order == order && mode < layout.modes.size(),
             "csf kernel: layout/factor shape mismatch");
  const tensor::CsfModeView& v = layout.view(mode);
  const std::size_t numOuter = v.fixedModes.size() - 1;
  const la::Matrix& inner = factors[v.fixedModes.back()];

  std::vector<std::pair<Index, la::Row>> out;
  out.reserve(v.numSlices());
  // R-wide scratch, reused by every fiber: the fiber accumulator, the
  // fiber's outer-row pointers and (order >= 5) their running product.
  std::vector<double> acc(rank);
  std::vector<double> w(rank);
  std::vector<const double*> outer(numOuter);
  for (std::size_t s = 0; s < v.numSlices(); ++s) {
    // The slice accumulates straight into its output row, which starts
    // at 0.0.
    out.emplace_back(v.sliceIdx[s], la::Row(rank));
    double* slice = out.back().second.data();
    for (std::uint32_t f = v.slicePtr[s]; f < v.slicePtr[s + 1]; ++f) {
      // Every fiber holds at least one entry; the first one seeds the
      // accumulator as 0.0 + val * row[r], the same sum a zeroed
      // accumulator would form.
      std::uint32_t e = v.fiberPtr[f];
      const std::uint32_t end = v.fiberPtr[f + 1];
      {
        const double val = v.vals[e];
        const double* row = inner.row(v.innerIdx[e]);
        for (std::size_t r = 0; r < rank; ++r) acc[r] = 0.0 + val * row[r];
      }
      for (++e; e < end; ++e) {
        const double val = v.vals[e];
        const double* row = inner.row(v.innerIdx[e]);
        for (std::size_t r = 0; r < rank; ++r) acc[r] += val * row[r];
      }
      // Outer rows are loaded once per fiber, before the rank loops; the
      // weight is w0[r] * w1[r] * ... in ascending-mode order.
      const Index* outerIdx = v.fiberOuter.data() + f * numOuter;
      for (std::size_t o = 0; o < numOuter; ++o) {
        outer[o] = factors[v.fixedModes[o]].row(outerIdx[o]);
      }
      switch (numOuter) {
        case 0:
          for (std::size_t r = 0; r < rank; ++r) slice[r] += acc[r];
          break;
        case 1: {
          const double* w0 = outer[0];
          for (std::size_t r = 0; r < rank; ++r) slice[r] += w0[r] * acc[r];
          break;
        }
        case 2: {
          const double* w0 = outer[0];
          const double* w1 = outer[1];
          for (std::size_t r = 0; r < rank; ++r) {
            slice[r] += (w0[r] * w1[r]) * acc[r];
          }
          break;
        }
        default: {
          const double* w0 = outer[0];
          for (std::size_t r = 0; r < rank; ++r) w[r] = w0[r];
          for (std::size_t o = 1; o < numOuter; ++o) {
            const double* wo = outer[o];
            for (std::size_t r = 0; r < rank; ++r) w[r] *= wo[r];
          }
          for (std::size_t r = 0; r < rank; ++r) slice[r] += w[r] * acc[r];
          break;
        }
      }
    }
  }

  stats.outputRows += out.size();
  // 2R per entry (multiply-accumulate) + R*(numOuter+1) per fiber
  // (outer Hadamard and the slice combine).
  stats.flops += 2 * static_cast<std::uint64_t>(v.numEntries()) * rank +
                 static_cast<std::uint64_t>(v.numFibers()) *
                     (numOuter + 1) * rank;
  return out;
}

}  // namespace cstf::cstf_core
