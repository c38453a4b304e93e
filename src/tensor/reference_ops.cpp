#include "tensor/reference_ops.hpp"

#include <cmath>
#include <limits>

#include "la/row.hpp"
#include "tensor/matricize.hpp"

namespace cstf::tensor {

namespace {
std::size_t rankOf(const std::vector<la::Matrix>& factors, ModeId skip) {
  for (ModeId m = 0; m < factors.size(); ++m) {
    if (m != skip && !factors[m].empty()) return factors[m].cols();
  }
  CSTF_CHECK(false, "no usable factor matrix");
  return 0;
}
}  // namespace

la::Matrix referenceMttkrp(const CooTensor& t,
                           const std::vector<la::Matrix>& factors,
                           ModeId mode) {
  CSTF_CHECK(mode < t.order(), "mttkrp: mode out of range");
  CSTF_CHECK(factors.size() == t.order(), "mttkrp: need one factor per mode");
  const std::size_t rank = rankOf(factors, mode);
  for (ModeId m = 0; m < t.order(); ++m) {
    if (m == mode) continue;
    CSTF_CHECK(factors[m].rows() == t.dim(m) && factors[m].cols() == rank,
               "mttkrp: factor shape mismatch");
  }

  la::Matrix out(t.dim(mode), rank);
  std::vector<double> h(rank);
  for (const Nonzero& nz : t.nonzeros()) {
    for (std::size_t r = 0; r < rank; ++r) h[r] = nz.val;
    for (ModeId m = 0; m < t.order(); ++m) {
      if (m == mode) continue;
      const double* row = factors[m].row(nz.idx[m]);
      for (std::size_t r = 0; r < rank; ++r) h[r] *= row[r];
    }
    double* dst = out.row(nz.idx[mode]);
    for (std::size_t r = 0; r < rank; ++r) dst[r] += h[r];
  }
  return out;
}

la::Matrix mttkrpViaUnfolding(const CooTensor& t,
                              const std::vector<la::Matrix>& factors,
                              ModeId mode) {
  // Khatri-Rao over the fixed modes, highest mode first, so that the row
  // ordering matches matricizedColumn's strides (mode m has stride
  // prod_{l<m, l!=mode} I_l).
  la::Matrix kr;
  bool first = true;
  for (ModeId m = t.order(); m-- > 0;) {
    if (m == mode) continue;
    kr = first ? factors[m] : la::khatriRao(kr, factors[m]);
    first = false;
  }

  const SparseMatrix unfolded = matricize(t, mode);
  la::Matrix out(unfolded.rows, kr.cols());
  for (const SparseMatrixEntry& e : unfolded.entries) {
    const double* src = kr.row(static_cast<std::size_t>(e.col));
    double* dst = out.row(e.row);
    for (std::size_t r = 0; r < kr.cols(); ++r) dst[r] += e.val * src[r];
  }
  return out;
}

double innerProductWithModel(const CooTensor& t,
                             const std::vector<la::Matrix>& factors,
                             const std::vector<double>& lambda) {
  const std::size_t rank = lambda.size();
  double acc = 0.0;
  for (const Nonzero& nz : t.nonzeros()) {
    double cell = 0.0;
    for (std::size_t r = 0; r < rank; ++r) {
      double prod = lambda[r];
      for (ModeId m = 0; m < t.order(); ++m) {
        prod *= factors[m](nz.idx[m], r);
      }
      cell += prod;
    }
    acc += nz.val * cell;
  }
  return acc;
}

double modelNormSq(const std::vector<la::Matrix>& factors,
                   const std::vector<double>& lambda) {
  std::vector<la::Matrix> grams;
  grams.reserve(factors.size());
  for (const la::Matrix& f : factors) grams.push_back(la::gram(f));
  return modelNormSqFromGrams(grams, lambda);
}

double modelNormSqFromGrams(const std::vector<la::Matrix>& grams,
                            const std::vector<double>& lambda) {
  const std::size_t rank = lambda.size();
  la::Matrix h(rank, rank, 1.0);
  for (const la::Matrix& g : grams) h = la::hadamard(h, g);
  double acc = 0.0;
  for (std::size_t p = 0; p < rank; ++p) {
    for (std::size_t q = 0; q < rank; ++q) {
      acc += lambda[p] * lambda[q] * h(p, q);
    }
  }
  return acc;
}

double cpFit(const CooTensor& t, const std::vector<la::Matrix>& factors,
             const std::vector<double>& lambda) {
  const double xNormSq = t.norm() * t.norm();
  const double residSq = xNormSq -
                         2.0 * innerProductWithModel(t, factors, lambda) +
                         modelNormSq(factors, lambda);
  if (xNormSq <= 0.0) return 0.0;
  // A non-finite model has no fit (std::max(0.0, NaN) would read as 1.0).
  if (!std::isfinite(residSq)) return std::numeric_limits<double>::quiet_NaN();
  return 1.0 - std::sqrt(std::max(0.0, residSq)) / std::sqrt(xNormSq);
}

std::vector<double> denseReconstruction(
    const std::vector<Index>& dims, const std::vector<la::Matrix>& factors,
    const std::vector<double>& lambda) {
  std::size_t cells = 1;
  for (Index d : dims) cells *= d;
  CSTF_CHECK(cells <= (1u << 24), "denseReconstruction: tensor too large");

  std::vector<double> out(cells, 0.0);
  std::vector<Index> idx(dims.size(), 0);
  for (std::size_t c = 0; c < cells; ++c) {
    double cell = 0.0;
    for (std::size_t r = 0; r < lambda.size(); ++r) {
      double prod = lambda[r];
      for (std::size_t m = 0; m < dims.size(); ++m) prod *= factors[m](idx[m], r);
      cell += prod;
    }
    out[c] = cell;
    // Row-major increment (last mode fastest).
    for (std::size_t m = dims.size(); m-- > 0;) {
      if (++idx[m] < dims[m]) break;
      idx[m] = 0;
    }
  }
  return out;
}

}  // namespace cstf::tensor
