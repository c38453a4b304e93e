#include "tensor/coo_tensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace cstf::tensor {

Nonzero makeNonzero3(Index i, Index j, Index k, Value v) {
  Nonzero nz;
  nz.order = 3;
  nz.idx[0] = i;
  nz.idx[1] = j;
  nz.idx[2] = k;
  nz.val = v;
  return nz;
}

Nonzero makeNonzero4(Index i, Index j, Index k, Index l, Value v) {
  Nonzero nz;
  nz.order = 4;
  nz.idx[0] = i;
  nz.idx[1] = j;
  nz.idx[2] = k;
  nz.idx[3] = l;
  nz.val = v;
  return nz;
}

Nonzero makeNonzero(const std::vector<Index>& idx, Value v) {
  CSTF_CHECK(idx.size() <= kMaxOrder, "tensor order exceeds kMaxOrder");
  Nonzero nz;
  nz.order = static_cast<ModeId>(idx.size());
  for (std::size_t m = 0; m < idx.size(); ++m) nz.idx[m] = idx[m];
  nz.val = v;
  return nz;
}

CooTensor::CooTensor(std::vector<Index> dims, std::vector<Nonzero> nonzeros,
                     std::string name)
    : dims_(std::move(dims)),
      nonzeros_(std::move(nonzeros)),
      name_(std::move(name)) {
  CSTF_CHECK(!dims_.empty() && dims_.size() <= kMaxOrder,
             "tensor order must be in [1, kMaxOrder]");
}

Index CooTensor::maxModeSize() const {
  Index m = 0;
  for (Index d : dims_) m = std::max(m, d);
  return m;
}

double CooTensor::density() const {
  double cells = 1.0;
  for (Index d : dims_) cells *= static_cast<double>(d);
  return cells > 0.0 ? static_cast<double>(nnz()) / cells : 0.0;
}

double CooTensor::normSq() const {
  double s = 0.0;
  for (const Nonzero& nz : nonzeros_) s += nz.val * nz.val;
  return s;
}

double CooTensor::norm() const { return std::sqrt(normSq()); }

namespace {
bool lexLess(const Nonzero& a, const Nonzero& b) {
  for (ModeId m = 0; m < a.order; ++m) {
    if (a.idx[m] != b.idx[m]) return a.idx[m] < b.idx[m];
  }
  return false;
}

bool sameCoords(const Nonzero& a, const Nonzero& b) {
  for (ModeId m = 0; m < a.order; ++m) {
    if (a.idx[m] != b.idx[m]) return false;
  }
  return true;
}
}  // namespace

void CooTensor::coalesce() {
  std::sort(nonzeros_.begin(), nonzeros_.end(), lexLess);
  std::vector<Nonzero> out;
  out.reserve(nonzeros_.size());
  for (const Nonzero& nz : nonzeros_) {
    if (!out.empty() && sameCoords(out.back(), nz)) {
      out.back().val += nz.val;
    } else {
      out.push_back(nz);
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const Nonzero& nz) { return nz.val == 0.0; }),
            out.end());
  nonzeros_ = std::move(out);
}

void CooTensor::validate() const {
  const ModeId n = order();
  for (std::size_t t = 0; t < nonzeros_.size(); ++t) {
    const Nonzero& nz = nonzeros_[t];
    if (nz.order != n) {
      throw Error(strprintf("nonzero %zu has order %d, tensor has order %d",
                            t, int(nz.order), int(n)));
    }
    for (ModeId m = 0; m < n; ++m) {
      if (nz.idx[m] >= dims_[m]) {
        throw Error(strprintf(
            "nonzero %zu index %u out of range for mode %d (dim %u)", t,
            nz.idx[m], int(m), dims_[m]));
      }
    }
  }
}

}  // namespace cstf::tensor
