#include "tensor/stats.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/strings.hpp"

namespace cstf::tensor {

TensorStats analyzeTensor(const CooTensor& t) {
  TensorStats s;
  s.nnz = t.nnz();
  s.density = t.density();
  s.frobeniusNorm = t.norm();

  if (t.nnz() > 0) {
    s.minValue = t.nonzeros().front().val;
    s.maxValue = s.minValue;
    double sum = 0.0;
    for (const Nonzero& nz : t.nonzeros()) {
      s.minValue = std::min(s.minValue, nz.val);
      s.maxValue = std::max(s.maxValue, nz.val);
      sum += nz.val;
    }
    s.meanValue = sum / static_cast<double>(t.nnz());
  }

  for (ModeId m = 0; m < t.order(); ++m) {
    ModeStats ms;
    ms.dimension = t.dim(m);

    std::unordered_map<Index, std::size_t> counts;
    counts.reserve(t.nnz() / 4 + 1);
    for (const Nonzero& nz : t.nonzeros()) ++counts[nz.idx[m]];

    ms.usedIndices = static_cast<Index>(counts.size());
    if (!counts.empty()) {
      std::vector<std::size_t> perIndex;
      perIndex.reserve(counts.size());
      for (const auto& [idx, c] : counts) perIndex.push_back(c);
      std::sort(perIndex.begin(), perIndex.end());

      ms.maxSliceNnz = perIndex.back();
      ms.meanSliceNnz =
          static_cast<double>(t.nnz()) / static_cast<double>(perIndex.size());

      // Top-1% share (at least one index).
      const std::size_t topK =
          std::max<std::size_t>(1, perIndex.size() / 100);
      std::size_t topSum = 0;
      for (std::size_t i = perIndex.size() - topK; i < perIndex.size(); ++i) {
        topSum += perIndex[i];
      }
      ms.top1PercentShare =
          static_cast<double>(topSum) / static_cast<double>(t.nnz());

      // Gini over the sorted counts: G = (2*sum(i*x_i)/(n*sum x) - (n+1)/n).
      double weighted = 0.0;
      double total = 0.0;
      for (std::size_t i = 0; i < perIndex.size(); ++i) {
        weighted += static_cast<double>(i + 1) *
                    static_cast<double>(perIndex[i]);
        total += static_cast<double>(perIndex[i]);
      }
      const double n = static_cast<double>(perIndex.size());
      ms.gini = (2.0 * weighted) / (n * total) - (n + 1.0) / n;
    }
    s.modes.push_back(ms);
  }
  return s;
}

std::string formatStats(const CooTensor& t, const TensorStats& s) {
  std::string out = strprintf(
      "tensor %s: order %d, nnz %zu, density %.2e, |X|_F %.4g\n"
      "values: min %.4g, mean %.4g, max %.4g\n",
      t.name().empty() ? "<unnamed>" : t.name().c_str(), int(t.order()),
      s.nnz, s.density, s.frobeniusNorm, s.minValue, s.meanValue,
      s.maxValue);
  for (ModeId m = 0; m < s.modes.size(); ++m) {
    const ModeStats& ms = s.modes[m];
    out += strprintf(
        "mode %d: dim %u (%u used), slice nnz mean %.1f max %zu, "
        "top-1%% share %.1f%%, gini %.2f\n",
        int(m) + 1, ms.dimension, ms.usedIndices, ms.meanSliceNnz,
        ms.maxSliceNnz, 100.0 * ms.top1PercentShare, ms.gini);
  }
  return out;
}

}  // namespace cstf::tensor
