#include "serve/engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

namespace cstf::serve {

namespace {

/// Rows of the visit order per parallel work unit of a top-k scan.
constexpr std::size_t kBlockRows = 512;

}  // namespace

Engine::Engine(CpModel model, std::size_t threads)
    : rank_(model.rank),
      dims_(model.dims),
      lambda_(model.lambda),
      finalFit_(model.finalFit),
      scans_(std::move(buildShardScans(std::move(model), 1).front())),
      pool_(threads) {}

double Engine::predict(const std::vector<Index>& indices) const {
  validateQuery(dims_, indices, dims_.size());
  const double* rows[kMaxOrder];
  for (ModeId m = 0; m < order(); ++m) rows[m] = scans_[m].row(indices[m]);
  return cellValue(rows, order(), rank_);
}

TopKResult Engine::topK(ModeId mode, const std::vector<Index>& fixed,
                        std::size_t k, const TopKOptions& opts) const {
  validateTopKQuery(dims_, mode, fixed, k);
  const double* rows[kMaxOrder];
  for (ModeId m = 0; m < order(); ++m) {
    if (m != mode) rows[m] = scans_[m].row(fixed[m]);
  }
  const QueryVector q = queryVector(rows, order(), mode, rank_);

  const ShardScan& scan = scans_[mode];
  const std::size_t n = scan.rows();
  const std::size_t kk = std::min(k, n);
  std::vector<ScanResult> parts((n + kBlockRows - 1) / kBlockRows);
  std::atomic<double> sharedFloor{-std::numeric_limits<double>::infinity()};
  pool_.parallelFor(parts.size(), [&](std::size_t b) {
    const std::size_t begin = b * kBlockRows;
    parts[b] = scan.scan(begin, std::min(n, begin + kBlockRows), q, kk,
                         opts.prune, sharedFloor);
  });
  return gatherTopK(parts, kk);
}

}  // namespace cstf::serve
