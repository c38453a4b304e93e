#include "serve/shard_scan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace cstf::serve {

namespace {

/// Raise `floor` to at least `v` (atomic max; relaxed is enough — the
/// floor is a monotone lower bound used only to skip provably losing rows).
void raiseFloor(std::atomic<double>& floor, double v) {
  double cur = floor.load(std::memory_order_relaxed);
  while (v > cur &&
         !floor.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Insert `e` into a heap of at most `kk` entries (front = worst), evicting
/// the worst when full. Out of line on purpose: it runs only for rows that
/// enter the heap, and inlined into the row loop it pushes the dot
/// product's accumulator out of a register (full scans ran ~30% slower
/// that way with GCC 12 -O3).
[[gnu::noinline]] void keep(std::vector<TopKEntry>& heap, TopKEntry e,
                            std::size_t kk) {
  if (heap.size() == kk) {
    std::pop_heap(heap.begin(), heap.end(), topKBetter);
    heap.pop_back();
  }
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(), topKBetter);
}

}  // namespace

ScanResult ShardScan::scan(std::size_t begin, std::size_t end,
                           const QueryVector& q, std::size_t kk, bool prune,
                           std::atomic<double>& sharedFloor,
                           const std::atomic<bool>* abort) const {
  ScanResult out;
  std::vector<TopKEntry>& heap = out.heap;  // front = worst kept entry
  heap.reserve(std::min(kk, end - begin));
  const std::size_t rank = rows_.cols();
  const double* w = q.w.data();
  double floor = sharedFloor.load(std::memory_order_relaxed);
  for (std::size_t p = begin; p < end; ++p) {
    if (((p - begin) & 15u) == 0) {
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
        out.aborted = true;
        return out;
      }
      floor = std::max(floor, sharedFloor.load(std::memory_order_relaxed));
    }
    const Index i = visit_[p];
    // Strict: a row whose bound equals the floor may still tie into the
    // top-k. Rows arrive norm-descending, so the rest of the range follows.
    if (prune && norm_[i] * q.norm < floor) {
      out.stats.rowsPruned += end - p;
      break;
    }
    ++out.stats.rowsScanned;
    const double* row = rows_.row(i);
    double s = 0.0;
    for (std::size_t r = 0; r < rank; ++r) s += w[r] * row[r];
    const TopKEntry e{static_cast<Index>(i * stride_ + offset_), s};
    if (heap.size() == kk && !topKBetter(e, heap.front())) {
      continue;  // heap unchanged; floor cannot have risen
    }
    keep(heap, e, kk);
    if (heap.size() == kk) {
      floor = std::max(floor, heap.front().score);
      raiseFloor(sharedFloor, heap.front().score);
    }
  }
  return out;
}

std::vector<std::vector<ShardScan>> buildShardScans(CpModel model,
                                                    std::size_t numShards) {
  const std::size_t order = model.dims.size();
  const std::size_t rank = model.rank;
  CSTF_CHECK(order >= 2 && order <= kMaxOrder,
             "serving needs a model of order >= 2 (and <= kMaxOrder)");
  CSTF_CHECK(model.factors.size() == order,
             "model needs one factor per mode");
  CSTF_CHECK(model.lambda.size() == rank && rank >= 1,
             "model lambda must have one finite weight per rank component");
  for (const double l : model.lambda) {
    CSTF_CHECK(std::isfinite(l), "model lambda must be finite for serving");
  }
  for (std::size_t m = 0; m < order; ++m) {
    CSTF_CHECK(model.factors[m].rows() == model.dims[m] &&
                   model.factors[m].cols() == rank,
               "model factor shape does not match dims/rank");
  }
  CSTF_CHECK(numShards >= 1, "sharded serving needs >= 1 shard");

  std::vector<std::vector<ShardScan>> shards(numShards,
                                             std::vector<ShardScan>(order));
  for (std::size_t m = 0; m < order; ++m) {
    la::Matrix& src = model.factors[m];
    const std::size_t dim = model.dims[m];
    for (std::size_t s = 0; s < numShards; ++s) {
      ShardScan& sc = shards[s][m];
      const std::size_t localRows =
          dim > s ? (dim - s - 1) / numShards + 1 : 0;
      sc.stride_ = numShards;
      sc.offset_ = s;
      sc.rows_ = la::Matrix(localRows, rank);
      sc.norm_.resize(localRows);
      for (std::size_t local = 0; local < localRows; ++local) {
        const std::size_t global = local * numShards + s;
        const double* in = src.row(global);
        double* out = sc.rows_.row(local);
        double sq = 0.0;
        for (std::size_t r = 0; r < rank; ++r) {
          // Fold lambda into mode 0: predictions become a plain product of
          // factor rows, and mode-0 candidates carry their true magnitude.
          const double v = m == 0 ? model.lambda[r] * in[r] : in[r];
          // A NaN norm would break the visit-order sort's strict weak order.
          CSTF_CHECK(std::isfinite(v),
                     strprintf("model factor entry is not finite (mode %d, "
                               "row %zu)",
                               int(m) + 1, global));
          out[r] = v;
          sq += v * v;
        }
        sc.norm_[local] = std::sqrt(sq);
      }
      sc.visit_.resize(localRows);
      std::iota(sc.visit_.begin(), sc.visit_.end(), Index{0});
      const std::vector<double>& norms = sc.norm_;
      std::sort(sc.visit_.begin(), sc.visit_.end(),
                [&norms](Index a, Index b) {
                  return norms[a] > norms[b] || (norms[a] == norms[b] && a < b);
                });
    }
    src = la::Matrix();  // the scans hold their copies; free the source
  }
  return shards;
}

void validateQuery(const std::vector<Index>& dims,
                   const std::vector<Index>& indices, std::size_t freeMode) {
  CSTF_CHECK(indices.size() == dims.size(),
             "query needs one index per mode (a top-k's own mode ignored)");
  for (std::size_t m = 0; m < dims.size(); ++m) {
    CSTF_CHECK(m == freeMode || indices[m] < dims[m],
               strprintf("query index out of range for mode %d", int(m) + 1));
  }
}

void validateTopKQuery(const std::vector<Index>& dims, ModeId mode,
                       const std::vector<Index>& fixed, std::size_t k) {
  CSTF_CHECK(mode < dims.size(), "top-k mode out of range");
  CSTF_CHECK(k >= 1, "top-k needs k >= 1");
  validateQuery(dims, fixed, mode);
}

double cellValue(const double* const* rows, ModeId order, std::size_t rank) {
  double cell = 0.0;
  for (std::size_t r = 0; r < rank; ++r) {
    double prod = rows[0][r];
    for (ModeId m = 1; m < order; ++m) prod *= rows[m][r];
    cell += prod;
  }
  return cell;
}

QueryVector queryVector(const double* const* rows, ModeId order,
                        ModeId mode, std::size_t rank) {
  QueryVector q;
  q.w.resize(rank);
  bool first = true;
  for (ModeId m = 0; m < order; ++m) {
    if (m == mode) continue;
    const double* row = rows[m];
    if (first) {
      std::copy(row, row + rank, q.w.begin());
      first = false;
    } else {
      for (std::size_t r = 0; r < rank; ++r) q.w[r] *= row[r];
    }
  }
  double sq = 0.0;
  for (const double v : q.w) sq += v * v;
  q.norm = std::sqrt(sq);
  return q;
}

TopKResult gatherTopK(const std::vector<ScanResult>& parts, std::size_t kk) {
  TopKResult res;
  for (const ScanResult& part : parts) {
    res.entries.insert(res.entries.end(), part.heap.begin(), part.heap.end());
    res.stats += part.stats;
  }
  std::sort(res.entries.begin(), res.entries.end(), topKBetter);
  if (res.entries.size() > kk) res.entries.resize(kk);
  return res;
}

}  // namespace cstf::serve
