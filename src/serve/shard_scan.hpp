// The one top-k scan behind both serving engines.
//
// A ShardScan holds one mode's row block for one shard of a CP model: rows
// {s, s+S, s+2S, ...} of that mode's factor (global index = local * S + s),
// with lambda folded into mode 0 — one multiply per entry, so predictions
// stay bit-identical to tensor::denseReconstruction's evaluation order —
// plus each row's L2 norm and a norm-descending visit order over local
// positions (ascending index on ties). Engine is the S = 1 case, scanned in
// 512-row ranges across its pool; ShardedEngine holds S scans per mode and
// layers replicas, failover and shedding on top.
//
// scan() scores a range of visit positions against the query vector w with
// Cauchy-Schwarz pruning: score(i) = <A(i,:), w> <= ||A(i,:)|| * ||w||, so
// once one row's bound falls strictly below the floor, every later row of
// the range (norm-descending) is skipped without touching its data. The
// floor is shared across concurrent scans through an atomic, and a heap
// raises it only once it holds min(k, the mode's total rows) entries — a
// smaller heap's worst entry does not bound the global k-th best — so the
// gathered result is exact: independent of how the visit order is split
// into ranges, of thread count, and of whether pruning is on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "la/matrix.hpp"
#include "serve/model.hpp"

namespace cstf::serve {

struct TopKEntry {
  Index index = 0;
  double score = 0.0;

  friend bool operator==(const TopKEntry& a, const TopKEntry& b) {
    return a.index == b.index && a.score == b.score;
  }
};

struct TopKStats {
  /// Rows whose dot product was actually computed.
  std::uint64_t rowsScanned = 0;
  /// Rows skipped by the norm bound.
  std::uint64_t rowsPruned = 0;

  TopKStats& operator+=(const TopKStats& o) {
    rowsScanned += o.rowsScanned;
    rowsPruned += o.rowsPruned;
    return *this;
  }
};

struct TopKResult {
  /// Best first: (score descending, index ascending).
  std::vector<TopKEntry> entries;
  TopKStats stats;
};

/// Total order on top-k candidates: higher score wins, ties go to the
/// lower index. Every heap and the gather sort by it, which is what makes
/// pruned, unpruned, blocked and sharded scans return identical results.
inline bool topKBetter(const TopKEntry& a, const TopKEntry& b) {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

/// The top-k query vector w and its L2 norm.
struct QueryVector {
  std::vector<double> w;
  double norm = 0.0;
};

/// What one scan() call produced.
struct ScanResult {
  /// Kept candidates in heap order (front = worst kept entry).
  std::vector<TopKEntry> heap;
  TopKStats stats;
  /// The abort flag was seen mid-scan: `heap` is incomplete, but `stats`
  /// still count the work that was done.
  bool aborted = false;
};

class ShardScan {
 public:
  std::size_t rows() const { return rows_.rows(); }
  /// Folded row at local position `local`.
  const double* row(std::size_t local) const { return rows_.row(local); }

  /// Pruned scan over visit positions [begin, end). `kk` is min(k, the
  /// mode's total rows), at least 1; `sharedFloor` starts at -inf and is
  /// shared by every scan of one query. `abort`, when given, is polled
  /// every 16 rows.
  ScanResult scan(std::size_t begin, std::size_t end, const QueryVector& q,
                  std::size_t kk, bool prune, std::atomic<double>& sharedFloor,
                  const std::atomic<bool>* abort = nullptr) const;

 private:
  friend std::vector<std::vector<ShardScan>> buildShardScans(
      CpModel model, std::size_t numShards);

  la::Matrix rows_;
  std::vector<double> norm_;
  std::vector<Index> visit_;
  std::size_t stride_ = 1;
  std::size_t offset_ = 0;
};

/// Validates `model` for serving and splits every mode row-wise into
/// `numShards` scans: result[s][m] holds shard s's rows of mode m. Throws
/// cstf::Error on a malformed model, naming the mode and row of any
/// non-finite factor entry.
std::vector<std::vector<ShardScan>> buildShardScans(CpModel model,
                                                    std::size_t numShards);

/// Throws cstf::Error unless `indices` holds one in-range index per mode of
/// `dims`. The entry at `freeMode` is not checked (pass dims.size() for a
/// point query).
void validateQuery(const std::vector<Index>& dims,
                   const std::vector<Index>& indices, std::size_t freeMode);

/// validateQuery for a top-k along `mode`, plus the mode and k checks.
void validateTopKQuery(const std::vector<Index>& dims, ModeId mode,
                       const std::vector<Index>& fixed, std::size_t k);

/// One reconstructed cell from one folded row per mode, in
/// tensor::denseReconstruction's accumulation order.
double cellValue(const double* const* rows, ModeId order, std::size_t rank);

/// w for a top-k along `mode`: the Hadamard product of rows[m] for every
/// m != mode in ascending mode order, first copied then multiplied (lambda
/// rides in exactly once, via folded mode 0).
QueryVector queryVector(const double* const* rows, ModeId order,
                        ModeId mode, std::size_t rank);

/// Merge the scans of one query: concatenate their heaps, sum their stats,
/// sort by topKBetter and keep the best `kk`.
TopKResult gatherTopK(const std::vector<ScanResult>& parts, std::size_t kk);

}  // namespace cstf::serve
