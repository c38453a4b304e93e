// Read-side query engine over a trained CP model.
//
// CP factors answer two query shapes that recommendation workloads need
// (HaTen2/SALS line of work — "serve the completed tensor"):
//
//  * point reconstruction  x(i_1..i_N) = sum_r lambda_r prod_m A_m(i_m, r)
//  * top-k completion      fix every mode but one, rank that mode's rows
//
// The engine is one ShardScan per mode (serve/shard_scan.hpp: lambda folded
// into mode 0, per-row norms, norm-descending visit order, the pruned heap
// scan). Top-k splits the mode's visit order into 512-row ranges that run
// in parallel on common/thread_pool, sharing the pruning floor; the merged
// result is exact (ties broken by ascending index), independent of thread
// count and of whether pruning is enabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "serve/model.hpp"
#include "serve/shard_scan.hpp"

namespace cstf::serve {

struct TopKOptions {
  /// Norm-bound pruning; off gives the brute-force scan (same results).
  bool prune = true;
};

/// What the Batcher dispatches against: one Engine process or a
/// ShardedEngine fanning out over replicated shards. Implementations must
/// answer topK() exactly (the same entries a brute-force scan would rank)
/// and be safe to call concurrently.
class TopKProvider {
 public:
  virtual ~TopKProvider() = default;

  virtual ModeId order() const = 0;
  virtual const std::vector<Index>& dims() const = 0;
  virtual double predict(const std::vector<Index>& indices) const = 0;
  virtual TopKResult topK(ModeId mode, const std::vector<Index>& fixed,
                          std::size_t k, const TopKOptions& opts = {}) const = 0;

  /// Called by the Batcher after dispatching batch `batchesDispatched`
  /// (1-based). Providers that model time-driven faults (a FaultPlan keyed
  /// on batch boundaries) apply them here; the default is a no-op.
  virtual void noteBatchBoundary(std::uint64_t batchesDispatched) const {
    (void)batchesDispatched;
  }
};

class Engine : public TopKProvider {
 public:
  /// `threads == 0` sizes the pool to the hardware. All query methods are
  /// const and safe to call concurrently.
  explicit Engine(CpModel model, std::size_t threads = 0);

  ModeId order() const override { return static_cast<ModeId>(dims_.size()); }
  std::size_t rank() const { return rank_; }
  const std::vector<Index>& dims() const override { return dims_; }
  const std::vector<double>& lambda() const { return lambda_; }
  double finalFit() const { return finalFit_; }

  /// Reconstruct one cell; `indices` holds one index per mode.
  double predict(const std::vector<Index>& indices) const override;

  /// Top-k completion along `mode`: `fixed` holds one index per mode (the
  /// entry at `mode` is ignored); returns the k rows of that mode with the
  /// highest reconstructed values.
  TopKResult topK(ModeId mode, const std::vector<Index>& fixed,
                  std::size_t k, const TopKOptions& opts = {}) const override;

 private:
  std::size_t rank_ = 0;
  std::vector<Index> dims_;
  std::vector<double> lambda_;
  double finalFit_ = 0.0;
  /// One scan per mode holding every row (S = 1). Declared after the
  /// metadata above, which the constructor copies before moving the model
  /// into the scan builder.
  std::vector<ShardScan> scans_;
  mutable ThreadPool pool_;
};

}  // namespace cstf::serve
