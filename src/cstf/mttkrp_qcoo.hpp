// CSTF-QCOO: the queue strategy (paper §4.2, Algorithm 3, Table 2 right
// column).
//
// A persistent RDD carries, with every nonzero, a queue of the N-1 factor
// rows the *next* MTTKRP needs. Each MTTKRP then costs exactly one join
// (bringing in the freshly updated factor, enqueued while the stalest row —
// the one about to be recomputed — is dequeued) plus one reduceByKey.
// Between MTTKRPs the record is re-keyed, in the same map, to the mode the
// *following* MTTKRP joins on, which is how consecutive MTTKRPs reuse each
// other's data placement (Figure 1). Here that map runs inside the join
// (Rdd::join with an in-place update): each record is advanced and
// re-keyed where the join decoded it, and the reduce collapses each queue
// inside its map-side combine (Rdd::combineByKey).
//
// The RDD the join produces is cached, and the previous one unpersisted,
// exactly as §4.2 prescribes — it feeds both this MTTKRP's reduce and the
// next MTTKRP's join.
#pragma once

#include <optional>
#include <vector>

#include "cstf/factors.hpp"
#include "cstf/options.hpp"
#include "cstf/records.hpp"
#include "la/matrix.hpp"
#include "sparkle/rdd.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::cstf_core {

class QcooEngine {
 public:
  /// Builds the initial queue state: N-1 joins seed every record's queue
  /// with the rows of modes 0..N-2 (the paper's up-front overhead of ~N
  /// shuffles, visible in Figure 5 as mode-1's extra cost), leaving the
  /// RDD keyed by mode N-1 — the first MTTKRP's join mode.
  QcooEngine(sparkle::Context& ctx, const sparkle::Rdd<tensor::Nonzero>& X,
             const std::vector<Index>& dims,
             const std::vector<la::Matrix>& initialFactors,
             const MttkrpOptions& opts = {});

  /// Performs the MTTKRP for `nextMode()` using the current factor
  /// matrices (only factors[joinMode()] is read — everything else arrives
  /// through the queue) and advances to the following mode.
  la::Matrix mttkrpNext(const std::vector<la::Matrix>& factors);

  /// The mode the next mttkrpNext() call will update.
  ModeId nextMode() const { return nextMode_; }
  /// The mode whose factor the next call will join (nextMode - 1 mod N).
  ModeId joinMode() const {
    return static_cast<ModeId>((nextMode_ + order_ - 1) % order_);
  }

  ModeId order() const { return order_; }
  std::size_t rank() const { return rank_; }

 private:
  sparkle::Context& ctx_;
  std::vector<Index> dims_;
  ModeId order_;
  std::size_t rank_;
  MttkrpOptions opts_;
  ModeId nextMode_ = 0;
  std::optional<sparkle::Rdd<std::pair<Index, QRecord>>> q_;
};

}  // namespace cstf::cstf_core
