// Key-frequency census and skew-mitigation plan for the MTTKRP shuffles.
//
// Real tensors have power-law index distributions (paper Table 5's
// delicious/NELL modes), so shuffles keyed by a mode index overload the
// reduce partition that owns the hottest key. This module runs one cheap
// sampled countByKey pass over the tensor RDD — counting every mode in a
// single shuffle — and turns the result into, per mode:
//   * a FrequencyAwarePartitioner (SkewPolicy::kFrequency) that bin-packs
//     the heavy keys onto least-loaded partitions, and
//   * a hot-key set (SkewPolicy::kReplicate) for Rdd::skewJoin, which
//     broadcasts the heavy factor rows and joins them map-side.
// The census runs once, before iteration 1, and is cached in MttkrpOptions
// by the CP-ALS driver (join-chain plans with a non-hash policy only); its
// stages are recorded under the "SkewCensus" metrics scope so A/B
// comparisons can separate census cost from iteration cost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "cstf/options.hpp"
#include "la/row.hpp"
#include "sparkle/context.hpp"
#include "sparkle/rdd.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::cstf_core {

/// Census result for one tensor mode.
struct ModeCensus {
  /// (mode index, estimated record count), heaviest first, capped at
  /// 256 keys per mode.
  std::vector<std::pair<Index, std::uint64_t>> heavyKeys;
  /// Estimated records carried by heavyKeys (sum of their counts).
  std::uint64_t heavyRecords = 0;
  /// Estimated total records keyed by this mode (≈ nnz).
  std::uint64_t totalRecords = 0;
};

struct SkewPlan {
  std::vector<ModeCensus> modes;
};

/// One sampled countByKey pass over `X`, counting all `order` modes in a
/// single shuffle. A key is heavy when its estimated count reaches a
/// quarter of the fair per-partition share.
std::shared_ptr<const SkewPlan> buildSkewPlan(
    sparkle::Context& ctx, const sparkle::Rdd<tensor::Nonzero>& X,
    ModeId order, const MttkrpOptions& opts);

/// Partitioner for shuffles keyed by `mode`'s indices: a
/// FrequencyAwarePartitioner seeded from the census, or a plain hash
/// partitioner when the plan has nothing heavy for that mode.
std::shared_ptr<sparkle::Partitioner> skewAwarePartitioner(
    sparkle::Context& ctx, const SkewPlan* plan, ModeId mode,
    std::size_t numPartitions);

/// The heavy keys of `mode` as a set, for Rdd::skewJoin; null when the
/// plan has none (skewJoin then degrades to a plain join).
std::shared_ptr<const std::unordered_set<Index, sparkle::StdKeyHash<Index>>>
hotKeySet(const SkewPlan* plan, ModeId mode);

/// One join of `in` with factor rows, keyed by `mode`'s indices, under
/// ClusterConfig::skewPolicy: a hash join (kHash), a join through the
/// census partitioner (kFrequency), or a skewJoin that broadcasts the
/// census's hot rows (kReplicate; it reads `in` twice, so callers keep
/// `in` cached or materialized).
template <typename V>
auto skewPolicyJoin(sparkle::Context& ctx,
                    const sparkle::Rdd<std::pair<Index, V>>& in,
                    const sparkle::Rdd<std::pair<Index, la::Row>>& factor,
                    const SkewPlan* plan, ModeId mode,
                    std::size_t numPartitions, const std::string& label) {
  switch (ctx.config().skewPolicy) {
    case sparkle::SkewPolicy::kFrequency:
      return in.join(factor,
                     skewAwarePartitioner(ctx, plan, mode, numPartitions),
                     label);
    case sparkle::SkewPolicy::kReplicate:
      return in.skewJoin(factor, hotKeySet(plan, mode), nullptr, label);
    case sparkle::SkewPolicy::kHash:
      break;
  }
  return in.join(factor, nullptr, label);
}

}  // namespace cstf::cstf_core
