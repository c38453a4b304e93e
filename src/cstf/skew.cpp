#include "cstf/skew.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/metrics_registry.hpp"

namespace cstf::cstf_core {

namespace {
/// A key is heavy when its estimated record count reaches this fraction of
/// a perfectly balanced partition's fair share (nnz / numPartitions).
constexpr double kHeavyKeyFactor = 0.25;
/// Cap on pinned/replicated keys per mode (bounds partitioner state and
/// broadcast volume on extremely heavy-tailed modes).
constexpr std::size_t kMaxHeavyKeysPerMode = 256;
/// Seed of the census sampling pass.
constexpr std::uint64_t kCensusSeed = 17;
}  // namespace

std::shared_ptr<const SkewPlan> buildSkewPlan(
    sparkle::Context& ctx, const sparkle::Rdd<tensor::Nonzero>& X,
    ModeId order, const MttkrpOptions& opts) {
  CSTF_CHECK(order >= 1, "census needs at least one mode");
  // Validate the raw knob: a clamp-then-check would report a negative
  // value as "must be positive" and silently truncate values above 1.
  const double fraction = opts.censusSampleFraction;
  CSTF_CHECK(fraction > 0.0 && fraction <= 1.0,
             "censusSampleFraction must be in (0, 1], got " +
                 std::to_string(fraction));
  sparkle::ScopedStage scope(ctx.metrics(), "SkewCensus");

  // One shuffle counts every mode: key each (sampled) nonzero by
  // (mode, index) composite keys and countByKey with map-side combining.
  auto sampled = fraction < 1.0 ? X.sample(fraction, kCensusSeed) : X;
  auto keyed = sampled.flatMap([order](const tensor::Nonzero& nz) {
    std::vector<std::pair<std::pair<std::uint32_t, Index>, std::uint8_t>> out;
    out.reserve(order);
    for (ModeId m = 0; m < order; ++m) {
      out.emplace_back(std::make_pair(std::uint32_t{m}, nz.idx[m]),
                       std::uint8_t{0});
    }
    return out;
  });
  const auto counts = keyed.countByKey();

  // Per-mode sampled totals and key counts.
  std::vector<std::vector<std::pair<Index, std::uint64_t>>> byMode(order);
  std::vector<std::uint64_t> sampledTotal(order, 0);
  for (const auto& [key, count] : counts) {
    const std::uint32_t m = key.first;
    CSTF_ASSERT(m < order, "census mode out of range");
    byMode[m].emplace_back(key.second, count);
    sampledTotal[m] += count;
  }

  const std::size_t parts = opts.numPartitions != 0
                                ? opts.numPartitions
                                : ctx.defaultParallelism();
  auto plan = std::make_shared<SkewPlan>();
  plan->modes.resize(order);
  for (ModeId m = 0; m < order; ++m) {
    ModeCensus& census = plan->modes[m];
    census.totalRecords = static_cast<std::uint64_t>(
        std::llround(double(sampledTotal[m]) / fraction));
    // Heavy threshold, in *sampled* counts: kHeavyKeyFactor of the fair
    // per-partition share. Keys seen fewer than twice in a true sample are
    // noise, never heavy.
    double threshold =
        kHeavyKeyFactor * double(sampledTotal[m]) / double(parts);
    if (fraction < 1.0) threshold = std::max(threshold, 2.0);
    auto& heavy = census.heavyKeys;
    for (const auto& [idx, count] : byMode[m]) {
      if (double(count) >= threshold) {
        heavy.emplace_back(
            idx, static_cast<std::uint64_t>(
                     std::llround(double(count) / fraction)));
      }
    }
    std::sort(heavy.begin(), heavy.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (heavy.size() > kMaxHeavyKeysPerMode) {
      heavy.resize(kMaxHeavyKeysPerMode);
    }
    for (const auto& [idx, est] : heavy) census.heavyRecords += est;

    // Census stats on the live panel: how hot each mode's key space is.
    metrics::Registry& live = metrics::globalRegistry();
    const metrics::Labels labels = {{"mode", std::to_string(int(m) + 1)}};
    live.gauge("cstf_skew_heavy_keys", labels)
        .set(double(census.heavyKeys.size()));
    live.gauge("cstf_skew_heavy_records", labels)
        .set(double(census.heavyRecords));
    live.gauge("cstf_skew_total_records", labels)
        .set(double(census.totalRecords));
  }
  return plan;
}

std::shared_ptr<sparkle::Partitioner> skewAwarePartitioner(
    sparkle::Context& ctx, const SkewPlan* plan, ModeId mode,
    std::size_t numPartitions) {
  if (plan == nullptr || mode >= plan->modes.size() ||
      plan->modes[mode].heavyKeys.empty()) {
    return ctx.hashPartitioner(numPartitions);
  }
  const ModeCensus& census = plan->modes[mode];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heavyByHash;
  heavyByHash.reserve(census.heavyKeys.size());
  for (const auto& [idx, est] : census.heavyKeys) {
    heavyByHash.emplace_back(sparkle::KeyHash<Index>{}(idx), est);
  }
  const std::uint64_t tail =
      census.totalRecords > census.heavyRecords
          ? census.totalRecords - census.heavyRecords
          : 0;
  return std::make_shared<sparkle::FrequencyAwarePartitioner>(
      numPartitions != 0 ? numPartitions : ctx.defaultParallelism(),
      std::move(heavyByHash), tail);
}

std::shared_ptr<const std::unordered_set<Index, sparkle::StdKeyHash<Index>>>
hotKeySet(const SkewPlan* plan, ModeId mode) {
  if (plan == nullptr || mode >= plan->modes.size() ||
      plan->modes[mode].heavyKeys.empty()) {
    return nullptr;
  }
  auto set = std::make_shared<
      std::unordered_set<Index, sparkle::StdKeyHash<Index>>>();
  set->reserve(plan->modes[mode].heavyKeys.size());
  for (const auto& [idx, est] : plan->modes[mode].heavyKeys) {
    set->insert(idx);
  }
  return set;
}

}  // namespace cstf::cstf_core
