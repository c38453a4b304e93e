#include "cstf/mttkrp_local.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "common/metrics_registry.hpp"
#include "common/serde.hpp"
#include "cstf/factors.hpp"

namespace cstf::cstf_core {

namespace {

/// The factor matrices one mode update broadcasts, as a view of the
/// driver's factors: the kernel reads them in place instead of from a
/// copy. Valid for the duration of the mode update — mttkrpLocal returns
/// only after every task that reads the view has committed, and the driver
/// does not touch its factors meanwhile. Metered as N matrix headers plus
/// the N-1 matrices the kernel reads (the target mode ships empty), exactly
/// the bytes a real cluster would ship.
struct FactorPack {
  const std::vector<la::Matrix>* factors = nullptr;
  ModeId skip = 0;
};

}  // namespace

}  // namespace cstf::cstf_core

namespace cstf {

/// A broadcast only meters its value's width; nothing encodes a pack.
template <>
struct FixedWidthSerde<cstf_core::FactorPack> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth = 0;
  static std::size_t width(const cstf_core::FactorPack& p) {
    std::size_t n = sizeof(std::uint32_t);
    for (ModeId m = 0; m < p.factors->size(); ++m) {
      n += 2 * sizeof(std::uint32_t);
      if (m == p.skip) continue;
      const la::Matrix& f = (*p.factors)[m];
      n += f.rows() * f.cols() * sizeof(double);
    }
    return n;
  }
};

}  // namespace cstf

namespace cstf::cstf_core {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t nanosSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Kernel work of one stage, kept in per-partition slots. A task body
/// writes only its own partition's slot, so a retried or recomputed attempt
/// replaces the discarded one instead of adding to it (the contract of
/// sparkle::runTask); the caller sums the slots once the stage has
/// committed.
class KernelTally {
 public:
  struct Work {
    std::uint64_t wallNanos = 0;
    std::uint64_t flops = 0;
    /// Committed tasks (1 per written slot).
    std::uint64_t tasks = 0;
  };

  explicit KernelTally(std::size_t partitions) : slots_(partitions) {}

  void commit(std::size_t partition, Work w) {
    w.tasks = 1;
    slots_[partition] = w;
  }

  Work sum() const {
    Work total;
    for (const Work& w : slots_) {
      total.wallNanos += w.wallNanos;
      total.flops += w.flops;
      total.tasks += w.tasks;
    }
    return total;
  }

 private:
  std::vector<Work> slots_;
};

}  // namespace

void ensureCsfLayouts(sparkle::Context& ctx,
                      const sparkle::Rdd<tensor::Nonzero>& X, ModeId order,
                      LocalMttkrpTelemetry* telemetry) {
  const std::uint64_t dsId = X.datasetId();
  const std::size_t parts = X.numPartitions();
  bool allPresent = true;
  for (std::size_t p = 0; p < parts && allPresent; ++p) {
    allPresent = ctx.getPartitionArtifact(dsId, p) != nullptr;
  }
  if (allPresent) return;

  const auto t0 = Clock::now();
  sparkle::Context* ctxp = &ctx;
  auto built = X.mapPartitionsWithCounters(
      [dsId, order, ctxp](std::size_t p,
                          const std::vector<tensor::Nonzero>& part,
                          TaskCounters& tc) {
        auto layout = std::make_shared<const tensor::CsfLayout>(
            tensor::buildCsfLayout(part, order));
        // First-write-wins: a retried task recomputes the (deterministic)
        // layout and adopts whichever copy is already resident.
        auto resident = ctxp->putPartitionArtifact(dsId, p, layout);
        const auto* l = static_cast<const tensor::CsfLayout*>(resident.get());
        // Sort-dominated build: one comparison sort of the partition per
        // mode, each comparison a handful of index compares.
        const double n = static_cast<double>(part.size());
        tc.flops += static_cast<std::uint64_t>(
            n > 1.0 ? static_cast<double>(order) * n * std::log2(n) : 0.0);
        return std::vector<std::pair<std::uint32_t, std::uint64_t>>{
            {static_cast<std::uint32_t>(p),
             static_cast<std::uint64_t>(l->memoryBytes())}};
      },
      /*preservesPartitioning=*/true);
  const auto sizes = built.collect("csf-layout-build");

  std::uint64_t bytes = 0;
  for (const auto& [p, b] : sizes) bytes += b;
  const double wallSec = static_cast<double>(nanosSince(t0)) * 1e-9;
  if (telemetry != nullptr) {
    telemetry->layoutBuildWallSec += wallSec;
    telemetry->layoutBuildPartitions += sizes.size();
    telemetry->layoutBytes += bytes;
  }
  metrics::Registry& live = metrics::globalRegistry();
  live.counter("cstf_csf_layout_builds_total").add(sizes.size());
  live.counter("cstf_csf_layout_bytes_total").add(bytes);
  live.histogram("cstf_csf_layout_build_sec").record(wallSec);
}

la::Matrix mttkrpLocal(sparkle::Context& ctx,
                       const sparkle::Rdd<tensor::Nonzero>& X,
                       const std::vector<Index>& dims,
                       const std::vector<la::Matrix>& factors, ModeId mode,
                       const MttkrpOptions& opts,
                       LocalMttkrpTelemetry* telemetry) {
  const ModeId order = static_cast<ModeId>(dims.size());
  const std::size_t rank = mttkrpRank(dims, factors, mode);

  ensureCsfLayouts(ctx, X, order, telemetry);

  auto bc = sparkle::broadcast(ctx, FactorPack{&factors, mode},
                               "mttkrp-factors");

  auto tally = std::make_shared<KernelTally>(X.numPartitions());
  const std::uint64_t dsId = X.datasetId();
  sparkle::Context* ctxp = &ctx;
  auto partials = X.mapPartitionsWithCounters(
      [=](std::size_t p, const std::vector<tensor::Nonzero>& /*part*/,
          TaskCounters& tc) {
        const auto layout = std::static_pointer_cast<const tensor::CsfLayout>(
            ctxp->getPartitionArtifact(dsId, p));
        LocalKernelStats stats;
        const auto t0 = Clock::now();
        auto rows =
            csfMttkrp(*layout, *bc.value().factors, mode, rank, stats);
        tally->commit(p, {nanosSince(t0), stats.flops});
        CSTF_ASSERT(std::adjacent_find(rows.begin(), rows.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.first >= b.first;
                                       }) == rows.end(),
                    "local kernel output must have strictly increasing "
                    "indices");
        tc.flops += stats.flops;
        tc.recordsEmitted += stats.outputRows;
        return rows;
      },
      /*preservesPartitioning=*/false);

  // No map-side combiner: the kernel contract (asserted above) makes every
  // index unique within a partition, so a combiner would merge nothing.
  // opts.mapSideCombine is for the join-chain paths.
  auto reduced = partials.reduceByKey(
      la::rowAddInPlace, ctx.hashPartitioner(opts.numPartitions),
      /*mapSideCombine=*/false, static_cast<double>(rank),
      "local-reduceByKey");
  la::Matrix result =
      collectRows(reduced, dims[mode], rank, "local-mttkrp-result");

  const KernelTally::Work work = tally->sum();
  const double kernelSec = static_cast<double>(work.wallNanos) * 1e-9;
  if (telemetry != nullptr) {
    telemetry->kernelWallSec += kernelSec;
    telemetry->kernelInvocations += work.tasks;
    telemetry->kernelFlops += work.flops;
  }
  metrics::Registry& live = metrics::globalRegistry();
  const metrics::Labels labels = {{"kernel", "csf"}};
  live.counter("cstf_local_kernel_invocations_total", labels).add(work.tasks);
  live.counter("cstf_local_kernel_flops_total", labels).add(work.flops);
  live.histogram("cstf_local_kernel_sec", labels).record(kernelSec);
  return result;
}

}  // namespace cstf::cstf_core
