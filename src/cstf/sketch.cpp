#include "cstf/sketch.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "common/metrics_registry.hpp"
#include "common/rng.hpp"
#include "cstf/factors.hpp"
#include "la/solve.hpp"

namespace cstf::cstf_core {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t nanosSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Broadcast payload of one sketched mode update: the factors the kernel
/// multiplies against plus the per-mode leverage tables the sampler scores
/// with. The target mode's entries are emptied driver-side (neither is
/// read), so the metered broadcast volume matches what a cluster ships.
struct SketchPack {
  FactorPack factors;
  std::vector<std::vector<double>> leverage;

  void serialize(Writer& w) const {
    factors.serialize(w);
    w.writeRaw(static_cast<std::uint32_t>(leverage.size()));
    for (const std::vector<double>& lev : leverage) {
      w.writeRaw(static_cast<std::uint64_t>(lev.size()));
      w.writeBytes(lev.data(), lev.size() * sizeof(double));
    }
  }
  static SketchPack deserialize(Reader& r) {
    SketchPack p;
    p.factors = FactorPack::deserialize(r);
    const auto n = r.readRaw<std::uint32_t>();
    p.leverage.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      p.leverage[i].resize(r.readRaw<std::uint64_t>());
      r.readBytes(p.leverage[i].data(),
                  p.leverage[i].size() * sizeof(double));
    }
    return p;
  }
  std::size_t serializedSize() const {
    std::size_t n = factors.serializedSize() + sizeof(std::uint32_t);
    for (const std::vector<double>& lev : leverage) {
      n += sizeof(std::uint64_t) + lev.size() * sizeof(double);
    }
    return n;
  }
};

}  // namespace

std::vector<double> leverageScores(const la::Matrix& factor,
                                   const la::Matrix& gram) {
  const std::size_t rank = factor.cols();
  CSTF_CHECK(gram.rows() == rank && gram.cols() == rank,
             "gram shape does not match the factor's rank");
  const la::Matrix pinv = la::pinvSym(gram);
  std::vector<double> lev(factor.rows(), 0.0);
  for (std::size_t i = 0; i < factor.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t r = 0; r < rank; ++r) {
      double dot = 0.0;
      for (std::size_t c = 0; c < rank; ++c) {
        dot += pinv(r, c) * factor(i, c);
      }
      acc += factor(i, r) * dot;
    }
    lev[i] = acc > 0.0 ? acc : 0.0;
  }
  return lev;
}

la::Matrix mttkrpSketched(sparkle::Context& ctx,
                          const sparkle::Rdd<tensor::Nonzero>& X,
                          const std::vector<Index>& dims,
                          const std::vector<la::Matrix>& factors,
                          const std::vector<la::Matrix>& grams, ModeId mode,
                          const MttkrpOptions& opts,
                          const SketchOptions& sketch, std::uint64_t drawId,
                          SketchTelemetry* telemetry) {
  const ModeId order = static_cast<ModeId>(dims.size());
  const std::size_t rank = mttkrpRank(dims, factors, mode);
  CSTF_CHECK(grams.size() == order, "need one gram per mode");
  CSTF_CHECK(sketch.samples > 0, "sketch.samples must be positive");

  const LocalMttkrpKernel& kernel = localKernelFor(ctx.config().localKernel);

  // Driver-side scoring: N-1 leverage tables from the cached Grams. The
  // pinv is R x R — the per-iteration cost lives in the row loop, which is
  // the same O(dim * R^2) the ALS solve already pays per mode.
  SketchPack pack;
  pack.factors.factors = factors;
  pack.factors.factors[mode] = la::Matrix();
  pack.leverage.resize(order);
  for (ModeId m = 0; m < order; ++m) {
    if (m != mode) pack.leverage[m] = leverageScores(factors[m], grams[m]);
  }
  auto bc = sparkle::broadcast(ctx, std::move(pack), "sketch-pack");

  // Importance-sample the nonzeros by the product of their non-target
  // modes' leverage, then fold each draw's unbiasing scale into its value:
  // MTTKRP is linear in the values, so the reduced result estimates the
  // exact one. Distinct streams per (seed, drawId, partition).
  const std::uint64_t sampleSeed =
      mix64(sketch.seed) ^ mix64(drawId + 0x9e3779b97f4a7c15ULL);
  auto sampled = X.weightedSampleWithReplacement(
      [bc, mode, order](const tensor::Nonzero& nz) {
        double w = 1.0;
        for (ModeId m = 0; m < order; ++m) {
          if (m == mode) continue;
          const std::vector<double>& lev = bc.value().leverage[m];
          w *= nz.idx[m] < lev.size() ? lev[nz.idx[m]] : 0.0;
        }
        return w;
      },
      sketch.samples, sampleSeed, sketch.uniformMix,
      /*flopsPerWeight=*/static_cast<double>(order - 1));

  // Kernel over the sampled subset. The CSF kernel builds a transient
  // layout per call when handed no cached one — the sample changes every
  // draw, so cache-time layouts do not apply here.
  auto tally = std::make_shared<KernelTally>(sampled.numPartitions());
  const LocalMttkrpKernel* kernelp = &kernel;
  auto partials = sampled.mapPartitionsWithCounters(
      [=](std::size_t p,
          const std::vector<std::pair<tensor::Nonzero, double>>& part,
          TaskCounters& tc) {
        std::vector<tensor::Nonzero> scaled;
        scaled.reserve(part.size());
        for (const auto& [nz, scale] : part) {
          scaled.push_back(nz);
          scaled.back().val *= scale;
        }
        LocalKernelStats stats;
        const auto t0 = Clock::now();
        auto rows = kernelp->compute(scaled, /*layout=*/nullptr,
                                     bc.value().factors.factors, mode, stats);
        tally->commit(p, {nanosSince(t0), stats.flops, part.size()});
        tc.flops += stats.flops + part.size();
        tc.recordsEmitted += stats.outputRows;
        return rows;
      },
      /*preservesPartitioning=*/false);

  auto reduced = partials.reduceByKey(
      [](const la::Row& a, const la::Row& b) { return la::rowAdd(a, b); },
      ctx.hashPartitioner(opts.numPartitions), opts.mapSideCombine,
      static_cast<double>(rank), "sketch-reduceByKey");
  la::Matrix result = rowsToMatrix(reduced.collect("sketch-mttkrp-result"),
                                   dims[mode], rank);

  const KernelTally::Work work = tally->sum();
  if (telemetry != nullptr) {
    telemetry->sketchedMttkrps += 1;
    telemetry->sampledNnz += work.records;
  }
  metrics::Registry& live = metrics::globalRegistry();
  const metrics::Labels labels = {{"kernel", kernel.name()}};
  live.counter("cstf_sketch_mttkrps_total").add(1);
  live.counter("cstf_sketch_sampled_nnz_total").add(work.records);
  live.histogram("cstf_sketch_kernel_sec", labels)
      .record(static_cast<double>(work.wallNanos) * 1e-9);
  return result;
}

}  // namespace cstf::cstf_core
