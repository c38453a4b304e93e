// The CSF local kernel and the broadcast + partition-local path.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cstf/cstf.hpp"
#include "support/kernel_rows.hpp"
#include "tensor/csf.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::cstf_core {
namespace {

sparkle::ClusterConfig testCluster(
    sparkle::LocalKernel kernel = sparkle::LocalKernel::kCoo) {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  cfg.localKernel = kernel;
  return cfg;
}

TEST(CsfLayout, StructureInvariants) {
  auto t = tensor::generateZipf({40, 30, 20}, 600, 1.1, 7);
  auto layout = tensor::buildCsfLayout(t.nonzeros(), t.order());
  EXPECT_EQ(layout.order, 3);
  EXPECT_EQ(layout.nnz, t.nnz());
  ASSERT_EQ(layout.modes.size(), 3u);
  for (ModeId m = 0; m < 3; ++m) {
    const tensor::CsfModeView& v = layout.view(m);
    EXPECT_EQ(v.mode, m);
    ASSERT_EQ(v.fixedModes.size(), 2u);
    EXPECT_EQ(v.numEntries(), t.nnz());
    EXPECT_EQ(v.slicePtr.size(), v.numSlices() + 1);
    EXPECT_EQ(v.fiberPtr.size(), v.numFibers() + 1);
    EXPECT_EQ(v.fiberOuter.size(), v.numFibers());  // order 3: 1 outer mode
    EXPECT_EQ(v.slicePtr.front(), 0u);
    EXPECT_EQ(v.slicePtr.back(), v.numFibers());
    EXPECT_EQ(v.fiberPtr.front(), 0u);
    EXPECT_EQ(v.fiberPtr.back(), v.numEntries());
    // Slices ascend; fibers within a slice ascend by outer index; entries
    // within a fiber ascend by inner index.
    for (std::size_t s = 1; s < v.numSlices(); ++s) {
      EXPECT_LT(v.sliceIdx[s - 1], v.sliceIdx[s]);
    }
    for (std::size_t s = 0; s < v.numSlices(); ++s) {
      for (std::uint32_t f = v.slicePtr[s] + 1; f < v.slicePtr[s + 1]; ++f) {
        EXPECT_LT(v.fiberOuter[f - 1], v.fiberOuter[f]);
      }
    }
    EXPECT_GT(v.memoryBytes(), 0u);
  }
}

TEST(CsfLayout, EmptyPartition) {
  auto layout = tensor::buildCsfLayout({}, 3);
  EXPECT_EQ(layout.nnz, 0u);
  for (const auto& v : layout.modes) {
    EXPECT_EQ(v.numSlices(), 0u);
    EXPECT_EQ(v.numFibers(), 0u);
    EXPECT_EQ(v.numEntries(), 0u);
  }
}

TEST(LocalKernels, CsfMatchesCooWithinTolerance) {
  // The sequential oracle is row-at-a-time over the raw COO records; the
  // CSF kernel differs from it only in accumulation order.
  auto t = tensor::generateZipf({25, 30, 15}, 500, 1.2, 12);
  auto fs = randomFactors(t.dims(), 2, 6);
  for (ModeId mode = 0; mode < t.order(); ++mode) {
    la::Matrix ref = tensor::referenceMttkrp(t, fs, mode);
    la::Matrix csf = testsupport::csfDense(t, fs, mode);
    EXPECT_LT(csf.maxAbsDiff(ref), 1e-13) << "mode " << int(mode);
  }
}

TEST(LocalKernels, StatsAreReported) {
  auto t = tensor::generateZipf({20, 20, 20}, 300, 1.1, 14);
  auto fs = randomFactors(t.dims(), 2, 8);
  auto layout = tensor::buildCsfLayout(t.nonzeros(), t.order());
  LocalKernelStats stats;
  const auto rows = csfMttkrp(layout, fs, 0, 2, stats);
  const tensor::CsfModeView& v = layout.view(0);
  EXPECT_EQ(stats.outputRows, rows.size());
  EXPECT_EQ(stats.outputRows, v.numSlices());
  // 2R per entry + R*(numOuter+1) per fiber; order 3 has one outer mode.
  EXPECT_EQ(stats.flops, 2 * t.nnz() * 2 + v.numFibers() * 2 * 2);
}

TEST(MttkrpLocal, MatchesReferenceBothKernels) {
  // mttkrpLocal always runs the CSF kernel: both --local-kernel settings
  // give the same bits, within tolerance of the oracle.
  auto t = tensor::generateRandom({{30, 40, 20}, 500, {}, 42});
  auto fs = randomFactors(t.dims(), 2, 1);
  std::vector<la::Matrix> first;
  for (auto kind :
       {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
    sparkle::Context ctx(testCluster(kind), 2);
    auto X = tensorToRdd(ctx, t).cache();
    MttkrpOptions opts;
    for (ModeId mode = 0; mode < 3; ++mode) {
      la::Matrix got = mttkrpLocal(ctx, X, t.dims(), fs, mode, opts);
      la::Matrix ref = tensor::referenceMttkrp(t, fs, mode);
      EXPECT_LT(got.maxAbsDiff(ref), 1e-10)
          << sparkle::localKernelName(kind) << " mode " << int(mode);
      if (first.size() < 3) {
        first.push_back(std::move(got));
      } else {
        EXPECT_EQ(got.maxAbsDiff(first[mode]), 0.0) << "mode " << int(mode);
      }
    }
  }
}

TEST(MttkrpLocal, MatchesMttkrpCoo4Order) {
  sparkle::Context ctx(testCluster(sparkle::LocalKernel::kCsf), 2);
  auto t = tensor::generateRandom({{15, 12, 18, 6}, 400, {}, 43});
  auto fs = randomFactors(t.dims(), 3, 2);
  auto X = tensorToRdd(ctx, t).cache();
  MttkrpOptions opts;
  for (ModeId mode = 0; mode < 4; ++mode) {
    la::Matrix local = mttkrpLocal(ctx, X, t.dims(), fs, mode, opts);
    la::Matrix chain = mttkrpCoo(ctx, X, t.dims(), fs, mode, {});
    EXPECT_LT(local.maxAbsDiff(chain), 1e-12) << "mode " << int(mode);
  }
}

TEST(MttkrpLocal, SingleShuffleAndBroadcast) {
  sparkle::Context ctx(testCluster(sparkle::LocalKernel::kCsf), 2);
  auto t = tensor::generateRandom({{20, 20, 20}, 300, {}, 44});
  auto fs = randomFactors(t.dims(), 2, 3);
  auto X = tensorToRdd(ctx, t).cache();
  MttkrpOptions opts;
  mttkrpLocal(ctx, X, t.dims(), fs, 0, opts);
  // One reduceByKey is the only wide op (vs N for the COO join chain).
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 1u);
  EXPECT_GT(ctx.metrics().totals().broadcastBytes, 0u);
}

TEST(MttkrpLocal, LayoutBuiltOnceAndReused) {
  // Two inputs: fault-free, and half of all task attempts failing. Retried
  // attempts are discarded work, so the kernel telemetry of the second run
  // (one invocation per committed task) must equal the first's.
  std::uint64_t faultFreeFlops = 0;
  for (const double failureRate : {0.0, 0.5}) {
    SCOPED_TRACE(failureRate > 0 ? "taskFailureRate 0.5" : "fault-free");
    sparkle::ClusterConfig cfg = testCluster(sparkle::LocalKernel::kCsf);
    cfg.taskFailureRate = failureRate;
    sparkle::Context ctx(cfg, 2);
    auto t = tensor::generateRandom({{25, 25, 25}, 400, {}, 45});
    auto fs = randomFactors(t.dims(), 2, 4);
    auto X = tensorToRdd(ctx, t).cache();

    LocalMttkrpTelemetry tel;
    ensureCsfLayouts(ctx, X, t.order(), &tel);
    EXPECT_EQ(tel.layoutBuildPartitions, X.numPartitions());
    EXPECT_GT(tel.layoutBytes, 0u);
    const std::size_t stagesAfterBuild = ctx.metrics().stageCount();

    // Second call is a no-op: every partition already has its artifact.
    ensureCsfLayouts(ctx, X, t.order(), &tel);
    EXPECT_EQ(ctx.metrics().stageCount(), stagesAfterBuild);
    EXPECT_EQ(tel.layoutBuildPartitions, X.numPartitions());

    // All three mode updates reuse the same resident layouts.
    const auto before = ctx.getPartitionArtifact(X.datasetId(), 0);
    ASSERT_NE(before, nullptr);
    MttkrpOptions opts;
    for (ModeId mode = 0; mode < 3; ++mode) {
      mttkrpLocal(ctx, X, t.dims(), fs, mode, opts, &tel);
    }
    EXPECT_EQ(ctx.getPartitionArtifact(X.datasetId(), 0).get(), before.get());
    EXPECT_EQ(tel.kernelInvocations, 3 * X.numPartitions());
    EXPECT_GT(tel.kernelFlops, 0u);
    if (failureRate == 0.0) {
      faultFreeFlops = tel.kernelFlops;
    } else {
      EXPECT_GT(ctx.metrics().taskRetries(), 0u);
      EXPECT_EQ(tel.kernelFlops, faultFreeFlops);
    }
  }
}

TEST(MttkrpLocal, ArtifactsDroppedWithDataset) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{10, 10, 10}, 100, {}, 46});
  std::uint64_t dsId = 0;
  {
    auto X = tensorToRdd(ctx, t).cache();
    dsId = X.datasetId();
    ensureCsfLayouts(ctx, X, t.order());
    EXPECT_NE(ctx.getPartitionArtifact(dsId, 0), nullptr);
  }
  // The dataset is gone; its layouts must not leak in the context store.
  EXPECT_EQ(ctx.getPartitionArtifact(dsId, 0), nullptr);
}

TEST(MttkrpLocal, ArtifactStoreFirstWriteWinsUnderContention) {
  // TSan coverage: hammer the partition-artifact store from many threads;
  // every thread must observe the same resident pointer per slot.
  sparkle::Context ctx(testCluster(), 2);
  constexpr int kThreads = 8;
  constexpr std::size_t kSlots = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&ctx, &mismatches] {
      for (std::size_t p = 0; p < kSlots; ++p) {
        auto mine = std::make_shared<const tensor::CsfLayout>();
        auto resident = ctx.putPartitionArtifact(999, p, mine);
        auto seen = ctx.getPartitionArtifact(999, p);
        if (seen.get() != resident.get()) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ctx.dropPartitionArtifacts(999), kSlots);
}

TEST(CpAls, CsfTrajectoryMatchesCooKernel) {
  // Acceptance: --local-kernel csf reproduces the coo-kernel factor
  // trajectory within 1e-15 of the factor magnitudes on both distributed
  // backends (the kernels differ only in accumulation order), and runs one
  // wide stage per mode update where the COO join chain runs N.
  for (auto backend : {Backend::kCoo, Backend::kQcoo}) {
    auto t = tensor::generateZipf({20, 18, 16}, 300, 1.1, 21);
    CpAlsResult results[2];
    std::uint64_t shuffleOps[2];
    int i = 0;
    for (auto kernel :
         {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
      sparkle::Context ctx(testCluster(kernel), 2);
      CpAlsOptions opts;
      opts.rank = 2;
      opts.maxIterations = 3;
      opts.tolerance = 0.0;
      opts.seed = 9;
      opts.backend = backend;
      results[i] = cpAls(ctx, t, opts);
      shuffleOps[i++] = ctx.metrics().totals().shuffleOps;
    }
    const std::uint64_t modeUpdates = 3 * t.order();
    EXPECT_EQ(shuffleOps[1], modeUpdates) << backendName(backend);
    if (backend == Backend::kCoo) {
      EXPECT_EQ(shuffleOps[0], modeUpdates * t.order());
    }
    for (ModeId m = 0; m < t.order(); ++m) {
      EXPECT_LT(results[0].factors[m].maxAbsDiff(results[1].factors[m]),
                1e-12)
          << backendName(backend) << " mode " << int(m);
    }
    for (std::size_t r = 0; r < results[0].lambda.size(); ++r) {
      EXPECT_NEAR(results[0].lambda[r], results[1].lambda[r], 1e-12);
    }
    EXPECT_EQ(results[1].report.localKernel, "csf");
    EXPECT_GT(results[1].report.localKernelInvocations, 0u);
    EXPECT_GT(results[1].report.layoutBuildPartitions, 0u);
  }
}

TEST(CpAls, CsfKernelRefusedWithBigtensorBackend) {
  // BIGtensor is its own join chain: a CSF kernel would silently replace
  // it with the broadcast-local path, so the combination is refused.
  auto t = tensor::generateZipf({15, 15, 15}, 200, 1.0, 22);
  sparkle::ClusterConfig cfg = testCluster(sparkle::LocalKernel::kCsf);
  cfg.mode = sparkle::ExecutionMode::kHadoop;
  sparkle::Context ctx(cfg, 2);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.maxIterations = 2;
  opts.backend = Backend::kBigtensor;
  EXPECT_THROW(cpAls(ctx, t, opts), Error);
  EXPECT_EQ(ctx.metrics().stageCount(), 0u) << "refused before any work";
}

TEST(CpAls, DefaultKernelKeepsJoinChainPath) {
  // The default (coo) kernel must leave the historical path untouched:
  // same stages, no broadcast, no local-kernel work in the report.
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{15, 15, 15}, 200, {}, 47});
  CpAlsOptions opts;
  opts.rank = 2;
  opts.maxIterations = 1;
  opts.backend = Backend::kCoo;
  auto result = cpAls(ctx, t, opts);
  EXPECT_EQ(result.report.localKernel, "coo");
  EXPECT_EQ(result.report.localKernelInvocations, 0u);
  EXPECT_EQ(result.report.layoutBuildPartitions, 0u);
  // The COO join chain shuffles N times per mode update (Table 4).
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, 9u);
  bool sawLocalReduce = false;
  for (const auto& s : ctx.metrics().stages()) {
    if (s.label == "local-reduceByKey" || s.label == "csf-layout-build") {
      sawLocalReduce = true;
    }
  }
  EXPECT_FALSE(sawLocalReduce);
}

TEST(LocalKernelNames, RoundTripAndErrors) {
  EXPECT_STREQ(sparkle::localKernelName(sparkle::LocalKernel::kCoo), "coo");
  EXPECT_STREQ(sparkle::localKernelName(sparkle::LocalKernel::kCsf), "csf");
  EXPECT_EQ(sparkle::localKernelFromName("coo"), sparkle::LocalKernel::kCoo);
  EXPECT_EQ(sparkle::localKernelFromName("csf"), sparkle::LocalKernel::kCsf);
  EXPECT_THROW(sparkle::localKernelFromName("simd"), Error);
}

}  // namespace
}  // namespace cstf::cstf_core
