// Property sweeps for the local MTTKRP kernels: the CSF kernel must agree
// with the COO reference kernel (and both with the sequential oracle)
// across orders 3-5, every mode, empty partitions and duplicate-index
// nonzeros.
#include <gtest/gtest.h>

#include "cstf/cstf.hpp"
#include "support/kernel_rows.hpp"
#include "tensor/csf.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::cstf_core {
namespace {

struct KernelCase {
  std::vector<Index> dims;
  std::size_t nnz;
  std::size_t rank;
  double skew;  // applied to every mode (0 = uniform)
  std::size_t partitions;
  std::uint64_t seed;
};

std::string caseName(const testing::TestParamInfo<KernelCase>& info) {
  const auto& c = info.param;
  std::string name = "order" + std::to_string(c.dims.size()) + "_nnz" +
                     std::to_string(c.nnz) + "_r" + std::to_string(c.rank) +
                     "_p" + std::to_string(c.partitions) + "_s" +
                     std::to_string(c.seed);
  if (c.skew > 0) name += "_zipf";
  return name;
}

class KernelAgreement : public testing::TestWithParam<KernelCase> {
 protected:
  tensor::CooTensor makeTensor() const {
    const auto& c = GetParam();
    tensor::GeneratorOptions o;
    o.dims = c.dims;
    o.nnz = c.nnz;
    o.seed = c.seed;
    if (c.skew > 0) o.zipfSkew.assign(c.dims.size(), c.skew);
    return tensor::generateRandom(o);
  }
};

la::Matrix runLocalKernel(sparkle::LocalKernel kind,
                          const std::vector<tensor::Nonzero>& nz,
                          const std::vector<la::Matrix>& fs, ModeId mode,
                          Index dim, std::size_t rank) {
  LocalKernelStats stats;
  auto rows = localKernelFor(kind).compute(nz, nullptr, fs, mode, stats);
  return testsupport::rowsToDense(rows, dim, rank);
}

// On any single partition the COO kernel is bit-identical to the
// sequential oracle (same Hadamard order, same accumulation order), and
// the CSF kernel agrees to fp-accumulation-reorder tolerance.
TEST_P(KernelAgreement, PartitionKernelsMatchOracleEveryMode) {
  const auto& c = GetParam();
  auto t = makeTensor();
  auto fs = randomFactors(t.dims(), c.rank, c.seed + 1);
  for (ModeId mode = 0; mode < t.order(); ++mode) {
    la::Matrix ref = tensor::referenceMttkrp(t, fs, mode);
    la::Matrix coo = runLocalKernel(sparkle::LocalKernel::kCoo,
                                    t.nonzeros(), fs, mode, t.dim(mode),
                                    c.rank);
    ASSERT_EQ(coo.maxAbsDiff(ref), 0.0)
        << "coo kernel diverged from oracle on mode " << int(mode);
    la::Matrix csf = runLocalKernel(sparkle::LocalKernel::kCsf,
                                    t.nonzeros(), fs, mode, t.dim(mode),
                                    c.rank);
    ASSERT_LT(csf.maxAbsDiff(coo), 1e-12)
        << "csf kernel diverged from coo kernel on mode " << int(mode);
  }
}

// The distributed local path (broadcast + partition kernels + one
// reduceByKey) matches the oracle for both kernels, including partition
// counts that leave some partitions empty.
TEST_P(KernelAgreement, MttkrpLocalMatchesOracleEveryMode) {
  const auto& c = GetParam();
  auto t = makeTensor();
  auto fs = randomFactors(t.dims(), c.rank, c.seed + 2);
  for (auto kind :
       {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
    sparkle::ClusterConfig cfg;
    cfg.numNodes = 4;
    cfg.localKernel = kind;
    sparkle::Context ctx(cfg, 2, c.partitions);
    auto X = tensorToRdd(ctx, t).cache();
    MttkrpOptions opts;
    opts.numPartitions = c.partitions;
    for (ModeId mode = 0; mode < t.order(); ++mode) {
      la::Matrix got = mttkrpLocal(ctx, X, t.dims(), fs, mode, opts);
      ASSERT_LT(got.maxAbsDiff(tensor::referenceMttkrp(t, fs, mode)), 1e-9)
          << sparkle::localKernelName(kind) << " mode " << int(mode)
          << " diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelAgreement,
    testing::Values(
        // Orders 3, 4, 5; uniform and Zipf-skewed; partition counts far
        // above nnz/dim products leave some partitions empty.
        KernelCase{{30, 40, 20}, 500, 3, 0.0, 4, 1},
        KernelCase{{30, 40, 20}, 500, 2, 1.2, 8, 2},
        KernelCase{{12, 9, 14, 11}, 400, 3, 0.0, 6, 3},
        KernelCase{{12, 9, 14, 11}, 400, 2, 1.1, 16, 4},
        KernelCase{{8, 7, 6, 9, 5}, 300, 2, 0.0, 8, 5},
        KernelCase{{8, 7, 6, 9, 5}, 300, 4, 1.3, 32, 6},
        // Tiny nnz with many partitions: most partitions are empty.
        KernelCase{{5, 5, 5}, 8, 2, 0.0, 16, 7}),
    caseName);

// Duplicate-index nonzeros: the generator coalesces, so build the
// duplicates explicitly. Both kernels must fold duplicates into the same
// result as the oracle, and the CSF build must merge them into one fiber
// walk without losing entries.
TEST(KernelDuplicates, DuplicateNonzerosAccumulate) {
  std::vector<tensor::Nonzero> nz = {
      tensor::makeNonzero3(1, 2, 3, 0.5),
      tensor::makeNonzero3(1, 2, 3, 1.25),   // exact duplicate index
      tensor::makeNonzero3(1, 2, 3, -0.75),  // thrice
      tensor::makeNonzero3(1, 2, 4, 2.0),    // same fiber, new inner
      tensor::makeNonzero3(1, 5, 3, 3.0),    // same slice, new fiber
      tensor::makeNonzero3(4, 2, 3, -1.0),
      tensor::makeNonzero3(4, 2, 3, -1.0),   // duplicate in second slice
  };
  tensor::CooTensor t({6, 6, 6}, nz);
  auto fs = randomFactors(t.dims(), 3, 17);

  auto layout = tensor::buildCsfLayout(t.nonzeros(), t.order());
  EXPECT_EQ(layout.nnz, nz.size());  // duplicates kept, not collapsed
  for (ModeId mode = 0; mode < 3; ++mode) {
    EXPECT_EQ(layout.view(mode).numEntries(), nz.size());
  }
  // Mode 0: slices {1,4}; slice 1 holds fibers (2,*) and (5,*).
  EXPECT_EQ(layout.view(0).numSlices(), 2u);
  EXPECT_EQ(layout.view(0).numFibers(), 3u);

  for (ModeId mode = 0; mode < 3; ++mode) {
    la::Matrix ref = tensor::referenceMttkrp(t, fs, mode);
    LocalKernelStats stats;
    auto cooRows = localKernelFor(sparkle::LocalKernel::kCoo)
                       .compute(t.nonzeros(), nullptr, fs, mode, stats);
    auto csfRows = localKernelFor(sparkle::LocalKernel::kCsf)
                       .compute(t.nonzeros(), &layout, fs, mode, stats);
    la::Matrix coo = testsupport::rowsToDense(cooRows, t.dim(mode), 3);
    la::Matrix csf = testsupport::rowsToDense(csfRows, t.dim(mode), 3);
    EXPECT_EQ(coo.maxAbsDiff(ref), 0.0) << "mode " << int(mode);
    EXPECT_LT(csf.maxAbsDiff(ref), 1e-13) << "mode " << int(mode);
  }
}

// An entirely empty nonzero list must yield an all-zero MTTKRP result
// from both kernels (and an empty, well-formed CSF layout).
TEST(KernelDuplicates, EmptyInputYieldsNoRows) {
  std::vector<la::Matrix> fs;
  for (Index d : {4, 5, 6}) fs.push_back(la::Matrix(d, 2));
  for (auto kind :
       {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
    LocalKernelStats stats;
    auto rows = localKernelFor(kind).compute({}, nullptr, fs, 0, stats);
    EXPECT_TRUE(rows.empty()) << sparkle::localKernelName(kind);
    EXPECT_EQ(stats.entriesProcessed, 0u);
  }
}

}  // namespace
}  // namespace cstf::cstf_core
