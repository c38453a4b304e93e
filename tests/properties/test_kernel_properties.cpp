// Property sweeps for the CSF local kernel: it must agree with the
// sequential oracle across orders 3-5, every mode, empty partitions and
// duplicate-index nonzeros.
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

// On any single partition the CSF kernel agrees with the sequential
// oracle (row-at-a-time over the raw COO records) to
// fp-accumulation-reorder tolerance.
TEST_P(KernelAgreement, PartitionKernelsMatchOracleEveryMode) {
  const auto& c = GetParam();
  auto t = makeTensor();
  auto fs = randomFactors(t.dims(), c.rank, c.seed + 1);
  for (ModeId mode = 0; mode < t.order(); ++mode) {
    la::Matrix ref = tensor::referenceMttkrp(t, fs, mode);
    la::Matrix csf = testsupport::csfDense(t, fs, mode);
    ASSERT_LT(csf.maxAbsDiff(ref), 1e-12)
        << "csf kernel diverged from oracle on mode " << int(mode);
  }
}

// The distributed local path (broadcast + partition kernels + one
// reduceByKey) matches the oracle, including partition counts that leave
// some partitions empty.
TEST_P(KernelAgreement, MttkrpLocalMatchesOracleEveryMode) {
  const auto& c = GetParam();
  auto t = makeTensor();
  auto fs = randomFactors(t.dims(), c.rank, c.seed + 2);
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  sparkle::Context ctx(cfg, 2, c.partitions);
  auto X = tensorToRdd(ctx, t).cache();
  MttkrpOptions opts;
  opts.numPartitions = c.partitions;
  for (ModeId mode = 0; mode < t.order(); ++mode) {
    la::Matrix got = mttkrpLocal(ctx, X, t.dims(), fs, mode, opts);
    ASSERT_LT(got.maxAbsDiff(tensor::referenceMttkrp(t, fs, mode)), 1e-9)
        << "mode " << int(mode) << " diverged";
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
// duplicates explicitly. The kernel must fold duplicates into the same
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
    la::Matrix csf = testsupport::csfDense(t, fs, mode);
    EXPECT_LT(csf.maxAbsDiff(ref), 1e-13) << "mode " << int(mode);
  }
}

// An entirely empty nonzero list must yield no rows and no work from the
// kernel (and an empty, well-formed CSF layout).
TEST(KernelDuplicates, EmptyInputYieldsNoRows) {
  std::vector<la::Matrix> fs;
  for (Index d : {4, 5, 6}) fs.push_back(la::Matrix(d, 2));
  LocalKernelStats stats;
  auto rows = csfMttkrp(tensor::buildCsfLayout({}, 3), fs, 0, 2, stats);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(stats.flops, 0u);
  EXPECT_EQ(stats.outputRows, 0u);
}

}  // namespace
}  // namespace cstf::cstf_core
