// Golden bits for the R-wide arithmetic: the CSF kernel's output rows at
// rank 16 for orders 3-5 and la::gram on a seeded 1000 x 16 matrix must
// hash to literals captured before the fiber loop was hoisted and the gram
// loop made contiguous. The hash covers every output index and every
// double's bit pattern in emission order, so any reordered sum, contracted
// multiply-add or dropped signed zero changes it. The contract tests pin
// what the broadcast-local path relies on to skip its map-side combiner:
// the kernel emits strictly increasing indices per partition.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cstf/cstf.hpp"
#include "tensor/csf.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::cstf_core {
namespace {

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t hashRows(const std::vector<std::pair<Index, la::Row>>& rows) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [idx, row] : rows) {
    h = fnv1a(h, &idx, sizeof idx);
    h = fnv1a(h, row.data(), row.size() * sizeof(double));
  }
  return h;
}

struct GoldenCase {
  std::vector<Index> dims;
  std::size_t nnz;
  std::uint64_t seed;
  /// One hash per target mode.
  std::vector<std::uint64_t> hashes;
};

// Zipf-skewed small tensors: every mode's layout holds both single-entry
// and multi-entry fibers (checked below), so both accumulator paths run.
const std::vector<GoldenCase>& goldenCases() {
  static const std::vector<GoldenCase> cases = {
      {{30, 20, 12},
       600,
       31,
       {0x14e19c15cc0d1d63ull, 0xf8e6dc1d8c281ee2ull, 0xc38e4daab60ae0f3ull}},
      {{20, 16, 12, 10},
       600,
       31,
       {0x9f31e95432262a9bull, 0x0f610188bbeab65full, 0x8b2a5aa61d4d8134ull,
        0x11985069935e8d54ull}},
      {{14, 12, 10, 8, 8},
       600,
       31,
       {0x763606c6ae09fa5cull, 0x24d71e557ab5e2e6ull, 0x9445082b76c31b43ull,
        0xf07bfba2fc6c3ea1ull, 0x9a8d6c7a23f5348aull}},
  };
  return cases;
}

TEST(KernelGolden, CsfRank16RowsMatchCapturedBits) {
  constexpr std::size_t kRank = 16;
  for (const GoldenCase& c : goldenCases()) {
    const auto order = static_cast<ModeId>(c.dims.size());
    const auto t = tensor::generateZipf(c.dims, c.nnz, 1.1, c.seed);
    const auto fs = randomFactors(c.dims, kRank, c.seed + 100);
    const tensor::CsfLayout layout =
        tensor::buildCsfLayout(t.nonzeros(), order);
    for (ModeId mode = 0; mode < order; ++mode) {
      const tensor::CsfModeView& v = layout.view(mode);
      std::size_t single = 0;
      std::size_t multi = 0;
      for (std::size_t f = 0; f < v.numFibers(); ++f) {
        (v.fiberPtr[f + 1] - v.fiberPtr[f] == 1 ? single : multi) += 1;
      }
      ASSERT_GT(single, 0u) << "order " << int(order) << " mode " << int(mode);
      ASSERT_GT(multi, 0u) << "order " << int(order) << " mode " << int(mode);

      LocalKernelStats stats;
      const auto rows = csfMttkrp(layout, fs, mode, kRank, stats);
      EXPECT_EQ(hashRows(rows), c.hashes[mode])
          << "order " << int(order) << " mode " << int(mode) << ": 0x"
          << std::hex << hashRows(rows);
    }
  }
}

TEST(KernelGolden, GramMatchesCapturedBits) {
  Pcg32 rng(2024);
  const la::Matrix a = la::Matrix::random(1000, 16, rng);
  const la::Matrix g = la::gram(a);
  const std::uint64_t h =
      fnv1a(kFnvBasis, g.data(), g.rows() * g.cols() * sizeof(double));
  EXPECT_EQ(h, 0x73e3932e88ce6285ull) << "0x" << std::hex << h;
}

/// Strictly increasing indices: unique keys, in order.
void expectStrictlyIncreasing(
    const std::vector<std::pair<Index, la::Row>>& rows, const char* what) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first) << what << " row " << i;
  }
}

TEST(KernelContract, BothKernelsEmitStrictlyIncreasingIndices) {
  const std::vector<Index> dims = {9, 7, 5, 4};
  const auto fs = randomFactors(dims, 3, 5);
  const auto zipf = tensor::generateZipf(dims, 300, 1.2, 9);

  // Duplicate coordinates: the same cell four times, interleaved with a
  // second cell, in unsorted order.
  std::vector<tensor::Nonzero> dup;
  for (int i = 0; i < 4; ++i) {
    tensor::Nonzero a;
    a.order = 4;
    a.idx = {3, 2, 1, 0};
    a.val = 1.0 + i;
    tensor::Nonzero b;
    b.order = 4;
    b.idx = {1, 6, 4, 3};
    b.val = 0.5 * i;
    dup.push_back(a);
    dup.push_back(b);
  }

  const std::vector<std::vector<tensor::Nonzero>> partitions = {
      {}, dup, zipf.nonzeros()};
  for (const auto& part : partitions) {
    const tensor::CsfLayout layout = tensor::buildCsfLayout(part, 4);
    for (ModeId mode = 0; mode < dims.size(); ++mode) {
      LocalKernelStats stats;
      const auto rows = csfMttkrp(layout, fs, mode, 3, stats);
      if (part.empty()) {
        EXPECT_TRUE(rows.empty());
      }
      expectStrictlyIncreasing(rows, "csf");
    }
  }
}

TEST(KernelContract, BroadcastLocalRunsWithEmptyPartitionsAndDuplicates) {
  // Three entries share one cell. Split into 2 partitions they meet in
  // one partition; split into 16, most partitions are empty. The
  // per-partition contract check inside mttkrpLocal must hold, and the
  // result must match the oracle.
  std::vector<tensor::Nonzero> nz;
  for (int i = 0; i < 6; ++i) {
    tensor::Nonzero a;
    a.order = 3;
    a.idx = {static_cast<Index>(i < 3 ? 0 : i - 2), 1, 2};
    a.val = 1.0 + i;
    nz.push_back(a);
  }
  const tensor::CooTensor t({4, 3, 3}, nz);
  const auto fs = randomFactors(t.dims(), 2, 3);
  for (const std::size_t parts : {2u, 16u}) {
    sparkle::ClusterConfig cfg;
    cfg.numNodes = 4;
    cfg.coresPerNode = 2;
    sparkle::Context ctx(cfg, 2);
    auto X = tensorToRdd(ctx, t, parts);
    X.cache();
    MttkrpOptions opts;
    opts.numPartitions = 16;
    for (ModeId mode = 0; mode < 3; ++mode) {
      const la::Matrix got = mttkrpLocal(ctx, X, t.dims(), fs, mode, opts);
      const la::Matrix want = tensor::referenceMttkrp(t, fs, mode);
      EXPECT_LT(got.maxAbsDiff(want), 1e-12)
          << "parts " << parts << " mode " << int(mode);
    }
  }
}

}  // namespace
}  // namespace cstf::cstf_core
