// Microbenchmarks of the compute kernels under the CSTF algorithms:
// serialization, row arithmetic, gram/pinv linear algebra, and the
// sequential MTTKRP across ranks and orders.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "cstf/kernels/local_kernel.hpp"
#include "cstf/records.hpp"
#include "tensor/csf.hpp"
#include "la/matrix.hpp"
#include "la/row.hpp"
#include "la/solve.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace {

using namespace cstf;

void BM_SerdeNonzeroRoundTrip(benchmark::State& state) {
  const auto nz = tensor::makeNonzero3(11, 22, 33, 1.5);
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    serdeWrite(buf, nz);
    Reader r(buf.data(), buf.size());
    benchmark::DoNotOptimize(serdeRead<tensor::Nonzero>(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerdeNonzeroRoundTrip);

void BM_SerdeQRecordRoundTrip(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  cstf_core::QRecord rec;
  rec.nz = tensor::makeNonzero3(1, 2, 3, 4.0);
  for (int q = 0; q < 2; ++q) {
    la::Row row;
    for (std::size_t r = 0; r < rank; ++r) row.push_back(0.5 * r);
    rec.enqueue(row);
  }
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    serdeWrite(buf, rec);
    Reader r(buf.data(), buf.size());
    benchmark::DoNotOptimize(serdeRead<cstf_core::QRecord>(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerdeQRecordRoundTrip)->Arg(2)->Arg(8)->Arg(32);

void BM_RowHadamard(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  la::Row a(rank, 1.5);
  la::Row b(rank, 0.5);
  for (auto _ : state) {
    la::Row c = a;
    la::rowHadamardInPlace(c, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RowHadamard)->Arg(2)->Arg(4)->Arg(16);

void BM_Gram(benchmark::State& state) {
  Pcg32 rng(1);
  la::Matrix m = la::Matrix::random(static_cast<std::size_t>(state.range(0)),
                                    8, rng);
  for (auto _ : state) benchmark::DoNotOptimize(la::gram(m));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Gram)->Arg(1000)->Arg(10000);

void BM_PinvSym(benchmark::State& state) {
  Pcg32 rng(2);
  la::Matrix g =
      la::gram(la::Matrix::random(64, static_cast<std::size_t>(state.range(0)), rng));
  for (auto _ : state) benchmark::DoNotOptimize(la::pinvSym(g));
}
BENCHMARK(BM_PinvSym)->Arg(2)->Arg(8)->Arg(16);

void BM_ReferenceMttkrp(benchmark::State& state) {
  const auto nnz = static_cast<std::size_t>(state.range(0));
  const auto rank = static_cast<std::size_t>(state.range(1));
  auto t = tensor::generateRandom({{2000, 2000, 2000}, nnz, {}, 3});
  Pcg32 rng(4);
  std::vector<la::Matrix> fs;
  for (ModeId m = 0; m < 3; ++m) {
    fs.push_back(la::Matrix::random(t.dim(m), rank, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::referenceMttkrp(t, fs, 0));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
}
BENCHMARK(BM_ReferenceMttkrp)
    ->Args({10000, 2})
    ->Args({100000, 2})
    ->Args({100000, 8});

// The per-partition local kernels behind mttkrpLocal, head to head on the
// same nonzero list. The CSF variant reuses a prebuilt layout, matching
// how cp_als amortizes the build across modes and iterations.
void localKernelCase(benchmark::State& state, sparkle::LocalKernel kind) {
  const auto nnz = static_cast<std::size_t>(state.range(0));
  const auto rank = static_cast<std::size_t>(state.range(1));
  auto t = tensor::generateZipf({2000, 2000, 2000}, nnz, 1.1, 3);
  Pcg32 rng(4);
  std::vector<la::Matrix> fs;
  for (ModeId m = 0; m < 3; ++m) {
    fs.push_back(la::Matrix::random(t.dim(m), rank, rng));
  }
  const tensor::CsfLayout layout =
      tensor::buildCsfLayout(t.nonzeros(), t.order());
  const auto* layoutPtr =
      kind == sparkle::LocalKernel::kCsf ? &layout : nullptr;
  const auto& kernel = cstf_core::localKernelFor(kind);
  for (auto _ : state) {
    for (ModeId mode = 0; mode < 3; ++mode) {
      cstf_core::LocalKernelStats stats;
      benchmark::DoNotOptimize(
          kernel.compute(t.nonzeros(), layoutPtr, fs, mode, stats));
    }
  }
  state.SetItemsProcessed(state.iterations() * t.nnz() * 3);
}
void BM_LocalKernelCoo(benchmark::State& state) {
  localKernelCase(state, sparkle::LocalKernel::kCoo);
}
void BM_LocalKernelCsf(benchmark::State& state) {
  localKernelCase(state, sparkle::LocalKernel::kCsf);
}
BENCHMARK(BM_LocalKernelCoo)->Args({100000, 4})->Args({100000, 16});
BENCHMARK(BM_LocalKernelCsf)->Args({100000, 4})->Args({100000, 16});

void BM_CsfLayoutBuild(benchmark::State& state) {
  const auto nnz = static_cast<std::size_t>(state.range(0));
  auto t = tensor::generateZipf({2000, 2000, 2000}, nnz, 1.1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::buildCsfLayout(t.nonzeros(), t.order()));
  }
  state.SetItemsProcessed(state.iterations() * t.nnz());
}
BENCHMARK(BM_CsfLayoutBuild)->Arg(10000)->Arg(100000);

void BM_KhatriRao(benchmark::State& state) {
  Pcg32 rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix a = la::Matrix::random(n, 4, rng);
  la::Matrix b = la::Matrix::random(n, 4, rng);
  for (auto _ : state) benchmark::DoNotOptimize(la::khatriRao(a, b));
}
BENCHMARK(BM_KhatriRao)->Arg(64)->Arg(256);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler z(static_cast<std::uint32_t>(state.range(0)), 1.1);
  Pcg32 rng(6);
  for (auto _ : state) benchmark::DoNotOptimize(z.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
