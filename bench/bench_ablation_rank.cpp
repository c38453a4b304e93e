// Ablation: decomposition rank vs QCOO's advantage.
//
// The paper fixes R=2 everywhere. Rank changes both sides of the QCOO
// trade: payload per record grows linearly with R (the queue carries
// (N-1)*R doubles vs COO's R), while the per-record envelope and stream
// counts stay fixed — so QCOO's byte savings shrink as R grows on
// 3rd-order tensors, and its compute share rises. This bench maps that
// trend, which the paper's single-rank evaluation cannot show.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

using namespace cstf;
using cstf_core::Backend;

namespace {

struct Point {
  double secPerIter = 0.0;
  std::uint64_t bytes = 0;
};

Point run(Backend b, const tensor::CooTensor& t, std::size_t rank,
          int iters) {
  sparkle::Context ctx(bench::paperCluster(8), 0, 24);
  cstf_core::CpAlsOptions o;
  o.rank = rank;
  o.maxIterations = iters;
  o.backend = b;
  o.computeFit = false;
  auto res = cstf_core::cpAls(ctx, t, o);
  Point p;
  double steady = 0.0;
  for (std::size_t i = 1; i < res.iterations.size(); ++i) {
    steady += res.iterations[i].simTimeSec;
  }
  p.secPerIter = steady / double(res.iterations.size() - 1);
  const auto m = ctx.metrics().totals();
  p.bytes = m.shuffleBytesRemote + m.shuffleBytesLocal;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  cstf::bench::initBenchArgs(argc, argv);
  bench::printHeader(
      "Ablation: CP rank vs QCOO advantage (delicious3d-s, 8 nodes)");

  const tensor::CooTensor t =
      tensor::paperAnalog("delicious3d-s", bench::benchScale());
  std::printf("tensor: %zu nonzeros\n\n", t.nnz());
  std::printf("%-6s %12s %12s %12s %14s\n", "rank", "COO s/iter",
              "QCOO s/iter", "QCOO spdup", "byte saving");

  for (std::size_t rank : {1u, 2u, 4u, 8u, 16u}) {
    const Point coo = run(Backend::kCoo, t, rank, 3);
    const Point qcoo = run(Backend::kQcoo, t, rank, 3);
    std::printf("%-6zu %12.3f %12.3f %11.2fx %13.0f%%\n", rank,
                coo.secPerIter, qcoo.secPerIter,
                coo.secPerIter / qcoo.secPerIter,
                100.0 * (1.0 - double(qcoo.bytes) / double(coo.bytes)));
  }
  std::printf(
      "\nexpected: byte saving decays toward the pure-payload ratio as R "
      "grows (the fixed per-record envelope washes out); the runtime "
      "advantage erodes with it.\n");
  return 0;
}
