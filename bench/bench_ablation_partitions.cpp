// Ablation: partition count vs iteration time.
//
// Too few partitions and the longest single task gates every stage (and a
// hot Zipf key makes it worse); too many and fixed per-task costs dominate.
// Spark tuning folklore says 2-4 tasks per core; this bench shows where the
// engine's optimum falls for an 8-node (192-core) cluster, and justifies
// the 3-partitions-per-node default the figure benches use.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

using namespace cstf;

int main(int argc, char** argv) {
  cstf::bench::initBenchArgs(argc, argv);
  bench::printHeader(
      "Ablation: shuffle partition count (CSTF-COO, 8 nodes, delicious3d-s)");

  const tensor::CooTensor t =
      tensor::paperAnalog("delicious3d-s", bench::benchScale());
  std::printf("tensor: %zu nonzeros\n\n", t.nnz());
  std::printf("%-12s %8s %14s\n", "partitions", "per core", "sec/iteration");

  for (std::size_t parts : {4u, 8u, 16u, 24u, 48u, 96u, 192u, 384u}) {
    sparkle::Context ctx(bench::paperCluster(8), 0, parts);
    cstf_core::CpAlsOptions o;
    o.rank = 2;
    o.maxIterations = 2;
    o.backend = cstf_core::Backend::kCoo;
    o.computeFit = false;
    auto res = cstf_core::cpAls(ctx, t, o);
    const double perIter = res.iterations.back().simTimeSec;
    std::printf("%-12zu %8.2f %14.3f\n", parts,
                double(parts) / ctx.config().totalCores(), perIter);
  }
  std::printf(
      "\nexpected shape: steep gains until tasks-per-core ~0.25-0.5, then "
      "strongly diminishing returns as fixed per-stage costs and "
      "tiny-shuffle-block overheads absorb the parallelism.\n");
  return 0;
}
