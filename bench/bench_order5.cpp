// Beyond the paper's measurements: 5th-order tensors.
//
// Section 5 of the paper analyzes order N in closed form — COO needs N^2
// join-shuffle volume per CP iteration vs QCOO's N*(N-1), predicting 20%
// savings at N=5 (and 2N vs N^2 shuffle ops) — but the evaluation stops at
// order 4. This bench runs the real order-5 computation and checks the
// analysis, completing the paper's own table.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

using namespace cstf;
using cstf_core::Backend;

namespace {

sparkle::MetricsTotals totalsAfter(Backend b, const tensor::CooTensor& t,
                                   int iters) {
  sparkle::Context ctx(bench::paperCluster(8), 0, 24);
  cstf_core::CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = iters;
  o.backend = b;
  o.computeFit = false;
  cstf_core::cpAls(ctx, t, o);
  return ctx.metrics().totals();
}

}  // namespace

int main(int argc, char** argv) {
  cstf::bench::initBenchArgs(argc, argv);
  bench::printHeader(
      "Order-5 CP-ALS: validating the paper's section-5 analysis (8 nodes)");

  tensor::GeneratorOptions gen;
  gen.dims = {3000, 2500, 2000, 400, 100};
  gen.nnz = static_cast<std::size_t>(120000 * bench::benchScale());
  gen.zipfSkew = {0.55, 0.6, 0.6, 0.3, 0.2};
  gen.seed = 55;
  gen.name = "synt5d";
  const tensor::CooTensor t = tensor::generateRandom(gen);
  std::printf("tensor: order 5, %zu nonzeros\n\n", t.nnz());

  for (Backend b : {Backend::kCoo, Backend::kQcoo}) {
    const auto one = totalsAfter(b, t, 1);
    const auto two = totalsAfter(b, t, 2);
    const auto pred = cstf_core::analyticCpIterationCost(b, 5);
    std::printf(
        "%-10s steady-state iteration: %llu shuffle ops (analysis: %d), "
        "%s shuffled\n",
        cstf_core::backendName(b),
        static_cast<unsigned long long>(two.shuffleOps - one.shuffleOps),
        pred.shuffles,
        humanBytes(double(two.shuffleBytesRemote + two.shuffleBytesLocal -
                          one.shuffleBytesRemote - one.shuffleBytesLocal))
            .c_str());
  }

  const auto coo1 = totalsAfter(Backend::kCoo, t, 1);
  const auto coo2 = totalsAfter(Backend::kCoo, t, 2);
  const auto q1 = totalsAfter(Backend::kQcoo, t, 1);
  const auto q2 = totalsAfter(Backend::kQcoo, t, 2);
  const double cooBytes =
      double(coo2.shuffleBytesRemote - coo1.shuffleBytesRemote);
  const double qBytes = double(q2.shuffleBytesRemote - q1.shuffleBytesRemote);
  std::printf(
      "\nQCOO remote-shuffle saving at order 5: %.0f%% "
      "(section-5 join-volume analysis: %.0f%%)\n",
      100.0 * (1.0 - qBytes / cooBytes),
      100.0 * cstf_core::predictedQcooSavings(5));
  return 0;
}
