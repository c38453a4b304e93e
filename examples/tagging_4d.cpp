// 4th-order tensors: a delicious-style user x item x tag x day tagging
// tensor — the workload class where CSTF's higher-order support matters
// (BIGtensor stops at order 3) and where the QCOO queue strategy saves the
// most communication relative to COO's N^2 shuffles.
//
// Runs both CSTF backends on the same tensor, verifies they agree, and
// prints the shuffle traffic each one generated.
#include <cstdio>

#include "common/strings.hpp"
#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

using namespace cstf;

namespace {

struct RunStats {
  double fit = 0.0;
  double simSec = 0.0;
  std::uint64_t remoteBytes = 0;
  std::uint64_t shuffleOps = 0;
  std::vector<la::Matrix> factors;
};

RunStats run(cstf_core::Backend backend, const tensor::CooTensor& t) {
  sparkle::Context ctx(sparkle::ClusterConfig{.numNodes = 16});
  cstf_core::CpAlsOptions opts;
  opts.rank = 4;
  opts.maxIterations = 6;
  opts.backend = backend;
  opts.seed = 11;
  auto res = cstf_core::cpAls(ctx, t, opts);
  const auto totals = ctx.metrics().totals();
  return {res.finalFit, ctx.metrics().totals().simTimeSec,
          totals.shuffleBytesRemote, totals.shuffleOps,
          std::move(res.factors)};
}

}  // namespace

int main() {
  // user x item x tag x day, skewed like real tagging systems.
  tensor::GeneratorOptions gen;
  gen.dims = {400, 1200, 300, 120};
  gen.nnz = 30000;
  gen.zipfSkew = {0.9, 1.0, 1.1, 0.3};
  gen.seed = 31;
  gen.name = "tagging-4d";
  const tensor::CooTensor X = tensor::generateRandom(gen);
  std::printf("tagging tensor: order %d, %zu nonzeros, density %.1e\n",
              int(X.order()), X.nnz(), X.density());

  const RunStats coo = run(cstf_core::Backend::kCoo, X);
  const RunStats qcoo = run(cstf_core::Backend::kQcoo, X);

  std::printf("\n%-12s %10s %14s %16s %12s\n", "backend", "fit",
              "cluster time", "remote shuffle", "shuffle ops");
  std::printf("%-12s %10.4f %14s %16s %12llu\n", "CSTF-COO", coo.fit,
              humanSeconds(coo.simSec).c_str(),
              humanBytes(double(coo.remoteBytes)).c_str(),
              static_cast<unsigned long long>(coo.shuffleOps));
  std::printf("%-12s %10.4f %14s %16s %12llu\n", "CSTF-QCOO", qcoo.fit,
              humanSeconds(qcoo.simSec).c_str(),
              humanBytes(double(qcoo.remoteBytes)).c_str(),
              static_cast<unsigned long long>(qcoo.shuffleOps));

  double maxDiff = 0.0;
  for (std::size_t m = 0; m < coo.factors.size(); ++m) {
    maxDiff = std::max(maxDiff, coo.factors[m].maxAbsDiff(qcoo.factors[m]));
  }
  std::printf("\nbackends agree: max |factor difference| = %.2e\n", maxDiff);
  std::printf("QCOO remote-shuffle saving: %.0f%% (paper section 5 predicts "
              "25%% for order 4 from join volumes alone; measured 31%% on "
              "flickr)\n",
              100.0 * (1.0 - double(qcoo.remoteBytes) /
                                 double(coo.remoteBytes)));

  // Surface one interpretable output: the busiest day-mode factor column
  // tells us the dominant temporal pattern.
  const la::Matrix& day = qcoo.factors[3];
  std::printf("\nday-mode factor has %zu rows (days) x %zu components — "
              "downstream code can read seasonal patterns from it.\n",
              day.rows(), day.cols());
  return 0;
}
