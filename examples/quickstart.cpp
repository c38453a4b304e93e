// Quickstart: factor a sparse tensor with CSTF in ~30 lines of API.
//
//   1. Set up a simulated cluster (8 nodes, Spark semantics).
//   2. Load or generate a sparse COO tensor.
//   3. Run CP-ALS with the CSTF-QCOO backend.
//   4. Inspect the fit, the factors, and what the cluster did.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/strings.hpp"
#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

int main() {
  using namespace cstf;

  // A cluster model: 8 workers, 24 cores each (see sparkle/cluster.hpp for
  // the calibration constants; swap mode to kHadoop to feel BIGtensor's
  // pain).
  sparkle::Context ctx(sparkle::ClusterConfig{.numNodes = 8});

  // A 3rd-order sparse tensor. Replace with
  //   tensor::readTnsFile("my_tensor.tns")
  // to load a FROSTT-format file.
  tensor::CooTensor X = tensor::paperAnalog("delicious3d-s", /*scale=*/0.1);
  std::printf("tensor %s: order %d, dims [%u x %u x %u], %zu nonzeros\n",
              X.name().c_str(), int(X.order()), X.dim(0), X.dim(1), X.dim(2),
              X.nnz());

  // Rank-8 CP decomposition with the queue-based backend.
  cstf_core::CpAlsOptions opts;
  opts.rank = 8;
  opts.maxIterations = 10;
  opts.backend = cstf_core::Backend::kQcoo;
  cstf_core::CpAlsResult result = cstf_core::cpAls(ctx, X, opts);

  std::printf("\nCP-ALS (%s) finished: fit=%.4f after %zu iterations%s\n",
              cstf_core::backendName(opts.backend), result.finalFit,
              result.report.iterations.size(),
              result.converged ? " (converged)" : "");
  for (const auto& it : result.report.iterations) {
    std::printf("  iter %2d: fit=%.4f  modeled cluster time=%s\n",
                it.iteration, it.fit, humanSeconds(it.simTimeSec).c_str());
  }

  // The factors: one (dim x rank) matrix per mode, columns unit-normalized,
  // with the weights in lambda.
  std::printf("\nlambda:");
  for (double l : result.lambda) std::printf(" %.3f", l);
  std::printf("\nfactor shapes:");
  for (const auto& f : result.factors) {
    std::printf(" %zux%zu", f.rows(), f.cols());
  }

  // What the cluster did, from the engine's metrics service.
  const auto t = ctx.metrics().totals();
  std::printf("\n\ncluster activity: %llu shuffle ops, %s remote + %s local "
              "shuffle reads, %.1e flops\n",
              static_cast<unsigned long long>(t.shuffleOps),
              humanBytes(double(t.shuffleBytesRemote)).c_str(),
              humanBytes(double(t.shuffleBytesLocal)).c_str(),
              double(t.flops));
  return 0;
}
