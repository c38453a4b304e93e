#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/parse.hpp"
#include "common/strings.hpp"
#include "tensor/generator.hpp"

namespace cstf::bench {

void initBenchArgs(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s\nusage: %s (no arguments)\n",
                 argv[1], argv[0]);
    std::exit(2);
  }
}

double benchScale() {
  const char* s = std::getenv("CSTF_BENCH_SCALE");
  if (s == nullptr) return 0.2;
  double v = 0.0;
  if (!parseFlag("CSTF_BENCH_SCALE", s, v)) std::exit(2);
  // Refuse a scale any analog would refuse, before a bench builds anything.
  try {
    for (const std::string& name : tensor::paperAnalogNames()) {
      tensor::paperAnalogOptions(name, v);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "CSTF_BENCH_SCALE: %s\n", e.what());
    std::exit(2);
  }
  return v;
}

int benchIterations() {
  if (const char* s = std::getenv("CSTF_BENCH_ITERS")) {
    int v = 0;
    if (!parseFlag("CSTF_BENCH_ITERS", s, v, 1)) std::exit(2);
    return v;
  }
  return 3;
}

sparkle::ClusterConfig paperCluster(int nodes, sparkle::ExecutionMode mode) {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = nodes;
  cfg.coresPerNode = 24;  // Comet's E5-2680v3
  cfg.mode = mode;
  // Fixed per-stage / per-job overheads, scaled to the bench data size.
  // The analog datasets are ~1/5000 of the paper's, so compute and network
  // terms shrink by that factor automatically (they are proportional to
  // measured work); the *fixed* scheduling costs must shrink comparably or
  // they would swamp everything. These values keep overhead:compute ratios
  // near the full-scale ones (see EXPERIMENTS.md, calibration).
  cfg.stageOverheadSec = 0.004;
  cfg.stageOverheadPerNodeSec = 0.0008;
  cfg.jobOverheadSec = 0.08;
  // Per-shuffle-block framing: negligible at sane partition counts, the
  // dominant cost when over-partitioning (see bench_ablation_partitions).
  cfg.shuffleBlockOverheadBytes = 192;
  return cfg;
}

sparkle::ExecutionMode modeFor(cstf_core::Backend backend) {
  return backend == cstf_core::Backend::kBigtensor
             ? sparkle::ExecutionMode::kHadoop
             : sparkle::ExecutionMode::kSpark;
}

RunResult runCpAls(cstf_core::Backend backend, const tensor::CooTensor& t,
                   int nodes, int iterations, std::size_t rank) {
  // Partitions scale with the cluster (Spark's spark.default.parallelism
  // is conventionally a small multiple of total cores); with a fixed
  // count, the longest-single-task floor would flatten every curve.
  sparkle::Context ctx(paperCluster(nodes, modeFor(backend)),
                       /*threads=*/0,
                       /*defaultParallelism=*/3 * std::size_t(nodes));

  cstf_core::CpAlsOptions o;
  o.rank = rank;
  o.maxIterations = iterations;
  o.backend = backend;
  o.seed = 7;
  o.computeFit = false;  // the paper times fixed-iteration runs

  auto res = cstf_core::cpAls(ctx, t, o);

  RunResult out;
  out.totals = ctx.metrics().totals();
  out.firstIterationSec = res.iterations.front().simTimeSec;
  double steady = 0.0;
  int steadyCount = 0;
  for (std::size_t i = 1; i < res.iterations.size(); ++i) {
    steady += res.iterations[i].simTimeSec;
    ++steadyCount;
  }
  out.secPerIteration = steadyCount > 0
                            ? steady / steadyCount
                            : res.iterations.front().simTimeSec;
  for (ModeId m = 0; m < t.order(); ++m) {
    const std::string scope = strprintf("MTTKRP-%d", int(m) + 1);
    out.scopes.emplace_back(scope, ctx.metrics().totalsForScope(scope));
  }
  out.scopes.emplace_back("Other", ctx.metrics().totalsForScope("Other"));
  return out;
}

void printHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void printSubHeader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

}  // namespace cstf::bench
