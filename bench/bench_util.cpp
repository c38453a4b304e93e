#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/artifacts.hpp"
#include "common/metrics_registry.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "tensor/generator.hpp"

namespace cstf::bench {

namespace {

// Artifact destinations shared by every runCpAls() in the binary; set by
// initBenchArgs (flags win over env).
std::string g_traceOut;
std::string g_reportOut;
std::string g_metricsCsv;
std::string g_metricsOut;
int g_metricsIntervalMs = 100;
int g_runCounter = 0;

std::string envOr(const char* name, const std::string& current) {
  if (!current.empty()) return current;
  if (const char* v = std::getenv(name)) return v;
  return {};
}

// "out.json" + run 3 -> "out-run3.json"; no extension -> append the tag.
std::string taggedPath(const std::string& base, int run) {
  const std::string tag = strprintf("-run%d", run);
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + tag;
  }
  return base.substr(0, dot) + tag + base.substr(dot);
}

}  // namespace

void initBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    auto take = [&](const char* flag, std::string& dst) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      dst = argv[++i];
      return true;
    };
    std::string interval;
    if (take("--trace-out", g_traceOut) ||
        take("--report-out", g_reportOut) ||
        take("--metrics-csv", g_metricsCsv) ||
        take("--metrics-out", g_metricsOut)) {
      continue;
    }
    if (take("--metrics-interval-ms", interval)) {
      if (!parseFlag("--metrics-interval-ms", interval.c_str(),
                     g_metricsIntervalMs, 1)) {
        std::exit(2);
      }
      continue;
    }
    std::fprintf(stderr,
                 "unknown argument: %s\nusage: %s [--trace-out P] "
                 "[--report-out P] [--metrics-csv P] [--metrics-out P] "
                 "[--metrics-interval-ms N]\n",
                 argv[i], argv[0]);
    std::exit(2);
  }
  g_traceOut = envOr("CSTF_TRACE_OUT", g_traceOut);
  g_reportOut = envOr("CSTF_REPORT_OUT", g_reportOut);
  g_metricsCsv = envOr("CSTF_METRICS_CSV", g_metricsCsv);
  g_metricsOut = envOr("CSTF_METRICS_OUT", g_metricsOut);
}

RunArtifacts::RunArtifacts(sparkle::Context& ctx) : ctx_(&ctx) {
  // Resolve destinations at run time so env fallbacks work even when a
  // main never reaches initBenchArgs.
  traceOut_ = envOr("CSTF_TRACE_OUT", g_traceOut);
  reportOut_ = envOr("CSTF_REPORT_OUT", g_reportOut);
  metricsCsv_ = envOr("CSTF_METRICS_CSV", g_metricsCsv);
  metricsOut_ = envOr("CSTF_METRICS_OUT", g_metricsOut);
  run_ = ++g_runCounter;
  if (!traceOut_.empty()) {
    // Private recorder: keeps each configuration's trace self-contained
    // instead of accumulating in the process-global one.
    trace_.setEnabled(true);
    ctx.setTrace(&trace_);
  }
  if (!metricsOut_.empty()) {
    HeartbeatOptions o;
    o.ndjsonPath = taggedPath(metricsOut_, run_);
    o.promPath = o.ndjsonPath + ".prom";
    o.intervalMs = g_metricsIntervalMs;
    heartbeat_ = std::make_unique<Heartbeat>(metrics::globalRegistry(), o);
    heartbeat_->addCheck([&ctx] { ctx.straggler().checkNow(); });
    heartbeat_->start();
  }
}

RunArtifacts::~RunArtifacts() = default;

void RunArtifacts::write(const cstf_core::RunReport* report) {
  if (heartbeat_) heartbeat_->stop();  // final snapshot for this run
  if (!traceOut_.empty()) {
    writeArtifact(taggedPath(traceOut_, run_), trace_.toChromeJson(),
                  "trace");
  }
  if (!reportOut_.empty() && report != nullptr) {
    writeArtifact(taggedPath(reportOut_, run_), report->toJson(),
                  "run report");
  }
  if (!metricsCsv_.empty()) {
    writeArtifact(taggedPath(metricsCsv_, run_), ctx_->metrics().toCsv(),
                  "stage metrics");
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

  RunArtifacts artifacts(ctx);

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
  out.report = std::move(res.report);
  artifacts.write(&out.report);
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
