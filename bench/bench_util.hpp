// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary runs with no arguments and prints the rows/series of
// one table or figure from the CSTF paper. Two environment knobs:
//   CSTF_BENCH_SCALE — dataset scale relative to the ~1/1000-of-paper
//                      analogs (default 0.2; 1.0 for the full analogs)
//   CSTF_BENCH_ITERS — CP-ALS iterations measured per configuration
//                      (default 3; the paper averages 20)
//
// Per-run telemetry (trace, run report, live metrics) comes from
// `cstf factor` (tools/README.md), not from these binaries.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cstf/cstf.hpp"
#include "sparkle/sparkle.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::bench {

double benchScale();
int benchIterations();

/// Refuse any command-line argument (message and exit(2)); call first thing
/// from main.
void initBenchArgs(int argc, char** argv);

/// The paper's evaluation cluster (Comet: 24 cores/node), in Spark or
/// Hadoop mode, with `nodes` workers.
sparkle::ClusterConfig paperCluster(int nodes, sparkle::ExecutionMode mode =
                                                   sparkle::ExecutionMode::kSpark);

/// Execution mode BIGtensor runs under (it is a Hadoop library).
sparkle::ExecutionMode modeFor(cstf_core::Backend backend);

struct RunResult {
  /// Modeled cluster seconds per CP-ALS iteration, averaged over the
  /// measured iterations (excluding the first, which carries one-time
  /// tensor distribution and QCOO queue seeding).
  double secPerIteration = 0.0;
  double firstIterationSec = 0.0;
  sparkle::MetricsTotals totals;
  /// Per-scope totals captured at the end ("MTTKRP-1".., "Other").
  std::vector<std::pair<std::string, sparkle::MetricsTotals>> scopes;
};

/// Run CP-ALS with the given backend on a fresh context and collect the
/// quantities the paper reports.
RunResult runCpAls(cstf_core::Backend backend, const tensor::CooTensor& t,
                   int nodes, int iterations, std::size_t rank = 2);

/// Formatting helpers for paper-style output.
void printHeader(const std::string& title);
void printSubHeader(const std::string& title);

}  // namespace cstf::bench
