// CP-ALS driver (paper Algorithm 1 / Algorithm 3), running on any of the
// distributed MTTKRP backends.
//
// Per iteration, for each mode n: M <- MTTKRP_n; V <- Hadamard product of
// all gram matrices but mode n's; A_n <- M V^dagger; normalize columns into
// lambda. Gram matrices are cached and only the updated factor's gram is
// recomputed (the paper's once-per-iteration gram reuse, §4.2). The fit is
// computed with the standard trick from the last mode's MTTKRP result, at
// no extra distributed work.
#pragma once

#include <functional>
#include <vector>

#include "cstf/options.hpp"
#include "cstf/run_report.hpp"
#include "la/matrix.hpp"
#include "sparkle/context.hpp"
#include "sparkle/dataset.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::cstf_core {

struct CpAlsIterationStats {
  int iteration = 0;
  double fit = 0.0;
  double fitDelta = 0.0;
  /// Simulated cluster seconds spent in this iteration.
  double simTimeSec = 0.0;
  /// Host wall seconds (for the curious; not a cluster quantity).
  double wallTimeSec = 0.0;
};

struct CpAlsOptions {
  std::size_t rank = 2;
  int maxIterations = 20;
  /// Stop when the fit improves by less than this between iterations
  /// (ignored when computeFit is false).
  double tolerance = 1e-6;
  Backend backend = Backend::kCoo;
  std::uint64_t seed = 7;
  MttkrpOptions mttkrp;
  bool computeFit = true;
  /// How the distributed tensor RDD is persisted across MTTKRPs and
  /// iterations. kRaw is the paper's choice (§4.1); kSerialized trades
  /// read-back CPU for memory; kNone disables caching, so every stage
  /// recomputes the tensor from its source — the ablation for the paper's
  /// "keeping the tensor in memory can improve the performance
  /// significantly" claim.
  sparkle::StorageLevel tensorStorage = sparkle::StorageLevel::kRaw;
  /// When non-empty, persist the full ALS state (factors + lambda +
  /// iteration + seed, see cstf/checkpoint.hpp) into this directory every
  /// `checkpointEvery` iterations, so an interrupted job can resume.
  std::string checkpointDir;
  int checkpointEvery = 1;
  /// Restore the latest checkpoint in `checkpointDir` (if any) and
  /// continue its trajectory from the following iteration. With no
  /// checkpoint present, the run starts fresh. Checkpoint metadata
  /// (seed/rank/dims) must match this run's, or cpAls throws.
  bool resume = false;
  /// Invoked after each iteration (benches use it to snapshot per-scope
  /// metric totals at iteration boundaries).
  std::function<void(const CpAlsIterationStats&)> onIteration;
};

struct CpAlsResult {
  std::vector<la::Matrix> factors;  // columns unit-normalized
  std::vector<double> lambda;       // column weights
  std::vector<CpAlsIterationStats> iterations;
  /// Structured telemetry: one entry per (iteration, mode), per-stage
  /// summaries and totals (see run_report.hpp). Always populated; the
  /// stage list/totals reflect the registry's full contents, so reset the
  /// registry before cpAls for a single-run report.
  RunReport report;
  double finalFit = 0.0;
  bool converged = false;
};

/// Factor `X` with the configured backend. Stage metrics accumulate in
/// `ctx.metrics()` under scopes "MTTKRP-1".."MTTKRP-N" and "Other"; callers
/// wanting a clean slate should reset the registry first.
CpAlsResult cpAls(sparkle::Context& ctx, const tensor::CooTensor& X,
                  const CpAlsOptions& opts);

}  // namespace cstf::cstf_core
