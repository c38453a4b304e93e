// Structured run report for a CP-ALS execution.
//
// The machine-readable counterpart of the paper's §6 evaluation tables:
// per-iteration fit trajectory and λ norms, per-(iteration, mode) and
// per-stage rows of the one counter block sparkle::StageCounts (with
// reduce and task skew), and run-level totals that match
// StageLog::totals() exactly. Serializes to JSON (see tools/README.md for
// the schema); the CLI's `factor` writes one via --report-out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sparkle/metrics.hpp"

namespace cstf::cstf_core {

/// One mode update (MTTKRP_n + solve/normalize) of one iteration: the
/// stage-log totals after the update minus those before it, so summing
/// mode entries reproduces the in-loop engine work exactly. wallTimeSec
/// is the host wall of the whole update, not the sum of its stages'.
struct ModeTelemetry : sparkle::StageCounts {
  int iteration = 0;
  int mode = 0;  // 1-based, matching the "MTTKRP-n" metric scopes
  /// Reduce-task record skew pooled over this mode update's shuffles.
  sparkle::RecordSkewStats reduceSkew;
};

/// One CP-ALS iteration: what cpAls passes to onIteration and keeps in
/// RunReport::iterations.
struct CpAlsIterationStats {
  int iteration = 0;
  double fit = 0.0;
  /// NaN for iteration 1 (no previous fit exists); serialized as null.
  double fitDelta = 0.0;
  /// Norms of the column-weight vector after the iteration's last update.
  double lambdaL2 = 0.0;
  double lambdaMin = 0.0;
  double lambdaMax = 0.0;
  /// Simulated cluster seconds spent in this iteration.
  double simTimeSec = 0.0;
  /// Host wall seconds (for the curious; not a cluster quantity).
  double wallTimeSec = 0.0;
  std::vector<ModeTelemetry> modes;
};

/// One stage-log entry, flattened for the report: its counts, ids and
/// skew. Every count sums over `stages` to the same field of `totals`.
struct StageSummary : sparkle::StageCounts {
  std::uint64_t stageId = 0;
  /// Shared by the stages of one shuffle operation (0 = not a shuffle).
  std::uint64_t shuffleOpId = 0;
  std::string scope;
  std::string label;
  std::string kind;
  sparkle::TaskSkewStats skew;
  /// Reduce-side record distribution (shuffle stages only).
  sparkle::RecordSkewStats reduceSkew;
};

struct RunReport {
  /// The resolved MTTKRP plan (MttkrpPlan::describe()); the backend and
  /// localKernel fields below are stamped from it.
  std::string plan;
  std::string backend;
  /// The --local-kernel setting ("coo": a join chain, "csf").
  std::string localKernel;
  /// Host wall seconds spent inside csfMttkrp calls, and how
  /// many partition-kernel invocations they cover (0/0 on the join-chain
  /// path, which has no discrete kernel).
  double localKernelWallSec = 0.0;
  std::uint64_t localKernelInvocations = 0;
  /// One-time CSF layout construction: host wall seconds, partitions
  /// built, and resident layout bytes (all 0 on a join chain).
  double layoutBuildWallSec = 0.0;
  std::uint64_t layoutBuildPartitions = 0;
  std::uint64_t layoutBytes = 0;
  std::size_t rank = 0;
  std::vector<Index> dims;
  std::size_t nnz = 0;
  int nodes = 0;
  bool converged = false;
  double finalFit = 0.0;
  /// Iteration a --resume run restarted after (0 = started fresh); the
  /// `iterations` list then begins at resumedFromIteration + 1.
  int resumedFromIteration = 0;
  std::vector<CpAlsIterationStats> iterations;
  /// Every stage the log recorded during the run, in execution order.
  std::vector<StageSummary> stages;
  /// Stage-log totals at the end of the run; per-stage sums in `stages`
  /// match these exactly.
  sparkle::MetricsTotals totals;

  std::string toJson() const;
};

/// Populate `stages` and `totals` from the stage log's current contents
/// (both from the same snapshot, so their sums always agree). Callers
/// wanting the report restricted to one run should reset the log
/// before that run.
void finalizeRunReport(const sparkle::StageLog& metrics,
                       RunReport& report);

}  // namespace cstf::cstf_core
