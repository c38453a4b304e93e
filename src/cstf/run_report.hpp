// Structured run report for a CP-ALS execution.
//
// The machine-readable counterpart of the paper's §6 evaluation tables:
// per-(iteration, mode) telemetry (fit trajectory, λ norms, sim/wall time,
// shuffle volume, cache traffic), per-stage summaries with task-skew
// statistics, and run-level totals that match StageLog::totals()
// exactly. Serializes to JSON (see tools/README.md for the schema); the
// CLI's `factor` writes one via --report-out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sparkle/metrics.hpp"

namespace cstf::cstf_core {

/// Telemetry for one mode update (MTTKRP_n + solve/normalize) of one
/// iteration, measured as the delta of the stage-log totals across the
/// update — so summing mode entries reproduces the in-loop engine work
/// exactly.
struct ModeTelemetry {
  int iteration = 0;
  int mode = 0;  // 1-based, matching the "MTTKRP-n" metric scopes
  double simTimeSec = 0.0;
  double wallTimeSec = 0.0;
  std::uint64_t shuffleRecords = 0;
  std::uint64_t shuffleBytesRemote = 0;
  std::uint64_t shuffleBytesLocal = 0;
  std::uint64_t recordsProcessed = 0;
  std::uint64_t flops = 0;
  std::uint64_t sourceBytesRead = 0;
  std::uint64_t cacheBytesDeserialized = 0;
  /// Task attempts retried during this mode update (fault injection).
  std::uint64_t taskRetries = 0;
  /// Reduce-task record skew pooled over this mode update's shuffles.
  sparkle::RecordSkewStats reduceSkew;
};

struct IterationTelemetry {
  int iteration = 0;
  double fit = 0.0;
  /// NaN for iteration 1 (no previous fit exists); serialized as null.
  double fitDelta = 0.0;
  /// Norms of the column-weight vector after the iteration's last update.
  double lambdaL2 = 0.0;
  double lambdaMin = 0.0;
  double lambdaMax = 0.0;
  double simTimeSec = 0.0;
  double wallTimeSec = 0.0;
  std::vector<ModeTelemetry> modes;
};

/// One stage-log entry, flattened for the report (work counters, shuffle
/// volumes + skew). Every counter here sums over `stages` to the same
/// field of `totals`.
struct StageSummary {
  std::uint64_t stageId = 0;
  /// Shared by the stages of one shuffle operation (0 = not a shuffle).
  std::uint64_t shuffleOpId = 0;
  std::string scope;
  std::string label;
  std::string kind;
  std::uint64_t recordsProcessed = 0;
  std::uint64_t flops = 0;
  std::uint64_t sourceBytesRead = 0;
  std::uint64_t shuffleRecords = 0;
  std::uint64_t shuffleBytesRemote = 0;
  std::uint64_t shuffleBytesLocal = 0;
  std::uint64_t broadcastBytes = 0;
  std::uint64_t taskRetries = 0;
  std::uint64_t lostNodes = 0;
  std::uint64_t recomputedMapTasks = 0;
  std::uint64_t evictedCacheBlocks = 0;
  double simTimeSec = 0.0;
  double wallTimeSec = 0.0;
  sparkle::TaskSkewStats skew;
  /// Reduce-side record distribution (shuffle stages only).
  sparkle::RecordSkewStats reduceSkew;
};

/// Failure/recovery summary of the run: task retries plus node-loss
/// recovery work, overall and per metered scope (only scopes where
/// something actually failed appear).
struct FailureSummary {
  struct ScopeFailures {
    std::string scope;
    std::uint64_t taskRetries = 0;
    std::uint64_t lostNodes = 0;
    std::uint64_t recomputedMapTasks = 0;
    std::uint64_t evictedCacheBlocks = 0;
  };
  std::uint64_t taskRetries = 0;
  std::uint64_t lostNodes = 0;
  std::uint64_t recomputedMapTasks = 0;
  std::uint64_t evictedCacheBlocks = 0;
  std::vector<ScopeFailures> byScope;
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
  std::vector<IterationTelemetry> iterations;
  /// Every stage the log recorded during the run, in execution order.
  std::vector<StageSummary> stages;
  /// Stage-log totals at the end of the run; per-stage sums in `stages`
  /// match these exactly.
  sparkle::MetricsTotals totals;
  /// Retry/recovery rollup of the same stage snapshot.
  FailureSummary failures;

  std::string toJson() const;
};

/// Populate `stages` and `totals` from the stage log's current contents
/// (both from the same snapshot, so their sums always agree). Callers
/// wanting the report restricted to one run should reset the log
/// before that run.
void finalizeRunReport(const sparkle::StageLog& metrics,
                       RunReport& report);

}  // namespace cstf::cstf_core
