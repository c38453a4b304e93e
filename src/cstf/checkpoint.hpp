// Driver-level CP-ALS checkpoint/restart, and the one on-disk format of
// factor state: a served model is a checkpoint too (serve/model.hpp).
//
// Lineage recovery (sparkle's node-loss handling) protects a *running* job;
// checkpoints protect against losing the driver itself — the case where a
// long factorization must resume rather than restart from iteration 1.
// Every K iterations the driver persists the complete ALS state (factors,
// lambda, previous fit, iteration, seed, plan) to one binary file per
// checkpoint; resuming restores that state and continues the trajectory
// bit-identically (the ALS step is a pure function of the restored state
// and the immutable tensor).
//
// File format (common/binio.hpp framing, host little-endian):
//   "CSTFCKP1"  magic
//   u32  version (2; version-1 files are refused)
//   u64  seed           — factor-initialization seed, validated on resume
//   i32  iteration      — completed iterations at save time
//   u64  rank
//   u8   order
//   u32  dims[order]
//   f64  prevFit        — NaN-safe (raw IEEE bits; NaN before iteration 1)
//   u64  |lambda| (= rank), f64 lambda[rank]
//   u64  |plan|, plan bytes — MttkrpPlan::describe(); "" in a model export
//   f64  factor[m][dims[m] x rank], row-major, for m = 0..order-1
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "la/matrix.hpp"

namespace cstf::cstf_core {

struct CpAlsCheckpoint {
  std::uint64_t seed = 0;
  /// Iterations completed when this state was captured; resume continues
  /// at iteration + 1.
  int iteration = 0;
  /// Fit after `iteration` (the resumed loop's previous fit). NaN when
  /// fit computation was disabled or no iteration has completed.
  double prevFit = 0.0;
  /// The plan that produced the state; resume refuses any other. Empty
  /// for an exported model (serve::saveModel), which never resumes.
  std::string plan;
  std::size_t rank = 0;
  std::vector<Index> dims;
  std::vector<double> lambda;
  std::vector<la::Matrix> factors;
};

/// A checkpoint's contents, borrowed so writers never copy the factors.
/// Rank is lambda.size(); dims are the factors' row counts.
struct CheckpointView {
  std::uint64_t seed = 0;
  int iteration = 0;
  double prevFit = 0.0;
  std::string_view plan;
  const std::vector<double>& lambda;
  const std::vector<la::Matrix>& factors;

  static CheckpointView of(const CpAlsCheckpoint& c) {
    return {c.seed, c.iteration, c.prevFit, c.plan, c.lambda, c.factors};
  }
};

void writeCheckpoint(std::ostream& out, const CheckpointView& c);
CpAlsCheckpoint readCheckpoint(std::istream& in);

/// Persist `c` as <dir>/ckpt-NNNNNN.bin (creating `dir` if needed),
/// through writeFileAtomic (common/artifacts.hpp), so a crash mid-write
/// never leaves a truncated checkpoint behind. Returns the final path.
std::string saveCheckpoint(const std::string& dir, const CheckpointView& c);

/// Load the checkpoint with the highest iteration from `dir`; nullopt when
/// the directory does not exist or holds no checkpoint files.
std::optional<CpAlsCheckpoint> loadLatestCheckpoint(const std::string& dir);

}  // namespace cstf::cstf_core
