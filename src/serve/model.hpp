// The CP model the serving layer loads, and its export.
//
// A checkpoint (cstf/checkpoint.hpp) captures mid-run ALS state for
// restart; a model is the *converged product*: rank, dims, column weights
// lambda, and the unit-normalized factor matrices, plus the final fit as
// provenance. Both are one file format, CSTFCKP1: an exported model is a
// checkpoint with seed 0, iteration 0, prevFit = finalFit and an empty
// plan, so it never resumes. The serve engine folds lambda into the mode-0
// factor and precomputes per-row norms at load, so the file stores the
// factors raw and stays a faithful export of CpAlsResult.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cstf/checkpoint.hpp"
#include "la/matrix.hpp"

namespace cstf::serve {

struct CpModel {
  std::size_t rank = 0;
  std::vector<Index> dims;
  /// Column weights from CP-ALS normalization; one per rank component.
  std::vector<double> lambda;
  /// One column-normalized factor matrix per mode (dims[m] x rank).
  std::vector<la::Matrix> factors;
  /// Fit of the run that produced this model; NaN when never computed.
  double finalFit = std::numeric_limits<double>::quiet_NaN();
};

/// Export `m` as a CSTFCKP1 file at `path` (creating parent directories
/// if needed), written to a temporary name and renamed so a crash
/// mid-write never leaves a truncated model behind. Returns the final
/// path.
std::string saveModel(const std::string& path, const CpModel& m);

/// Serve from whatever the operator has on hand: a CSTFCKP1 file (an
/// exported model or a training checkpoint), or a checkpoint *directory*
/// (the latest checkpoint wins, skipping unreadable ones). Throws
/// cstf::Error when `path` is none of these.
CpModel loadModel(const std::string& path);

}  // namespace cstf::serve
