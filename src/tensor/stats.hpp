// Per-mode structural statistics of a sparse tensor.
//
// Skew in the per-index nonzero distribution drives straggler tasks in the
// distributed MTTKRP (the hottest join key lands in one partition) and is
// the defining property of the paper's real-world datasets versus synt3d.
// These statistics feed the dataset tables, the CLI's `info` command, and
// tests that pin the generator's realism.
#pragma once

#include <vector>

#include "tensor/coo_tensor.hpp"

namespace cstf::tensor {

struct ModeStats {
  Index dimension = 0;
  /// Indices of this mode that own at least one nonzero.
  Index usedIndices = 0;
  /// Largest number of nonzeros on a single index (the hot slice).
  std::size_t maxSliceNnz = 0;
  /// Mean nonzeros per used index.
  double meanSliceNnz = 0.0;
  /// Share of all nonzeros held by the heaviest 1% of used indices —
  /// a robust skew measure (0.01 = perfectly uniform .. 1 = one index).
  double top1PercentShare = 0.0;
  /// Gini coefficient of the per-used-index nonzero counts (0 = uniform).
  double gini = 0.0;
};

struct TensorStats {
  std::size_t nnz = 0;
  double density = 0.0;
  double frobeniusNorm = 0.0;
  double minValue = 0.0;
  double maxValue = 0.0;
  double meanValue = 0.0;
  std::vector<ModeStats> modes;  // one per mode
};

TensorStats analyzeTensor(const CooTensor& t);

/// Human-readable multi-line report.
std::string formatStats(const CooTensor& t, const TensorStats& s);

}  // namespace cstf::tensor
