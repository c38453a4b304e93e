// Synthetic sparse tensor generation.
//
// Provides (a) fully parameterized random tensors and (b) named presets
// that are ~1/1000-scale analogs of the paper's Table 5 datasets. Real-world
// tensors (delicious, nell, flickr) have heavy-tailed mode distributions
// (user/tag/noun popularity), reproduced here with per-mode Zipf sampling;
// synt3d is uniform, matching the paper's synthetic tensor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "tensor/delta.hpp"

namespace cstf::tensor {

struct GeneratorOptions {
  std::vector<Index> dims;
  std::size_t nnz = 0;
  /// Zipf exponent per mode; 0 (or missing) = uniform for that mode.
  std::vector<double> zipfSkew;
  std::uint64_t seed = 42;
  /// Values are uniform in (0, valueMax].
  double valueMax = 1.0;
  std::string name = "synthetic";
};

/// Draw `nnz` coordinates (duplicates coalesced, so the result can have
/// slightly fewer nonzeros) with values uniform in (0, valueMax].
CooTensor generateRandom(const GeneratorOptions& opts);

/// Table 5 analog presets (see DESIGN.md §2 for the substitution argument):
///   "delicious3d-s"  3-order, skewed, max mode 17.3K, ~140K nnz
///   "nell1-s"        3-order, skewed, max mode 25.5K, ~144K nnz
///   "synt3d-s"       3-order, uniform, max mode 15K, ~200K nnz
///   "flickr-s"       4-order, skewed, max mode 28K, ~112K nnz
///   "delicious4d-s"  4-order, skewed, max mode 17.3K, ~140K nnz
/// `scale` multiplies both the dimensions and the nonzero count (use < 1
/// for faster test runs). Throws cstf::Error for unknown names, and for a
/// scale that is not finite, not > 0, or pushes a mode past Index's range.
CooTensor paperAnalog(const std::string& name, double scale = 1.0);

/// The generator options paperAnalog(name, scale) draws from; validates
/// the same way without generating anything.
GeneratorOptions paperAnalogOptions(const std::string& name, double scale);

/// All preset names in Table 5 order.
std::vector<std::string> paperAnalogNames();

/// Convenience wrapper for skew studies: every mode draws from Zipf with
/// the same exponent `skew` (0 = uniform). The hot-key ablation benches
/// and the skew-mitigation tests build their inputs through this knob.
CooTensor generateZipf(const std::vector<Index>& dims, std::size_t nnz,
                       double skew, std::uint64_t seed = 42);

/// A tensor split for streaming: a base tensor plus append batches.
struct ZipfStream {
  CooTensor base;
  /// Disjoint delta batches with seq 1..N (createdUnixMicros left 0 for
  /// the log writer to stamp). Replaying all of them over `base` yields
  /// exactly generateZipf(dims, nnz, skew, seed).
  std::vector<Delta> deltas;
};

/// The streaming knob on generateZipf: draw the same tensor the plain call
/// would produce, then deterministically (seeded) assign each nonzero to
/// the base (1 - deltaFraction of them, in expectation) or to one of
/// `deltaBatches` disjoint append batches. Benches and tests use this to
/// compare online replay against a full retrain on an identical stream.
ZipfStream generateZipfStream(const std::vector<Index>& dims, std::size_t nnz,
                              double skew, std::uint64_t seed,
                              std::size_t deltaBatches,
                              double deltaFraction = 0.25);

/// The seeded split itself, applicable to any tensor (generateZipfStream is
/// this over generateZipf; the CLI uses it to stream the paper analogs):
/// each nonzero lands in one of `deltaBatches` disjoint append batches with
/// probability `deltaFraction`, else in the base. Both sides are kept
/// non-empty; replaying the deltas over the base recovers `full` exactly.
ZipfStream splitIntoStream(const CooTensor& full, std::size_t deltaBatches,
                           double deltaFraction, std::uint64_t seed);

/// Build a low-rank ground-truth tensor from `rank` random Gaussian
/// factors. With `nnz >= prod(dims)` every cell is emitted and the tensor
/// is exactly rank-`rank` (plus optional noise) — CP-ALS must then reach a
/// near-perfect fit, the end-to-end oracle used by tests. With smaller
/// `nnz`, `nnz` distinct random cells are kept (a *masked* tensor, which is
/// no longer exactly low-rank when missing cells read as zero).
CooTensor generateLowRank(const std::vector<Index>& dims, std::size_t rank,
                          std::size_t nnz, std::uint64_t seed,
                          double noise = 0.0);

}  // namespace cstf::tensor
