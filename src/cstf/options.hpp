// Shared backend selector and knobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace cstf::cstf_core {

/// Which MTTKRP/CP-ALS implementation runs.
///   kCoo       — CSTF-COO (paper §4.1)
///   kQcoo      — CSTF-QCOO queue strategy (paper §4.2)
///   kBigtensor — GigaTensor-style baseline (paper §4.3); 3rd-order only,
///                normally run with ExecutionMode::kHadoop
///   kReference — sequential oracle (tests)
///   kDimTree   — sequential dimension-tree sweep (Kaya & Uçar [14]):
///                identical results to kReference with O(N log N) instead
///                of O(N^2) vector ops per nonzero per iteration
enum class Backend { kCoo, kQcoo, kBigtensor, kReference, kDimTree };

inline const char* backendName(Backend b) {
  switch (b) {
    case Backend::kCoo: return "CSTF-COO";
    case Backend::kQcoo: return "CSTF-QCOO";
    case Backend::kBigtensor: return "BIGtensor";
    case Backend::kReference: return "reference";
    case Backend::kDimTree: return "dimension-tree";
  }
  return "?";
}

inline Backend backendFromName(const std::string& s) {
  if (s == "coo" || s == "CSTF-COO") return Backend::kCoo;
  if (s == "qcoo" || s == "CSTF-QCOO") return Backend::kQcoo;
  if (s == "bigtensor" || s == "BIGtensor") return Backend::kBigtensor;
  if (s == "reference") return Backend::kReference;
  if (s == "dimtree" || s == "dimension-tree") return Backend::kDimTree;
  throw Error("invalid value '" + s +
              "' for --backend (expected "
              "coo|qcoo|bigtensor|reference|dimtree)");
}

/// How each mode's least-squares system is formed.
///   kExact    — full MTTKRP over every nonzero (historical behaviour)
///   kSketched — leverage-score–sampled MTTKRP (CP-ARLS-LEV style): each
///               mode update runs over s ≪ nnz importance-sampled nonzeros,
///               with exact-fit evaluation every SketchOptions::exactFitEvery
///               iterations so convergence reporting stays honest
enum class Solver { kExact, kSketched };

inline const char* solverName(Solver s) {
  switch (s) {
    case Solver::kExact: return "exact";
    case Solver::kSketched: return "sketched";
  }
  return "?";
}

inline Solver solverFromName(const std::string& s) {
  if (s == "exact") return Solver::kExact;
  if (s == "sketched") return Solver::kSketched;
  throw Error("invalid value '" + s +
              "' for --solver (expected exact|sketched)");
}

/// Knobs of the sketched solver (ignored under Solver::kExact).
struct SketchOptions {
  /// Target sampled nonzeros per MTTKRP, split evenly across partitions.
  /// Partitions with fewer distinct nonzeros still draw their full budget
  /// (sampling is with replacement), so the estimator stays unbiased.
  std::size_t samples = 16384;
  /// Seed of the sampling streams. Each (iteration, mode, partition) draws
  /// from its own deterministic Pcg32 stream derived from this, so runs are
  /// bit-reproducible and task retries are idempotent.
  std::uint64_t seed = 0x5eed;
  /// Run the last mode of every k-th iteration as an exact MTTKRP and
  /// compute the true fit from it (the SPLATT trick needs the exact M).
  /// Other iterations report fit = NaN (serialized as null).
  int exactFitEvery = 5;
  /// Mixing weight toward the uniform distribution inside each partition's
  /// sampling distribution — keeps every nonzero reachable (q > 0) when
  /// leverage weights underflow, bounding the importance weights.
  double uniformMix = 0.1;
  /// On exact-fit iterations, additionally run a sampled last-mode MTTKRP
  /// and record epsilon = ||M_sketch - M_exact||_F / ||M_exact||_F — the
  /// estimator-quality series (cstf_sketch_epsilon).
  bool measureEpsilon = true;
};

struct MttkrpOptions {
  /// Partitions for shuffles (0 = the context's default parallelism).
  std::size_t numPartitions = 0;
  /// Spark-style map-side combining in the final reduceByKey.
  bool mapSideCombine = true;
};

}  // namespace cstf::cstf_core
