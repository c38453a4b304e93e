// Selector for the per-partition (map-side) compute kernel a task runs.
//
// An engine-level enum set on ClusterConfig. The kernels themselves live
// in cstf/kernels/ — sparkle only names them, so the engine layer stays
// tensor-agnostic.
#pragma once

#include <string>

#include "common/error.hpp"

namespace cstf::sparkle {

/// How a task computes its partition-local MTTKRP contribution.
///   kCoo — row-at-a-time over the raw COO records (the historical
///          behaviour every existing code path had; reference kernel).
///   kCsf — compressed-sparse-fiber layout built once at cache time and
///          reused across modes/iterations; the R-wide inner loop
///          accumulates fiber-contiguous partials (DFacTo/SPLATT style).
enum class LocalKernel { kCoo, kCsf };

inline const char* localKernelName(LocalKernel k) {
  switch (k) {
    case LocalKernel::kCoo: return "coo";
    case LocalKernel::kCsf: return "csf";
  }
  return "?";
}

inline LocalKernel localKernelFromName(const std::string& s) {
  if (s == "coo") return LocalKernel::kCoo;
  if (s == "csf") return LocalKernel::kCsf;
  throw Error("invalid value '" + s +
              "' for --local-kernel (expected coo|csf)");
}

}  // namespace cstf::sparkle
