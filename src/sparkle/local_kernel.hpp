// Selector for how a CP-ALS run computes its MTTKRP: through a join chain
// or through the partition-local CSF kernel.
//
// An engine-level enum set on ClusterConfig; cstf_core::resolvePlan is the
// only code that reads it. The kernel itself lives in cstf/kernels/ —
// sparkle only names it, so the engine layer stays tensor-agnostic.
#pragma once

#include <string>

#include "common/error.hpp"

namespace cstf::sparkle {

/// Which MTTKRP formulation a run takes (`--local-kernel`).
///   kCoo — no local kernel: the backend's join chain (COO, QCOO or
///          BIGtensor) threads every nonzero through the shuffles.
///   kCsf — broadcast factors + the CSF local kernel over a compressed
///          layout built once at cache time and reused across
///          modes/iterations (DFacTo/SPLATT style).
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
