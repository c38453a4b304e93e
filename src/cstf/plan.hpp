// The MTTKRP execution plan: which formulation a CP-ALS run takes — one
// of the paper's join chains (COO §4.1, QCOO §4.2, BIGtensor §4.3), the
// DFacTo-style broadcast + CSF local kernel, or the sequential oracle.
// resolvePlan derives it once from CpAlsOptions::backend and
// sparkle::ClusterConfig::localKernel and is the only code that reads
// localKernel; a combination whose extra flag would change nothing is
// refused with a cstf::Error naming both flags (DESIGN.md §17).
#pragma once

#include <string>

#include "cstf/cp_als.hpp"
#include "sparkle/cluster.hpp"

namespace cstf::cstf_core {

struct MttkrpPlan {
  enum class Path { kJoinChain, kBroadcastLocal, kSequential };

  Path path = Path::kJoinChain;
  /// The join chain or sequential oracle that runs (kJoinChain and
  /// kSequential only; broadcast-local runs no backend of its own).
  Backend backend = Backend::kCoo;
  sparkle::LocalKernel kernel = sparkle::LocalKernel::kCoo;

  /// E.g. "join-chain CSTF-QCOO" or
  /// "broadcast-local, csf kernel".
  std::string describe() const;
  /// Stamp backend, localKernel and plan onto `report`.
  void fillReport(RunReport& report) const;
};

/// Resolve the path a cpAls(opts) run on a `cluster` context takes, or
/// throw cstf::Error naming the two flags of an incoherent combination.
MttkrpPlan resolvePlan(const CpAlsOptions& opts,
                       const sparkle::ClusterConfig& cluster);

}  // namespace cstf::cstf_core
