#include "cstf/plan.hpp"

namespace cstf::cstf_core {

namespace {

const char* pathName(MttkrpPlan::Path p) {
  static const char* const kNames[] = {"join-chain", "broadcast-local",
                                       "sequential"};
  return kNames[static_cast<int>(p)];
}

}  // namespace

std::string MttkrpPlan::describe() const {
  std::string s = pathName(path);
  switch (path) {
    case Path::kJoinChain:
    case Path::kSequential:
      return s + " " + backendName(backend);
    case Path::kBroadcastLocal:
      return s + ", " + sparkle::localKernelName(kernel) + " kernel";
  }
  return s;
}

void MttkrpPlan::fillReport(RunReport& report) const {
  const bool runsBackend =
      path == Path::kJoinChain || path == Path::kSequential;
  report.backend = runsBackend ? backendName(backend) : pathName(path);
  report.localKernel = sparkle::localKernelName(kernel);
  report.plan = describe();
}

MttkrpPlan resolvePlan(const CpAlsOptions& opts,
                       const sparkle::ClusterConfig& cluster) {
  using Path = MttkrpPlan::Path;
  const bool sequential = opts.backend == Backend::kReference;
  // Only coo and qcoo leave the MTTKRP formulation open.
  const bool fixed = sequential || opts.backend == Backend::kBigtensor;
  const bool csf = cluster.localKernel == sparkle::LocalKernel::kCsf;
  if (fixed && csf) {
    throw Error(std::string("--backend ") + backendName(opts.backend) +
                " cannot be combined with --local-kernel csf (" +
                (sequential ? "a sequential oracle has no distributed path"
                            : "BIGtensor is its own join chain") +
                ")");
  }

  MttkrpPlan plan;
  plan.kernel = cluster.localKernel;
  if (sequential) {
    plan.path = Path::kSequential;
    plan.backend = opts.backend;
  } else if (csf) {
    plan.path = Path::kBroadcastLocal;
  } else {
    plan.path = Path::kJoinChain;
    plan.backend = opts.backend;
  }
  return plan;
}

}  // namespace cstf::cstf_core
