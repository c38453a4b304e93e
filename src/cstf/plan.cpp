#include "cstf/plan.hpp"

namespace cstf::cstf_core {

namespace {

const char* pathName(MttkrpPlan::Path p) {
  static const char* const kNames[] = {"join-chain", "broadcast-local",
                                       "sampled", "sequential"};
  return kNames[static_cast<int>(p)];
}

void refuseIf(bool incoherent, const std::string& flag,
              const std::string& other, const char* why) {
  if (incoherent) {
    throw Error(flag + " cannot be combined with " + other + " (" + why +
                ")");
  }
}

}  // namespace

std::string MttkrpPlan::describe() const {
  std::string s = pathName(path);
  switch (path) {
    case Path::kJoinChain:
    case Path::kSequential:
      return s + " " + backendName(backend);
    case Path::kBroadcastLocal:
    case Path::kSampled:
      return s + ", " + sparkle::localKernelName(kernel) + " kernel";
  }
  return s;
}

void MttkrpPlan::fillReport(RunReport& report) const {
  const bool runsBackend =
      path == Path::kJoinChain || path == Path::kSequential;
  report.backend = runsBackend ? backendName(backend) : pathName(path);
  report.solver = solverName(path == Path::kSampled ? Solver::kSketched
                                                    : Solver::kExact);
  report.localKernel = sparkle::localKernelName(kernel);
  report.plan = describe();
}

MttkrpPlan resolvePlan(const CpAlsOptions& opts,
                       const sparkle::ClusterConfig& cluster) {
  using Path = MttkrpPlan::Path;
  const bool sequential = opts.backend == Backend::kReference ||
                          opts.backend == Backend::kDimTree;
  // Only coo and qcoo leave the MTTKRP formulation open.
  const bool fixed = sequential || opts.backend == Backend::kBigtensor;
  const bool sketched = opts.solver == Solver::kSketched;
  const bool csf = cluster.localKernel == sparkle::LocalKernel::kCsf;
  const std::string backend =
      std::string("--backend ") + backendName(opts.backend);
  const std::string solver = "--solver sketched";
  const std::string kernel = std::string("--local-kernel ") +
                             sparkle::localKernelName(cluster.localKernel);
  const char* why = sequential ? "a sequential oracle has no distributed path"
                               : "BIGtensor is its own join chain";
  refuseIf(fixed && sketched, backend, solver, why);
  refuseIf(fixed && csf, backend, kernel, why);

  MttkrpPlan plan;
  plan.kernel = cluster.localKernel;
  if (sequential) {
    plan.path = Path::kSequential;
    plan.backend = opts.backend;
  } else if (sketched) {
    CSTF_CHECK(opts.sketch.samples >= 1, "sketch samples must be >= 1");
    CSTF_CHECK(opts.sketch.exactFitEvery >= 1,
               "sketch exact-fit cadence must be >= 1");
    plan.path = Path::kSampled;
  } else if (csf) {
    plan.path = Path::kBroadcastLocal;
  } else {
    plan.path = Path::kJoinChain;
    plan.backend = opts.backend;
  }
  return plan;
}

}  // namespace cstf::cstf_core
