// The MTTKRP plan: every backend x solver x kernel combination either
// resolves to one path that does what its name says, or is refused up
// front.
#include "cstf/plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "sparkle/sparkle.hpp"
#include "tensor/generator.hpp"

namespace cstf::cstf_core {
namespace {

using Path = MttkrpPlan::Path;

sparkle::ClusterConfig cluster(sparkle::LocalKernel kernel) {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  cfg.localKernel = kernel;
  return cfg;
}

CpAlsOptions alsOpts(Backend backend, Solver solver) {
  CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = 3;
  o.tolerance = 0.0;  // run every iteration; trajectories stay comparable
  o.seed = 9;
  o.backend = backend;
  o.solver = solver;
  o.sketch.samples = 200;
  o.sketch.exactFitEvery = 2;
  return o;
}

/// The path a combination must take, written out independently of
/// resolvePlan; nullopt = refused.
std::optional<Path> expectedPath(Backend b, Solver s,
                                 sparkle::LocalKernel k) {
  const bool open = b == Backend::kCoo || b == Backend::kQcoo;
  const bool csf = k == sparkle::LocalKernel::kCsf;
  if (s == Solver::kSketched) {
    return open ? std::optional<Path>(Path::kSampled) : std::nullopt;
  }
  if (open) return csf ? Path::kBroadcastLocal : Path::kJoinChain;
  if (csf) return std::nullopt;
  return b == Backend::kBigtensor ? Path::kJoinChain : Path::kSequential;
}

bool ranStage(const sparkle::Context& ctx, const std::string& prefix) {
  for (const auto& s : ctx.metrics().stages()) {
    if (s.label.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

const char* pathPrefix(Path p) {
  switch (p) {
    case Path::kJoinChain: return "join-chain";
    case Path::kBroadcastLocal: return "broadcast-local";
    case Path::kSampled: return "sampled";
    case Path::kSequential: return "sequential";
  }
  return "?";
}

TEST(MttkrpPlan, DescribesTheResolvedPath) {
  CpAlsOptions o = alsOpts(Backend::kQcoo, Solver::kExact);
  auto plan = resolvePlan(o, cluster(sparkle::LocalKernel::kCoo));
  EXPECT_EQ(plan.path, Path::kJoinChain);
  EXPECT_EQ(plan.describe(), "join-chain CSTF-QCOO");

  // QCOO with the CSF kernel never builds a queue: the plan must not
  // claim the QCOO backend.
  plan = resolvePlan(o, cluster(sparkle::LocalKernel::kCsf));
  EXPECT_EQ(plan.path, Path::kBroadcastLocal);
  EXPECT_EQ(plan.describe(), "broadcast-local, csf kernel");
  RunReport report;
  plan.fillReport(report);
  EXPECT_EQ(report.plan, "broadcast-local, csf kernel");
  EXPECT_EQ(report.backend, "broadcast-local");
  EXPECT_EQ(report.localKernel, "csf");
  EXPECT_EQ(report.solver, "exact");

  o = alsOpts(Backend::kDimTree, Solver::kExact);
  plan = resolvePlan(o, cluster(sparkle::LocalKernel::kCoo));
  EXPECT_EQ(plan.describe(), "sequential dimension-tree");
}

TEST(MttkrpPlan, RefusalNamesBothFlags) {
  const CpAlsOptions o = alsOpts(Backend::kBigtensor, Solver::kExact);
  try {
    resolvePlan(o, cluster(sparkle::LocalKernel::kCsf));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--backend"), std::string::npos) << what;
    EXPECT_NE(what.find("--local-kernel csf"), std::string::npos) << what;
  }
}

TEST(MttkrpPlan, EveryCombinationIsRefusedOrDoesWhatItSays) {
  auto t = tensor::generateZipf({20, 18, 16}, 300, 1.1, 21);
  CpAlsResult ref;
  {
    sparkle::Context ctx(cluster(sparkle::LocalKernel::kCoo), 2);
    ref = cpAls(ctx, t, alsOpts(Backend::kReference, Solver::kExact));
  }

  int refused = 0;
  int ran = 0;
  for (Backend b : {Backend::kCoo, Backend::kQcoo, Backend::kBigtensor,
                    Backend::kReference, Backend::kDimTree}) {
    for (Solver s : {Solver::kExact, Solver::kSketched}) {
      for (auto k : {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
        const std::string what = std::string(backendName(b)) + "/" +
                                 solverName(s) + "/" +
                                 sparkle::localKernelName(k);
        const std::optional<Path> path = expectedPath(b, s, k);
        sparkle::Context ctx(cluster(k), 2);
        if (!path) {
          EXPECT_THROW(cpAls(ctx, t, alsOpts(b, s)), Error) << what;
          EXPECT_EQ(ctx.metrics().stageCount(), 0u) << what;
          ++refused;
          continue;
        }
        ++ran;
        const CpAlsResult res = cpAls(ctx, t, alsOpts(b, s));
        const RunReport& rep = res.report;
        EXPECT_EQ(rep.plan.rfind(pathPrefix(*path), 0), 0u)
            << what << " ran as '" << rep.plan << "'";

        // The report's counters tell which path really ran.
        const bool kernelPath =
            *path == Path::kBroadcastLocal || *path == Path::kSampled;
        EXPECT_EQ(rep.localKernelInvocations > 0, kernelPath) << what;
        EXPECT_EQ(rep.sketchedMttkrps > 0, *path == Path::kSampled) << what;
        EXPECT_EQ(ranStage(ctx, "qcoo-"),
                  *path == Path::kJoinChain && b == Backend::kQcoo)
            << what;
        EXPECT_EQ(ctx.metrics().totals().shuffleOps == 0,
                  *path == Path::kSequential)
            << what;

        if (*path == Path::kSampled) {
          // Iterations 2 and 3 (cadence 2, plus the last) are exact.
          ASSERT_EQ(rep.iterations.size(), 3u) << what;
          EXPECT_FALSE(rep.iterations[0].fitExact) << what;
          for (std::size_t i = 1; i < 3; ++i) {
            EXPECT_TRUE(rep.iterations[i].fitExact) << what;
            EXPECT_TRUE(std::isfinite(rep.iterations[i].fit)) << what;
          }
          continue;
        }
        for (std::size_t m = 0; m < t.order(); ++m) {
          EXPECT_LT(res.factors[m].maxAbsDiff(ref.factors[m]), 1e-12)
              << what << " mode " << m;
        }
        for (std::size_t r = 0; r < ref.lambda.size(); ++r) {
          EXPECT_NEAR(res.lambda[r], ref.lambda[r], 1e-12) << what;
        }
      }
    }
  }
  EXPECT_EQ(ran, 11);
  EXPECT_EQ(refused, 9);
}

}  // namespace
}  // namespace cstf::cstf_core
