// The MTTKRP plan: every backend x kernel combination either
// resolves to one path that does what its name says, or is refused up
// front.
#include "cstf/plan.hpp"

#include <gtest/gtest.h>

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

CpAlsOptions alsOpts(Backend backend) {
  CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = 3;
  o.tolerance = 0.0;  // run every iteration; trajectories stay comparable
  o.seed = 9;
  o.backend = backend;
  return o;
}

/// The path a combination must take, written out independently of
/// resolvePlan; nullopt = refused.
std::optional<Path> expectedPath(Backend b, sparkle::LocalKernel k) {
  const bool open = b == Backend::kCoo || b == Backend::kQcoo;
  const bool csf = k == sparkle::LocalKernel::kCsf;
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
    case Path::kSequential: return "sequential";
  }
  return "?";
}

TEST(MttkrpPlan, DescribesTheResolvedPath) {
  CpAlsOptions o = alsOpts(Backend::kQcoo);
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

  o = alsOpts(Backend::kReference);
  plan = resolvePlan(o, cluster(sparkle::LocalKernel::kCoo));
  EXPECT_EQ(plan.describe(), "sequential reference");
}

TEST(MttkrpPlan, RefusalNamesBothFlags) {
  const CpAlsOptions o = alsOpts(Backend::kBigtensor);
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
    ref = cpAls(ctx, t, alsOpts(Backend::kReference));
  }

  int refused = 0;
  int ran = 0;
  for (Backend b : {Backend::kCoo, Backend::kQcoo, Backend::kBigtensor,
                    Backend::kReference}) {
    for (auto k : {sparkle::LocalKernel::kCoo, sparkle::LocalKernel::kCsf}) {
      const std::string what = std::string(backendName(b)) + "/" +
                               sparkle::localKernelName(k);
      const std::optional<Path> path = expectedPath(b, k);
      sparkle::Context ctx(cluster(k), 2);
      if (!path) {
        EXPECT_THROW(cpAls(ctx, t, alsOpts(b)), Error) << what;
        EXPECT_EQ(ctx.metrics().stageCount(), 0u) << what;
        ++refused;
        continue;
      }
      ++ran;
      const CpAlsResult res = cpAls(ctx, t, alsOpts(b));
      const RunReport& rep = res.report;
      EXPECT_EQ(rep.plan.rfind(pathPrefix(*path), 0), 0u)
          << what << " ran as '" << rep.plan << "'";

      // The report's counters tell which path really ran.
      EXPECT_EQ(rep.localKernelInvocations > 0,
                *path == Path::kBroadcastLocal)
          << what;
      EXPECT_EQ(ranStage(ctx, "qcoo-"),
                *path == Path::kJoinChain && b == Backend::kQcoo)
          << what;
      EXPECT_EQ(ctx.metrics().totals().shuffleOps == 0,
                *path == Path::kSequential)
          << what;

      for (std::size_t m = 0; m < t.order(); ++m) {
        EXPECT_LT(res.factors[m].maxAbsDiff(ref.factors[m]), 1e-12)
            << what << " mode " << m;
      }
      for (std::size_t r = 0; r < ref.lambda.size(); ++r) {
        EXPECT_NEAR(res.lambda[r], ref.lambda[r], 1e-12) << what;
      }
    }
  }
  EXPECT_EQ(ran, 6);
  EXPECT_EQ(refused, 2);
}

}  // namespace
}  // namespace cstf::cstf_core
