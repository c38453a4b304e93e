// Checkpoint/restart: CSTFCKP1 round-trips exactly (including non-finite
// values) and refuses malformed files by field and offset, the latest
// checkpoint in a directory wins, and a resumed CP-ALS run reproduces the
// uninterrupted trajectory — only under the plan that wrote it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "cstf/checkpoint.hpp"
#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

namespace cstf::cstf_core {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstf-ckpt-" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

la::Matrix patterned(std::size_t rows, std::size_t cols) {
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = double(i) * 1.25 - double(j) / 3.0;
    }
  }
  return m;
}

std::string bytesOf(const CpAlsCheckpoint& c) {
  std::stringstream ss;
  writeCheckpoint(ss, CheckpointView::of(c));
  return ss.str();
}

CpAlsCheckpoint readBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return readCheckpoint(in);
}

CpAlsCheckpoint sample() {
  CpAlsCheckpoint c;
  c.seed = 0xdeadbeef;
  c.iteration = 42;
  c.prevFit = 0.5;
  c.plan = "join-chain CSTF-COO";
  c.rank = 3;
  c.dims = {5, 4, 6};
  c.lambda = {1.5, 0.25, -2.0};
  c.factors = {patterned(5, 3), patterned(4, 3), patterned(6, 3)};
  return c;
}

TEST(Checkpoint, FactorPayloadRoundTripsBitExactly) {
  CpAlsCheckpoint c = sample();
  la::Matrix& m = c.factors[1];
  m(0, 0) = std::numeric_limits<double>::quiet_NaN();
  m(1, 1) = std::numeric_limits<double>::infinity();
  m(2, 2) = -0.0;
  const CpAlsCheckpoint back = readBytes(bytesOf(c));
  ASSERT_EQ(back.factors.size(), 3u);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      // Bit-level comparison so NaN and -0.0 survive too.
      const double got = back.factors[1](i, j);
      const double want = m(i, j);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "(" << i << "," << j << ")";
    }
  }
}

/// The error `bytes` is refused with; "" when it reads.
std::string refusal(const std::string& bytes) {
  try {
    readBytes(bytes);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Checkpoint, RejectsGarbageAndTruncation) {
  EXPECT_NE(refusal("definitely not a checkpoint").find("magic"),
            std::string::npos);
  const std::string bytes = bytesOf(sample());
  for (const std::size_t cut :
       {std::size_t(0), std::size_t(10), bytes.size() / 2,
        bytes.size() - 1}) {
    EXPECT_NE(refusal(bytes.substr(0, cut)), "") << "cut at " << cut;
  }
  // A byte past the last factor is refused too.
  EXPECT_NE(refusal(bytes + '\0').find("extra bytes"), std::string::npos);
  // Version 1 (CSTFMAT1-framed factors) is no longer read.
  std::string v1 = bytes;
  v1[8] = 1;
  EXPECT_NE(refusal(v1).find("version at byte 8"), std::string::npos);
  // An inflated count is refused by name and offset, before allocating:
  // lambda count follows magic, version, seed, iteration, rank, order,
  // 3 dims and prevFit (8 + 4 + 8 + 4 + 8 + 1 + 12 + 8 = 53 bytes).
  std::string inflated = bytes;
  const std::uint64_t huge = std::uint64_t(1) << 61;
  std::memcpy(&inflated[53], &huge, sizeof(huge));
  const std::string err = refusal(inflated);
  EXPECT_NE(err.find("CSTFCKP1 checkpoint: lambda count at byte 53"),
            std::string::npos)
      << err;
}

TEST(Checkpoint, CheckpointRoundTripsIncludingNaN) {
  CpAlsCheckpoint c = sample();
  c.prevFit = std::numeric_limits<double>::quiet_NaN();
  c.lambda[1] = std::numeric_limits<double>::quiet_NaN();

  const CpAlsCheckpoint back = readBytes(bytesOf(c));
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.iteration, c.iteration);
  EXPECT_TRUE(std::isnan(back.prevFit));
  EXPECT_EQ(back.plan, c.plan);
  EXPECT_EQ(back.rank, c.rank);
  EXPECT_EQ(back.dims, c.dims);
  ASSERT_EQ(back.lambda.size(), 3u);
  EXPECT_EQ(back.lambda[0], 1.5);
  EXPECT_TRUE(std::isnan(back.lambda[1]));
  EXPECT_EQ(back.lambda[2], -2.0);
  ASSERT_EQ(back.factors.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(back.factors[m], c.factors[m]);
  }
}

TEST(Checkpoint, LatestCheckpointInDirectoryWins) {
  const std::string dir = freshDir("latest");
  CpAlsCheckpoint c;
  c.rank = 2;
  c.dims = {3, 3};
  c.lambda = {1.0, 1.0};
  c.factors = {patterned(3, 2), patterned(3, 2)};
  for (int iter : {1, 2, 10}) {
    c.iteration = iter;
    saveCheckpoint(dir, CheckpointView::of(c));
  }
  const auto latest = loadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 10);
}

TEST(Checkpoint, IgnoresFileNamesPastTheIterationRange) {
  const std::string dir = freshDir("bigname");
  CpAlsCheckpoint c = sample();
  c.iteration = 3;
  saveCheckpoint(dir, CheckpointView::of(c));
  // A number no iteration can reach must not wrap into a small one and
  // win the newest-first order; such a file is not a checkpoint.
  c.iteration = 9;
  {
    std::ofstream out(dir + "/ckpt-99999999999.bin", std::ios::binary);
    out << bytesOf(c);
  }
  const auto latest = loadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 3);
}

TEST(Checkpoint, MissingOrEmptyDirectoryMeansFreshStart) {
  EXPECT_FALSE(loadLatestCheckpoint("").has_value());
  EXPECT_FALSE(
      loadLatestCheckpoint("/nonexistent/cstf/ckpt/dir").has_value());
  EXPECT_FALSE(loadLatestCheckpoint(freshDir("empty")).has_value());
}

TEST(Checkpoint, FallsBackToNewestReadableCheckpoint) {
  const std::string dir = freshDir("fallback");
  CpAlsCheckpoint c;
  c.rank = 2;
  c.dims = {3, 3};
  c.lambda = {1.0, 1.0};
  c.factors = {patterned(3, 2), patterned(3, 2)};
  for (int iter : {2, 5}) {
    c.iteration = iter;
    saveCheckpoint(dir, CheckpointView::of(c));
  }
  // The newest checkpoint is truncated (a crashed writer, a flaky disk):
  // resume must fall back to iteration 5, not fail the whole job.
  std::ofstream(dir + "/ckpt-000009.bin", std::ios::binary)
      << "CSTFCKP1 then junk";
  const auto latest = loadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 5);
}

TEST(Checkpoint, AllCorruptThrowsNamingTheNewest) {
  const std::string dir = freshDir("allcorrupt");
  std::ofstream(dir + "/ckpt-000001.bin", std::ios::binary) << "junk 1";
  const std::string newest = dir + "/ckpt-000004.bin";
  std::ofstream(newest, std::ios::binary) << "junk 4";
  try {
    loadLatestCheckpoint(dir);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(newest), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, CorruptCheckpointReportsItsPath) {
  const std::string dir = freshDir("corrupt");
  const std::string path = dir + "/ckpt-000003.bin";
  std::ofstream(path, std::ios::binary) << "CSTFCKP1 then junk";
  try {
    loadLatestCheckpoint(dir);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

class ResumeMatchesUninterrupted
    : public ::testing::TestWithParam<Backend> {};

TEST_P(ResumeMatchesUninterrupted, TrajectoryContinuesWhereItStopped) {
  const Backend backend = GetParam();
  auto t = tensor::generateRandom({{10, 12, 8}, 250, {}, 77});
  auto baseOpts = [&] {
    CpAlsOptions o;
    o.rank = 2;
    o.backend = backend;
    o.seed = 13;
    return o;
  };

  // The reference: 5 iterations, never interrupted.
  CpAlsResult full;
  {
    sparkle::Context ctx(sparkle::ClusterConfig{}, 2);
    CpAlsOptions o = baseOpts();
    o.maxIterations = 5;
    full = cpAls(ctx, t, o);
  }

  // The same job interrupted after iteration 2...
  const std::string dir =
      freshDir(std::string("resume-") + backendName(backend));
  {
    sparkle::Context ctx(sparkle::ClusterConfig{}, 2);
    CpAlsOptions o = baseOpts();
    o.maxIterations = 2;
    o.checkpointDir = dir;
    o.checkpointEvery = 2;
    cpAls(ctx, t, o);
  }
  // ...then resumed in a brand-new context up to iteration 5.
  sparkle::Context ctx(sparkle::ClusterConfig{}, 2);
  CpAlsOptions o = baseOpts();
  o.maxIterations = 5;
  o.checkpointDir = dir;
  o.resume = true;
  const CpAlsResult resumed = cpAls(ctx, t, o);

  EXPECT_EQ(resumed.report.resumedFromIteration, 2);
  ASSERT_EQ(resumed.report.iterations.size(), 3u);
  for (std::size_t i = 0; i < resumed.report.iterations.size(); ++i) {
    EXPECT_EQ(resumed.report.iterations[i].iteration, int(i) + 3);
  }
  ASSERT_EQ(resumed.factors.size(), full.factors.size());
  if (backend == Backend::kCoo) {
    // COO MTTKRP is a pure function of the tensor RDD and factors: the
    // resumed trajectory is bit-identical.
    for (std::size_t m = 0; m < full.factors.size(); ++m) {
      EXPECT_EQ(resumed.factors[m], full.factors[m]) << "mode " << m;
    }
    for (std::size_t i = 0; i < resumed.report.iterations.size(); ++i) {
      EXPECT_EQ(resumed.report.iterations[i].fit,
                full.report.iterations[i + 2].fit);
    }
    EXPECT_EQ(resumed.finalFit, full.finalFit);
  } else {
    // QCOO's queue ordering differs in a fresh engine, reassociating
    // reduce-side sums; the trajectory agrees to strict tolerance.
    for (std::size_t m = 0; m < full.factors.size(); ++m) {
      EXPECT_LT(resumed.factors[m].maxAbsDiff(full.factors[m]), 1e-15)
          << "mode " << m;
    }
    EXPECT_NEAR(resumed.finalFit, full.finalFit, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ResumeMatchesUninterrupted,
                         ::testing::Values(Backend::kCoo, Backend::kQcoo),
                         [](const auto& info) {
                           return info.param == Backend::kCoo
                                      ? std::string("Coo")
                                      : std::string("Qcoo");
                         });

/// The error cpAls(o) refuses to resume with; "" when it runs.
std::string resumeRefusal(const tensor::CooTensor& t, CpAlsOptions o,
                          sparkle::ClusterConfig cfg = {}) {
  sparkle::Context ctx(cfg, 2);
  o.maxIterations = 2;
  o.resume = true;
  try {
    cpAls(ctx, t, o);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Checkpoint, ResumeRejectsMismatchedMetadata) {
  auto t = tensor::generateRandom({{10, 12, 8}, 250, {}, 77});
  const std::string dir = freshDir("mismatch");
  CpAlsOptions o;
  o.rank = 2;
  o.seed = 13;
  o.backend = Backend::kCoo;
  o.checkpointDir = dir;
  {
    sparkle::Context ctx(sparkle::ClusterConfig{}, 2);
    CpAlsOptions first = o;
    first.maxIterations = 1;
    cpAls(ctx, t, first);
  }
  // A different init seed: resuming would silently diverge.
  CpAlsOptions otherSeed = o;
  otherSeed.seed = 14;
  EXPECT_NE(resumeRefusal(t, otherSeed), "");

  // The join-chain checkpoint under broadcast-local: refused, naming both
  // plans.
  sparkle::ClusterConfig csf;
  csf.localKernel = sparkle::LocalKernel::kCsf;
  const std::string err = resumeRefusal(t, o, csf);
  EXPECT_NE(err.find("'join-chain CSTF-COO'"), std::string::npos) << err;
  EXPECT_NE(err.find("'broadcast-local, csf kernel'"), std::string::npos)
      << err;
  // The same run's plan resumes.
  EXPECT_EQ(resumeRefusal(t, o), "");

  // An exported model records no plan, so it never resumes.
  const std::string modelDir = freshDir("mismatch-model");
  CpAlsCheckpoint model = *loadLatestCheckpoint(dir);
  model.plan.clear();
  saveCheckpoint(modelDir, CheckpointView::of(model));
  CpAlsOptions fromModel = o;
  fromModel.checkpointDir = modelDir;
  EXPECT_NE(resumeRefusal(t, fromModel).find("an exported model"),
            std::string::npos);
}

}  // namespace
}  // namespace cstf::cstf_core
