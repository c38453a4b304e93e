// Model export and load: a model is a CSTFCKP1 checkpoint. Exact
// round-trips (NaN-safe fields included), corruption rejection, atomic
// saves, and loadModel across exported models, checkpoint files, and
// checkpoint directories.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "common/binio.hpp"
#include "cstf/checkpoint.hpp"
#include "serve/model.hpp"

namespace cstf::serve {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstf-model-" + name;
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

CpModel sampleModel() {
  CpModel m;
  m.rank = 3;
  m.dims = {5, 4, 6};
  m.lambda = {1.5, 0.25, 2.0};
  m.factors = {patterned(5, 3), patterned(4, 3), patterned(6, 3)};
  m.finalFit = 0.875;
  return m;
}

/// Save `m` and load it back through the one model format (CSTFCKP1).
CpModel roundTrip(const CpModel& m, const std::string& name) {
  return loadModel(saveModel(freshDir(name) + "/m.cstf", m));
}

TEST(Model, RoundTripsExactly) {
  const CpModel m = sampleModel();
  const CpModel back = roundTrip(m, "roundtrip");
  EXPECT_EQ(back.rank, m.rank);
  EXPECT_EQ(back.dims, m.dims);
  EXPECT_EQ(back.lambda, m.lambda);
  EXPECT_EQ(back.finalFit, m.finalFit);
  ASSERT_EQ(back.factors.size(), m.factors.size());
  for (std::size_t k = 0; k < m.factors.size(); ++k) {
    EXPECT_EQ(back.factors[k], m.factors[k]) << "mode " << k;
  }
}

TEST(Model, NaNFieldsSurviveTheRoundTrip) {
  CpModel m = sampleModel();
  m.finalFit = std::numeric_limits<double>::quiet_NaN();
  m.lambda[1] = std::numeric_limits<double>::quiet_NaN();
  const CpModel back = roundTrip(m, "nan");
  EXPECT_TRUE(std::isnan(back.finalFit));
  EXPECT_EQ(back.lambda[0], 1.5);
  EXPECT_TRUE(std::isnan(back.lambda[1]));
  EXPECT_EQ(back.lambda[2], 2.0);
}

TEST(Model, ExportIsACheckpointThatNeverResumes) {
  const std::string path = saveModel(freshDir("export") + "/m.cstf",
                                     sampleModel());
  const cstf_core::CpAlsCheckpoint ck =
      readFile(path, cstf_core::readCheckpoint);
  EXPECT_EQ(ck.seed, 0u);
  EXPECT_EQ(ck.iteration, 0);
  EXPECT_EQ(ck.prevFit, 0.875);
  EXPECT_EQ(ck.plan, "");
}

TEST(Model, RejectsGarbageAndTruncation) {
  const std::string dir = freshDir("garbage");
  const std::string junk = dir + "/junk.cstf";
  std::ofstream(junk, std::ios::binary) << "this is not a model";
  EXPECT_THROW(loadModel(junk), Error);

  const std::string path = saveModel(dir + "/m.cstf", sampleModel());
  const auto size = fs::file_size(path);
  // Truncating anywhere — inside the header, the lambda block, or a
  // factor — must throw, never return a partial model.
  for (const std::uintmax_t cut :
       {std::uintmax_t(4), std::uintmax_t(20), size / 2, size - 1}) {
    const std::string cutPath = dir + "/cut.cstf";
    fs::copy_file(path, cutPath, fs::copy_options::overwrite_existing);
    fs::resize_file(cutPath, cut);
    EXPECT_THROW(loadModel(cutPath), Error) << "cut at " << cut;
  }
}

TEST(Model, RejectsAnotherFormatsMagic) {
  // The retired CSTFMDL1 model format, too: not a checkpoint.
  const std::string path = freshDir("magic") + "/old.cstf";
  std::ofstream(path, std::ios::binary) << "CSTFMDL1 rest of a model";
  try {
    loadModel(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not a CSTFCKP1 checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST(Model, WriteValidatesShape) {
  CpModel m = sampleModel();
  m.lambda.pop_back();
  EXPECT_THROW(saveModel(freshDir("shape") + "/m.cstf", m), Error);
}

TEST(Model, SaveIsAtomicAndCreatesParents) {
  const std::string dir = freshDir("save");
  const std::string path = dir + "/nested/export/model.cstf";
  const std::string finalPath = saveModel(path, sampleModel());
  EXPECT_EQ(finalPath, path);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const CpModel back = loadModel(path);
  EXPECT_EQ(back.dims, sampleModel().dims);
}

TEST(Model, LoadReportsThePathOnFailure) {
  const std::string dir = freshDir("badload");
  const std::string path = dir + "/broken.cstf";
  std::ofstream(path, std::ios::binary) << "CSTFCKP1 then junk";
  try {
    loadModel(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

cstf_core::CpAlsCheckpoint sampleCheckpoint() {
  cstf_core::CpAlsCheckpoint c;
  c.seed = 99;
  c.iteration = 7;
  c.prevFit = 0.5;
  c.rank = 3;
  c.dims = {5, 4, 6};
  c.lambda = {1.0, 2.0, 3.0};
  c.factors = {patterned(5, 3), patterned(4, 3), patterned(6, 3)};
  return c;
}

TEST(Model, FromCheckpointAdoptsPrevFit) {
  const CpModel m = loadModel(cstf_core::saveCheckpoint(
      freshDir("adopt"), cstf_core::CheckpointView::of(sampleCheckpoint())));
  EXPECT_EQ(m.rank, 3u);
  EXPECT_EQ(m.dims, (std::vector<Index>{5, 4, 6}));
  EXPECT_EQ(m.lambda, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(m.finalFit, 0.5);
  EXPECT_EQ(m.factors.size(), 3u);
}

TEST(Model, LoadTakesACheckpointFileOrDirectory) {
  const std::string dir = freshDir("load");

  // An exported model.
  const std::string modelPath = saveModel(dir + "/m.cstf", sampleModel());
  EXPECT_EQ(loadModel(modelPath).finalFit, 0.875);

  // A training checkpoint file.
  const std::string ckptPath = cstf_core::saveCheckpoint(
      dir + "/ckpts", cstf_core::CheckpointView::of(sampleCheckpoint()));
  EXPECT_EQ(loadModel(ckptPath).finalFit, 0.5);

  // A checkpoint directory: the newest checkpoint wins.
  cstf_core::CpAlsCheckpoint newer = sampleCheckpoint();
  newer.iteration = 9;
  newer.prevFit = 0.75;
  cstf_core::saveCheckpoint(dir + "/ckpts",
                            cstf_core::CheckpointView::of(newer));
  EXPECT_EQ(loadModel(dir + "/ckpts").finalFit, 0.75);

  // Junk is refused with a clear error.
  const std::string junkPath = dir + "/junk.bin";
  std::ofstream(junkPath, std::ios::binary) << "neither of those";
  EXPECT_THROW(loadModel(junkPath), Error);
  EXPECT_THROW(loadModel(dir + "/does-not-exist"), Error);
  fs::create_directories(dir + "/empty");
  EXPECT_THROW(loadModel(dir + "/empty"), Error);
}

}  // namespace
}  // namespace cstf::serve
