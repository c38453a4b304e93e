#include "serve/model.hpp"

#include <filesystem>
#include <ostream>

#include "common/artifacts.hpp"
#include "common/binio.hpp"
#include "common/error.hpp"

namespace cstf::serve {

namespace fs = std::filesystem;

namespace {

/// A checkpoint is a complete model state; prevFit becomes finalFit.
CpModel modelFromCheckpoint(cstf_core::CpAlsCheckpoint ck) {
  CpModel m;
  m.rank = ck.rank;
  m.dims = std::move(ck.dims);
  m.lambda = std::move(ck.lambda);
  m.factors = std::move(ck.factors);
  m.finalFit = ck.prevFit;
  return m;
}

}  // namespace

std::string saveModel(const std::string& path, const CpModel& m) {
  CSTF_CHECK(!path.empty(), "model path must not be empty");
  const fs::path final(path);
  if (final.has_parent_path()) fs::create_directories(final.parent_path());
  writeFileAtomic(path, [&](std::ostream& out) {
    // Seed 0, iteration 0, an empty plan: an export, not a resume point.
    cstf_core::writeCheckpoint(out,
                               {0, 0, m.finalFit, {}, m.lambda, m.factors});
  });
  return path;
}

CpModel loadModel(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    auto ck = cstf_core::loadLatestCheckpoint(path);
    CSTF_CHECK(ck.has_value(),
               "no checkpoint to serve in directory '" + path + "'");
    return modelFromCheckpoint(std::move(*ck));
  }
  return modelFromCheckpoint(readFile(path, cstf_core::readCheckpoint));
}

}  // namespace cstf::serve
