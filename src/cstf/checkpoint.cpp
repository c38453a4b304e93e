#include "cstf/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include "common/artifacts.hpp"
#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"

namespace cstf::cstf_core {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kCkptMagic = "CSTFCKP1";
constexpr std::uint32_t kCkptVersion = 2;

}  // namespace

void writeCheckpoint(std::ostream& out, const CheckpointView& c) {
  CSTF_CHECK(!c.factors.empty() && c.factors.size() <= kMaxOrder,
             "a checkpoint needs one factor per mode");
  const std::size_t rank = c.lambda.size();
  std::vector<Index> dims;
  for (const la::Matrix& f : c.factors) {
    CSTF_CHECK(f.cols() == rank,
               "checkpoint factors need one column per lambda weight");
    dims.push_back(Index(f.rows()));
  }
  BinWriter w(out);
  w.magic(kCkptMagic, kCkptVersion);
  w.put<std::uint64_t>(c.seed);
  w.put<std::int32_t>(c.iteration);
  w.put<std::uint64_t>(rank);
  w.dims(dims);
  w.put<double>(c.prevFit);
  w.put<std::uint64_t>(rank);
  w.bytes(c.lambda.data(), rank * sizeof(double));
  w.put<std::uint64_t>(c.plan.size());
  w.bytes(c.plan.data(), c.plan.size());
  for (const la::Matrix& f : c.factors) {
    w.bytes(f.data(), f.rows() * f.cols() * sizeof(double));
  }
}

CpAlsCheckpoint readCheckpoint(std::istream& in) {
  BinReader r(in, "CSTFCKP1 checkpoint");
  r.expectMagic(kCkptMagic, kCkptVersion);
  CpAlsCheckpoint c;
  c.seed = r.get<std::uint64_t>("seed");
  c.iteration = r.get<std::int32_t>("iteration");
  // Resume continues at iteration + 1.
  if (c.iteration < 0 || c.iteration == std::numeric_limits<int>::max()) {
    r.fail("iteration", "out of range");
  }
  const auto rank = r.get<std::uint64_t>("rank");
  c.dims = r.dims();
  c.prevFit = r.get<double>("prevFit");
  if (r.count(sizeof(double), "lambda count") != rank) {
    r.fail("lambda count", "does not match rank " + std::to_string(rank));
  }
  c.rank = static_cast<std::size_t>(rank);
  c.lambda.resize(c.rank);
  r.bytes(c.lambda.data(), c.rank * sizeof(double), "lambda");
  c.plan.resize(r.count(1, "plan length"));
  r.bytes(c.plan.data(), c.plan.size(), "plan");
  c.factors.reserve(c.dims.size());
  for (const Index d : c.dims) {
    // rank * 8 cannot wrap: rank lambdas already fit in the file.
    r.need(d, c.rank * sizeof(double), "factor");
    la::Matrix& f = c.factors.emplace_back(d, c.rank);
    r.bytes(f.data(), f.rows() * f.cols() * sizeof(double), "factor");
  }
  r.finish();
  return c;
}

std::string saveCheckpoint(const std::string& dir, const CheckpointView& c) {
  CSTF_CHECK(!dir.empty(), "checkpoint directory must not be empty");
  fs::create_directories(dir);
  const std::string path =
      (fs::path(dir) / strprintf("ckpt-%06d.bin", c.iteration)).string();
  writeFileAtomic(path, [&](std::ostream& out) { writeCheckpoint(out, c); });
  return path;
}

std::optional<CpAlsCheckpoint> loadLatestCheckpoint(const std::string& dir) {
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return std::nullopt;
  std::vector<std::pair<int, fs::path>> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    // A number past int range cannot name an iteration; such a file is
    // not a checkpoint of this format.
    const std::optional<std::uint64_t> iter = parseNumberedName(
        entry.path().filename().string(), "ckpt-", ".bin");
    if (iter && *iter <= std::uint64_t(std::numeric_limits<int>::max())) {
      candidates.emplace_back(int(*iter), entry.path());
    }
  }
  if (candidates.empty()) return std::nullopt;
  // Newest first; a checkpoint that was truncated by a crashed writer or a
  // flaky disk should cost the iterations since the previous save, not the
  // whole resume (serving leans on this load path too).
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::string newestError;
  for (const auto& [iter, path] : candidates) {
    try {
      CpAlsCheckpoint ck = readFile(path.string(), readCheckpoint);
      if (!newestError.empty()) {
        CSTF_LOG_WARN("falling back to checkpoint %s (iteration %d)",
                      path.string().c_str(), iter);
      }
      return ck;
    } catch (const Error& e) {
      CSTF_LOG_WARN("skipping unreadable checkpoint %s", e.what());
      if (newestError.empty()) newestError = e.what();
    }
  }
  throw Error(strprintf("no readable checkpoint in '%s' (%zu file(s) "
                        "unreadable); newest failure: %s",
                        dir.c_str(), candidates.size(),
                        newestError.c_str()));
}

}  // namespace cstf::cstf_core
