#include "stream/delta_log.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

#include "common/artifacts.hpp"
#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"

namespace cstf::stream {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kDeltaMagic = "CSTFDLT1";
constexpr std::uint32_t kDeltaVersion = 1;

std::string deltaFileName(std::uint64_t seq) {
  return strprintf("delta-%08llu.bin", static_cast<unsigned long long>(seq));
}

/// All delta files in the log, sorted ascending by filename seq.
std::vector<std::pair<std::uint64_t, fs::path>> listDeltaFiles(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    // A name whose number overflows uint64 is not a delta batch.
    const auto seq = parseNumberedName(entry.path().filename().string(),
                                       "delta-", ".bin");
    if (seq.has_value()) files.emplace_back(*seq, entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::uint64_t nowUnixMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// `d` as CSTFDLT1, stamped `createdUnixMicros` in place of its own.
void writeStamped(std::ostream& out, const tensor::Delta& d,
                  std::uint64_t createdUnixMicros) {
  d.validate();
  BinWriter w(out);
  w.magic(kDeltaMagic, kDeltaVersion);
  w.put<std::uint64_t>(d.seq);
  w.put<std::uint64_t>(createdUnixMicros);
  w.dims(d.dims);
  w.put<std::uint64_t>(d.entries.size());
  for (const tensor::Nonzero& nz : d.entries) {
    w.put<std::uint8_t>(nz.order);
    for (ModeId m = 0; m < nz.order; ++m) w.put<std::uint32_t>(nz.idx[m]);
    w.put<double>(nz.val);
  }
}

}  // namespace

void writeDelta(std::ostream& out, const tensor::Delta& d) {
  writeStamped(out, d, d.createdUnixMicros);
}

tensor::Delta readDelta(std::istream& in) {
  BinReader r(in, "CSTFDLT1 delta batch");
  r.expectMagic(kDeltaMagic, kDeltaVersion);
  tensor::Delta d;
  d.seq = r.get<std::uint64_t>("seq");
  d.createdUnixMicros = r.get<std::uint64_t>("createdUnixMicros");
  d.dims = r.dims();
  const auto order = static_cast<ModeId>(d.dims.size());
  const std::uint64_t nEntries =
      r.count(1 + order * sizeof(std::uint32_t) + sizeof(double),
              "entry count");
  d.entries.resize(nEntries);
  for (tensor::Nonzero& nz : d.entries) {
    nz.order = r.get<std::uint8_t>("entry order");
    if (nz.order != order) r.fail("entry order", "differs from the batch's");
    for (ModeId m = 0; m < order; ++m) {
      nz.idx[m] = r.index(d.dims[m], "entry index");
    }
    nz.val = r.finite("entry value");
  }
  r.finish();
  return d;
}

DeltaLog::DeltaLog(std::string dir) : dir_(std::move(dir)) {
  CSTF_CHECK(!dir_.empty(), "delta log needs a directory");
  fs::create_directories(dir_);
}

std::uint64_t DeltaLog::newestSeq() const {
  const auto files = listDeltaFiles(dir_);
  return files.empty() ? 0 : files.back().first;
}

std::string DeltaLog::append(const tensor::Delta& d) {
  CSTF_CHECK(d.seq > 0, "delta seq 0 is reserved");
  const std::uint64_t newest = newestSeq();
  CSTF_CHECK(d.seq > newest,
             strprintf("delta log %s: seq %llu not past newest %llu "
                       "(sequence numbers are strictly monotone)",
                       dir_.c_str(),
                       static_cast<unsigned long long>(d.seq),
                       static_cast<unsigned long long>(newest)));
  const std::uint64_t stamp =
      d.createdUnixMicros != 0 ? d.createdUnixMicros : nowUnixMicros();
  const std::string path = (fs::path(dir_) / deltaFileName(d.seq)).string();
  writeFileAtomic(path,
                  [&](std::ostream& out) { writeStamped(out, d, stamp); });
  return path;
}

DeltaReadResult DeltaLog::readAfter(std::uint64_t afterSeq) const {
  DeltaReadResult result;
  struct Scanned {
    std::uint64_t seq;
    fs::path path;
    std::optional<tensor::Delta> delta;
    std::string error;
  };
  std::vector<Scanned> scanned;
  for (const auto& [seq, path] : listDeltaFiles(dir_)) {
    if (seq <= afterSeq) continue;
    Scanned s{seq, path, std::nullopt, {}};
    try {
      std::ifstream in(path, std::ios::binary);
      CSTF_CHECK(in.good(), "cannot open " + path.string());
      s.delta = readDelta(in);
    } catch (const Error& e) {
      s.delta.reset();
      s.error = e.what();
    }
    // A batch that read back fine but carries the wrong seq was relabeled,
    // not torn (truncation never rewrites the header at the front), so this
    // is a hard error even at the tail — tolerating it would replay the
    // producer's history under the wrong order.
    if (s.delta.has_value() && s.delta->seq != seq) {
      throw Error(strprintf(
          "delta log %s: header seq %llu disagrees with file name %s "
          "(out-of-order or relabeled batch)",
          dir_.c_str(), static_cast<unsigned long long>(s.delta->seq),
          path.filename().string().c_str()));
    }
    scanned.push_back(std::move(s));
  }
  // Unreadable files are tolerable only as a tail: the batch has simply not
  // fully arrived yet. A hole in the middle would make replay diverge from
  // the producer's history, so it is a hard error.
  std::size_t end = scanned.size();
  while (end > 0 && !scanned[end - 1].delta.has_value()) --end;
  for (std::size_t i = end; i < scanned.size(); ++i) {
    CSTF_LOG_WARN("delta log %s: skipping corrupt tail %s: %s", dir_.c_str(),
                  scanned[i].path.filename().string().c_str(),
                  scanned[i].error.c_str());
    ++result.skippedCorruptTail;
  }
  for (std::size_t i = 0; i < end; ++i) {
    if (!scanned[i].delta.has_value()) {
      throw Error(strprintf(
          "delta log %s: corrupt batch %s before newer readable batches "
          "(replay would skip history): %s",
          dir_.c_str(), scanned[i].path.filename().string().c_str(),
          scanned[i].error.c_str()));
    }
    result.deltas.push_back(std::move(*scanned[i].delta));
  }
  return result;
}

}  // namespace cstf::stream
