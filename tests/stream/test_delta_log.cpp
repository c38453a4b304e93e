// CSTFDLT1 serde and DeltaLog semantics: exact round-trips, monotone
// sequence enforcement, corrupt-tail skip vs corrupt-middle refusal, and
// the upsert semantics applyDelta/materializeStream build replay on.
#include "stream/delta_log.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "tensor/delta.hpp"

namespace cstf::stream {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstf-dlog-" + name;
  fs::remove_all(dir);
  return dir;
}

tensor::Delta sampleDelta(std::uint64_t seq, double valueShift = 0.0) {
  tensor::Delta d;
  d.seq = seq;
  d.createdUnixMicros = 1700000000000000ULL + seq;
  d.dims = {6, 5, 4};
  d.entries = {
      tensor::makeNonzero3(0, 1, 2, 1.5 + valueShift),
      tensor::makeNonzero3(5, 4, 3, -2.25 + valueShift),
      tensor::makeNonzero3(2, 0, 0, 0.125 + valueShift),
  };
  return d;
}

TEST(DeltaSerde, RoundTripsExactly) {
  tensor::Delta d = sampleDelta(7);
  d.entries[1].val = -0.0;
  std::stringstream ss;
  writeDelta(ss, d);
  const tensor::Delta back = readDelta(ss);
  EXPECT_EQ(back.seq, d.seq);
  EXPECT_EQ(back.createdUnixMicros, d.createdUnixMicros);
  EXPECT_EQ(back.dims, d.dims);
  ASSERT_EQ(back.entries.size(), d.entries.size());
  for (std::size_t i = 0; i < d.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].order, d.entries[i].order);
    for (ModeId m = 0; m < d.entries[i].order; ++m) {
      EXPECT_EQ(back.entries[i].idx[m], d.entries[i].idx[m]);
    }
    // Bit-level so -0.0 survives.
    const double got = back.entries[i].val;
    const double want = d.entries[i].val;
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << i;
  }
}

TEST(DeltaSerde, RejectsGarbageAndTruncation) {
  std::stringstream garbage;
  garbage << "this is not a delta batch at all";
  EXPECT_THROW(readDelta(garbage), Error);

  std::stringstream full;
  writeDelta(full, sampleDelta(3));
  std::string bytes = full.str();
  bytes.resize(bytes.size() - 7);  // cut mid-entry
  std::stringstream truncated(bytes);
  EXPECT_THROW(readDelta(truncated), Error);
}

TEST(DeltaSerde, RejectsOutOfRangeIndices) {
  tensor::Delta d = sampleDelta(1);
  d.entries[0].idx[0] = 6;  // == dims[0]
  std::stringstream ss;
  EXPECT_THROW(writeDelta(ss, d), Error);
}

TEST(DeltaSerde, WriterRefusesNonFiniteValues) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    tensor::Delta d = sampleDelta(1);
    d.entries[1].val = v;
    std::stringstream ss;
    EXPECT_THROW(writeDelta(ss, d), Error);
    EXPECT_THROW(DeltaLog(freshDir("nonfinite")).append(d), Error);
  }
}

TEST(DeltaLog, AppendsAndReplaysInOrder) {
  DeltaLog log(freshDir("replay"));
  tensor::Delta unstamped = sampleDelta(1);
  unstamped.createdUnixMicros = 0;
  log.append(unstamped);
  log.append(sampleDelta(2, 0.5));
  log.append(sampleDelta(5, 1.0));  // gaps in seq are fine (batching)
  EXPECT_EQ(log.newestSeq(), 5u);

  const DeltaReadResult all = log.readAfter(0);
  EXPECT_EQ(all.skippedCorruptTail, 0u);
  ASSERT_EQ(all.deltas.size(), 3u);
  EXPECT_EQ(all.deltas[0].seq, 1u);
  EXPECT_EQ(all.deltas[1].seq, 2u);
  EXPECT_EQ(all.deltas[2].seq, 5u);
  // The writer stamps missing creation times and keeps given ones.
  EXPECT_GT(all.deltas[0].createdUnixMicros, 0u);
  EXPECT_EQ(all.deltas[1].createdUnixMicros, 1700000000000002ULL);

  const DeltaReadResult tail = log.readAfter(2);
  ASSERT_EQ(tail.deltas.size(), 1u);
  EXPECT_EQ(tail.deltas[0].seq, 5u);
}

TEST(DeltaLog, RejectsNonMonotoneAppend) {
  DeltaLog log(freshDir("monotone"));
  log.append(sampleDelta(4));
  EXPECT_THROW(log.append(sampleDelta(4)), Error);  // duplicate
  EXPECT_THROW(log.append(sampleDelta(3)), Error);  // behind
  EXPECT_THROW(log.append(sampleDelta(0)), Error);  // reserved
  log.append(sampleDelta(5));
  EXPECT_EQ(log.newestSeq(), 5u);
}

TEST(DeltaLog, SkipsCorruptTailButKeepsPrefix) {
  const std::string dir = freshDir("tail");
  DeltaLog log(dir);
  log.append(sampleDelta(1));
  log.append(sampleDelta(2));
  const std::string last = log.append(sampleDelta(3));
  // Truncate the newest batch, as a torn copy would.
  fs::resize_file(last, fs::file_size(last) / 2);

  const DeltaReadResult r = log.readAfter(0);
  EXPECT_EQ(r.skippedCorruptTail, 1u);
  ASSERT_EQ(r.deltas.size(), 2u);
  EXPECT_EQ(r.deltas.back().seq, 2u);
}

TEST(DeltaLog, RefusesCorruptBatchInTheMiddle) {
  const std::string dir = freshDir("middle");
  DeltaLog log(dir);
  log.append(sampleDelta(1));
  const std::string middle = log.append(sampleDelta(2));
  log.append(sampleDelta(3));
  fs::resize_file(middle, 4);
  // A hole in history must be a hard error, not a silent skip.
  EXPECT_THROW(log.readAfter(0), Error);
}

TEST(DeltaLog, RejectsHeaderNameSeqMismatch) {
  const std::string dir = freshDir("mismatch");
  DeltaLog log(dir);
  log.append(sampleDelta(1));
  const std::string second = log.append(sampleDelta(2));
  // Relabel batch 2 as batch 9: the header inside still says 2.
  fs::rename(second, fs::path(dir) / "delta-00000009.bin");
  EXPECT_THROW(log.readAfter(0), Error);
}

TEST(DeltaLog, IgnoresFileNameSeqBeyondUint64) {
  const std::string dir = freshDir("bigname");
  DeltaLog log(dir);
  const std::string first = log.append(sampleDelta(1));
  // 2^64 + 1 must not wrap to seq 1 and replay batch 1 twice.
  fs::copy_file(first, fs::path(dir) / "delta-18446744073709551617.bin");
  const DeltaReadResult r = log.readAfter(0);
  EXPECT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(log.newestSeq(), 1u);
}

TEST(DeltaApply, UpsertReplacesAppendsAndDeletes) {
  tensor::CooTensor t({4, 4, 4},
                      {tensor::makeNonzero3(0, 0, 0, 1.0),
                       tensor::makeNonzero3(1, 2, 3, 2.0),
                       tensor::makeNonzero3(3, 3, 3, 4.0)});
  tensor::Delta d;
  d.seq = 1;
  d.dims = {4, 4, 4};
  d.entries = {
      tensor::makeNonzero3(1, 2, 3, 9.0),  // value update (replace)
      tensor::makeNonzero3(2, 2, 2, 5.0),  // new nonzero
      tensor::makeNonzero3(3, 3, 3, 0.0),  // tombstone
  };
  applyDelta(t, d);
  ASSERT_EQ(t.nnz(), 3u);
  double updated = 0.0;
  bool sawTombstone = false;
  for (const tensor::Nonzero& nz : t.nonzeros()) {
    if (nz.idx[0] == 1 && nz.idx[1] == 2 && nz.idx[2] == 3) updated = nz.val;
    if (nz.idx[0] == 3 && nz.idx[1] == 3 && nz.idx[2] == 3) {
      sawTombstone = true;
    }
  }
  EXPECT_DOUBLE_EQ(updated, 9.0) << "upsert must replace, not sum";
  EXPECT_FALSE(sawTombstone) << "zero value must delete the nonzero";
}

TEST(DeltaApply, MaterializeStreamEnforcesSeqOrder) {
  tensor::CooTensor base({4, 4, 4}, {tensor::makeNonzero3(0, 0, 0, 1.0)});
  std::vector<tensor::Delta> deltas = {sampleDelta(2), sampleDelta(1)};
  for (auto& d : deltas) d.dims = {4, 4, 4};
  for (auto& d : deltas) {
    for (auto& e : d.entries) {
      for (ModeId m = 0; m < 3; ++m) e.idx[m] %= 4;
    }
  }
  EXPECT_THROW(materializeStream(base, deltas), Error);
}

}  // namespace
}  // namespace cstf::stream
