// Durable append-only log of tensor delta batches.
//
// One CSTFDLT1 file per batch, named delta-<seq>.bin inside a log
// directory. Appends stream through the shared atomic-write path
// (writeFileAtomic: temp file + rename), so a reader polling the
// directory never observes a half-written batch: a file either has its
// final name and is complete, or does not exist yet. The only way a corrupt file appears is external truncation
// (a torn copy, a partial rsync) — readers skip such a *tail* with a
// warning (the data simply has not fully arrived, same policy as
// loadLatestCheckpoint) but refuse a corrupt file in the *middle* of the
// sequence, because replaying past a hole would silently diverge from the
// producer's history. Sequence numbers are strictly monotone: appends below
// or at the newest on-disk seq are rejected, as are files whose header seq
// disagrees with their name.
//
// File format (common/binio.hpp framing, host little-endian; the reader
// refuses an entry count that cannot fit the file, an entry whose order
// differs from the batch's, an index outside its mode and a value that is
// not finite):
//   "CSTFDLT1"  magic
//   u32  version (1)
//   u64  seq
//   u64  createdUnixMicros
//   u8   order
//   u32  dims[order]
//   u64  nEntries
//   nEntries x (u8 order, u32 idx[order], f64 val)   — the Nonzero codec
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/delta.hpp"

namespace cstf::stream {

void writeDelta(std::ostream& out, const tensor::Delta& d);
tensor::Delta readDelta(std::istream& in);

/// Result of a log scan. `skippedCorruptTail` counts trailing files that
/// failed to parse and were skipped with a warning (0 on a clean log).
struct DeltaReadResult {
  std::vector<tensor::Delta> deltas;
  std::size_t skippedCorruptTail = 0;
};

class DeltaLog {
 public:
  /// Opens (and creates, for writers) the log directory.
  explicit DeltaLog(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Append one batch as delta-<seq>.bin (atomic). Stamps
  /// `createdUnixMicros` with the current wall clock when the producer left
  /// it 0. The seq must be strictly greater than every seq already in the
  /// log; throws cstf::Error otherwise. Returns the file path.
  std::string append(const tensor::Delta& d);

  /// Every batch with seq > afterSeq, in ascending seq order. Skips a
  /// corrupt tail with a warning; throws on a corrupt file that is not the
  /// tail (a hole in history) or a header/filename seq mismatch.
  DeltaReadResult readAfter(std::uint64_t afterSeq = 0) const;

  /// Newest seq present on disk (0 for an empty log).
  std::uint64_t newestSeq() const;

 private:
  std::string dir_;
};

}  // namespace cstf::stream
