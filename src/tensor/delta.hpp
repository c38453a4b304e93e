// Append-only tensor delta batches — the unit of streaming ingestion.
//
// A Delta carries the nonzeros that arrived since the last batch: brand-new
// coordinates and value updates to existing ones, both encoded as upserts
// (the value *replaces* whatever the coordinate held; absent coordinates are
// appended). Batches are totally ordered by a monotone sequence number
// assigned by the producer; replaying base + deltas in sequence order
// materializes exactly the tensor a batch retrain would see, which is what
// makes the replay-equals-batch property testable.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/coo_tensor.hpp"

namespace cstf::tensor {

struct Delta {
  /// Monotone batch sequence number; 0 is reserved for "nothing applied".
  std::uint64_t seq = 0;
  /// Wall-clock creation time (microseconds since the Unix epoch), stamped
  /// by the producer; the freshness SLO measures now - this. 0 = unknown.
  std::uint64_t createdUnixMicros = 0;
  /// Mode sizes of the tensor the batch applies to. Deltas never grow the
  /// dims: an index outside them is rejected at apply time.
  std::vector<Index> dims;
  /// Upsert records: replace the value at an existing coordinate, append
  /// otherwise. A zero value is a tombstone (the nonzero is dropped).
  std::vector<Nonzero> entries;

  ModeId order() const { return static_cast<ModeId>(dims.size()); }

  /// Throws cstf::Error on order/dim mismatches, out-of-range indices or
  /// a value that is not finite.
  void validate() const;
};

/// Upsert `d` into `t` (same semantics the OnlineUpdater applies
/// incrementally): matching coordinates take the delta's value, new
/// coordinates are appended, zero values delete. The result is re-coalesced
/// into canonical sorted order.
void applyDelta(CooTensor& t, const Delta& d);

/// Replay `deltas` (must already be in ascending seq order) over a copy of
/// `base` — the "full retrain" view of the stream.
CooTensor materializeStream(const CooTensor& base,
                            const std::vector<Delta>& deltas);

}  // namespace cstf::tensor
