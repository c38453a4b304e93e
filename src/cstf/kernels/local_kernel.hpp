// LocalMttkrpKernel: the per-partition (map-side) MTTKRP compute,
// factored out of the shuffle plumbing so implementations can be swapped
// (`--local-kernel coo|csf`) and ablated against each other.
//
// A kernel consumes one partition's nonzeros plus the full factor set and
// returns that partition's locally-combined MTTKRP partials as
// (target-mode index, rank-R row) pairs, sorted by index. Sorting makes
// the output deterministic regardless of the kernel's internal
// accumulation structure, which keeps fault-injected reruns byte-identical
// (task bodies must be idempotent; see sparkle::runTask).
//
//   * kCoo — row-at-a-time over the raw COO records, arithmetically
//     identical to tensor::referenceMttkrp (per-row accumulation in
//     nonzero order, fixed factors multiplied in ascending-mode order):
//     the reference implementation the CSF kernel is validated against.
//   * kCsf — streams the cache-time tensor::CsfLayout: an R-wide inner
//     loop accumulates each fiber's contribution against the innermost
//     factor, then one Hadamard-scaled combine per fiber folds it into
//     the slice row. For order 3 this is DFacTo's two-SpMV formulation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "la/row.hpp"
#include "sparkle/local_kernel.hpp"
#include "tensor/csf.hpp"

namespace cstf::cstf_core {

/// Work accounting one compute() call reports back to the engine's task
/// counters and the run report.
struct LocalKernelStats {
  std::uint64_t flops = 0;
  std::uint64_t entriesProcessed = 0;
  std::uint64_t outputRows = 0;
};

class LocalMttkrpKernel {
 public:
  virtual ~LocalMttkrpKernel() = default;

  virtual sparkle::LocalKernel kind() const = 0;
  const char* name() const { return sparkle::localKernelName(kind()); }

  /// Partition-local MTTKRP for `mode`: returns locally-combined
  /// (idx[mode], row) partials with unique, strictly increasing indices
  /// (mttkrpLocal asserts this per task and skips its map-side combiner
  /// because of it). `layout` is the partition's cache-time CSF layout
  /// when one exists; a kernel that needs it builds a transient one when
  /// it is null (standalone use — the driver always passes the cached
  /// layout). `factors` holds one
  /// matrix per mode; factors[mode] may be empty (it is never read).
  virtual std::vector<std::pair<Index, la::Row>> compute(
      const std::vector<tensor::Nonzero>& nonzeros,
      const tensor::CsfLayout* layout,
      const std::vector<la::Matrix>& factors, ModeId mode,
      LocalKernelStats& stats) const = 0;
};

/// The process-wide immutable kernel instance for `kind` (kernels are
/// stateless, so one instance serves every thread).
const LocalMttkrpKernel& localKernelFor(sparkle::LocalKernel kind);

}  // namespace cstf::cstf_core
