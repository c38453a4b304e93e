// Broadcast + partition-local MTTKRP: the kernel-overhaul formulation.
//
// Where mttkrpCoo threads every nonzero through an N-1-deep join chain,
// this path broadcasts the (small, driver-resident) factor matrices once
// per mode update and computes each partition's MTTKRP partials with the
// CSF kernel (csfMttkrp), leaving only the final reduceByKey on the wire.
// The kernel streams a cache-time compressed layout (tensor/csf.hpp)
// built once per cached tensor partition — the layout is keyed by the
// RDD's dataset id in Context's partition-artifact store and shared
// across all modes and iterations.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cstf/options.hpp"
#include "la/matrix.hpp"
#include "la/row.hpp"
#include "sparkle/context.hpp"
#include "sparkle/rdd.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace cstf::cstf_core {

/// Work accounting one csfMttkrp call reports back to the engine's task
/// counters and the run report.
struct LocalKernelStats {
  std::uint64_t flops = 0;
  std::uint64_t outputRows = 0;
};

/// Partition-local MTTKRP for `mode` over one partition's CSF layout:
/// returns locally-combined (idx[mode], row) partials with unique, strictly
/// increasing indices (mttkrpLocal asserts this per task and skips its
/// map-side combiner because of it). Sorted output keeps fault-injected
/// reruns byte-identical (task bodies must be idempotent; see
/// sparkle::runTask). `factors` holds one matrix per mode; factors[mode]
/// may be empty (it is never read). `rank` is mttkrpRank's.
std::vector<std::pair<Index, la::Row>> csfMttkrp(
    const tensor::CsfLayout& layout, const std::vector<la::Matrix>& factors,
    ModeId mode, std::size_t rank, LocalKernelStats& stats);

/// Host-side accounting for the kernel overhaul, accumulated across mode
/// updates and surfaced in the run report. Wall seconds, not simulated
/// time — the simulated cost flows through the task flop counters.
struct LocalMttkrpTelemetry {
  double kernelWallSec = 0.0;
  std::uint64_t kernelInvocations = 0;
  std::uint64_t kernelFlops = 0;
  double layoutBuildWallSec = 0.0;
  std::uint64_t layoutBuildPartitions = 0;
  std::uint64_t layoutBytes = 0;
};

/// Build (once) the per-partition CSF layouts for `X` and park them in the
/// context's partition-artifact store, keyed by X's dataset id. Idempotent:
/// when every partition already has a layout this returns without running
/// a stage, so calling it per mode update costs nothing after the first
/// build. Thread-safe and retry-safe (first-write-wins store).
void ensureCsfLayouts(sparkle::Context& ctx,
                      const sparkle::Rdd<tensor::Nonzero>& X, ModeId order,
                      LocalMttkrpTelemetry* telemetry = nullptr);

/// MTTKRP for `mode` via broadcast factors + the CSF kernel + one
/// reduceByKey.
la::Matrix mttkrpLocal(sparkle::Context& ctx,
                       const sparkle::Rdd<tensor::Nonzero>& X,
                       const std::vector<Index>& dims,
                       const std::vector<la::Matrix>& factors, ModeId mode,
                       const MttkrpOptions& opts,
                       LocalMttkrpTelemetry* telemetry = nullptr);

}  // namespace cstf::cstf_core
