// Broadcast + partition-local MTTKRP: the kernel-overhaul formulation.
//
// Where mttkrpCoo threads every nonzero through an N-1-deep join chain,
// this path broadcasts the (small, driver-resident) factor matrices once
// per mode update and computes each partition's MTTKRP partials with a
// pluggable LocalMttkrpKernel, leaving only the final reduceByKey on the
// wire. The CSF kernel additionally reuses a cache-time compressed layout
// (tensor/csf.hpp) built once per cached tensor partition — the layout is
// keyed by the RDD's dataset id in Context's partition-artifact store and
// shared across all modes and iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.hpp"
#include "cstf/kernels/local_kernel.hpp"
#include "cstf/options.hpp"
#include "la/matrix.hpp"
#include "sparkle/context.hpp"
#include "sparkle/rdd.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::cstf_core {

/// The factor matrices as one broadcastable (serde-capable) value;
/// la::Matrix itself has no serde. The driver empties the target mode's
/// matrix before broadcasting (the kernel never reads it), so the metered
/// broadcast volume is exactly the bytes a real cluster would ship.
struct FactorPack {
  std::vector<la::Matrix> factors;

  void serialize(Writer& w) const {
    w.writeRaw(static_cast<std::uint32_t>(factors.size()));
    for (const la::Matrix& m : factors) {
      w.writeRaw(static_cast<std::uint32_t>(m.rows()));
      w.writeRaw(static_cast<std::uint32_t>(m.cols()));
      w.writeBytes(m.data(), m.rows() * m.cols() * sizeof(double));
    }
  }
  static FactorPack deserialize(Reader& r) {
    FactorPack p;
    const auto n = r.readRaw<std::uint32_t>();
    p.factors.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto rows = r.readRaw<std::uint32_t>();
      const auto cols = r.readRaw<std::uint32_t>();
      la::Matrix m(rows, cols);
      r.readBytes(m.data(), static_cast<std::size_t>(rows) * cols *
                                sizeof(double));
      p.factors.push_back(std::move(m));
    }
    return p;
  }
  std::size_t serializedSize() const {
    std::size_t n = sizeof(std::uint32_t);
    for (const la::Matrix& m : factors) {
      n += 2 * sizeof(std::uint32_t) + m.rows() * m.cols() * sizeof(double);
    }
    return n;
  }
};

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

/// Kernel work of one stage, kept in per-partition slots. A task body
/// writes only its own partition's slot, so a retried or recomputed attempt
/// replaces the discarded one instead of adding to it (the contract of
/// sparkle::runTaskWithRetries); the caller sums the slots once the stage
/// has committed.
class KernelTally {
 public:
  struct Work {
    std::uint64_t wallNanos = 0;
    std::uint64_t flops = 0;
    /// Input records the kernel consumed.
    std::uint64_t records = 0;
    /// Committed tasks (1 per written slot).
    std::uint64_t tasks = 0;
  };

  explicit KernelTally(std::size_t partitions) : slots_(partitions) {}

  void commit(std::size_t partition, Work w) {
    w.tasks = 1;
    slots_[partition] = w;
  }

  Work sum() const {
    Work total;
    for (const Work& w : slots_) {
      total.wallNanos += w.wallNanos;
      total.flops += w.flops;
      total.records += w.records;
      total.tasks += w.tasks;
    }
    return total;
  }

 private:
  std::vector<Work> slots_;
};

/// Build (once) the per-partition CSF layouts for `X` and park them in the
/// context's partition-artifact store, keyed by X's dataset id. Idempotent:
/// when every partition already has a layout this returns without running
/// a stage, so calling it per mode update costs nothing after the first
/// build. Thread-safe and retry-safe (first-write-wins store).
void ensureCsfLayouts(sparkle::Context& ctx,
                      const sparkle::Rdd<tensor::Nonzero>& X, ModeId order,
                      LocalMttkrpTelemetry* telemetry = nullptr);

/// MTTKRP for `mode` via broadcast factors + the ClusterConfig::localKernel
/// kernel + one reduceByKey.
la::Matrix mttkrpLocal(sparkle::Context& ctx,
                       const sparkle::Rdd<tensor::Nonzero>& X,
                       const std::vector<Index>& dims,
                       const std::vector<la::Matrix>& factors, ModeId mode,
                       const MttkrpOptions& opts,
                       LocalMttkrpTelemetry* telemetry = nullptr);

}  // namespace cstf::cstf_core
