// Incremental CP model maintenance over an append-only delta stream.
//
// A full CP-ALS sweep recomputes every row of every factor; a delta batch
// touches a vanishing fraction of them. The OnlineUpdater keeps the
// exported model warm and, per batch, re-solves only the factor rows whose
// slices the batch changed (the SALS/CDTF row-subset observation of Shin &
// Kang): row i of mode n solves the same normal equations full ALS uses,
//
//   a_i <- m_i * pinv(V_n),   V_n = hadamard of grams of the other modes,
//
// where m_i is the MTTKRP row restricted to the nonzeros of slice (n, i) of
// the accumulated tensor. The Gram matrices are cached across batches and
// maintained by rank-one corrections as rows change
// (G_n += a_i' a_i'^T - a_i a_i^T), so a batch costs O(touched slices)
// instead of O(nnz) — the ≥5x-vs-retrain bar bench_claims gates. This
// row-subset ALS is the one update path (DESIGN §16 records why the
// stochastic-gradient alternative was retired).
//
// The row solves drift from the exactly refit model over time, so the
// updater runs a periodic *exact-fit probe*: every `fitProbeEvery` batches
// it recomputes the grams from scratch and measures the true CP fit
// against the accumulated tensor, which both reports the drift and
// re-anchors the cached Grams.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/metrics_registry.hpp"
#include "la/matrix.hpp"
#include "serve/model.hpp"
#include "stream/delta_log.hpp"
#include "tensor/delta.hpp"

namespace cstf::stream {

enum class OnlineSolver { kAls };

struct OnlineUpdaterOptions {
  /// Nothing reads these two fields. perfbench/harness/serve.cpp sets
  /// them, and that file changes only with the benchmark; ROADMAP item 1
  /// deletes them together with those two lines.
  OnlineSolver solver = OnlineSolver::kAls;
  std::uint64_t seed = 0x5eed;
  /// Passes over the touched rows per batch (the rows of one batch
  /// interact through the Gram corrections, so >1 sweep tightens them).
  int alsSweeps = 2;
  /// Run the exact-fit probe every this many batches; 0 disables. The
  /// probe also rebuilds the cached Grams exactly, bounding drift.
  int fitProbeEvery = 0;
  /// Live instrument sink (`stream_*` series); nullptr disables.
  metrics::Registry* liveMetrics = &metrics::globalRegistry();
};

struct OnlineUpdateStats {
  std::uint64_t batchesApplied = 0;
  std::uint64_t entriesApplied = 0;
  /// Factor rows re-solved (across sweeps).
  std::uint64_t rowsRecomputed = 0;
  std::uint64_t newestSeq = 0;
  /// createdUnixMicros of the newest applied delta; 0 when unknown.
  std::uint64_t newestCreatedUnixMicros = 0;
  /// Last exact-fit probe result; NaN until a probe runs.
  double lastFitProbe = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t fitProbes = 0;
  double lastBatchSec = 0.0;
  double totalApplySec = 0.0;
};

class OnlineUpdater {
 public:
  /// `model` is the exported warm start; `base` the tensor it was trained
  /// on. An empty base updates from the delta entries alone: ALS then
  /// re-solves each touched row against that row's delta entries only,
  /// and the fit is judged against those entries. The base lifts the fit
  /// by far (DESIGN §16), so pass it.
  /// Not thread-safe; one owner thread applies.
  OnlineUpdater(serve::CpModel model, tensor::CooTensor base,
                OnlineUpdaterOptions opts = {});

  /// Apply one batch. Throws cstf::Error when the seq is not strictly
  /// beyond the newest applied or the dims disagree with the model.
  void apply(const tensor::Delta& d);

  /// Recompute the true CP fit against the accumulated tensor (and rebuild
  /// the cached Grams exactly). Updates stats().lastFitProbe.
  double exactFit();

  /// Export the current model (columns re-normalized, norms folded into
  /// lambda); finalFit is the last probe result (NaN if none ran).
  serve::CpModel snapshotModel() const;

  OnlineUpdateStats stats() const;
  const std::vector<Index>& dims() const { return dims_; }
  std::size_t rank() const { return rank_; }
  /// Accumulated base+deltas view (unsorted; value updates in place).
  const tensor::CooTensor& tensor() const { return accum_; }
  /// Working factor of mode m (unnormalized; lambda folded into mode 0).
  const la::Matrix& factor(ModeId m) const { return factors_[m]; }
  /// Cached Gram of mode m — maintained by rank-one corrections between
  /// probes; tests compare it against la::gram(factor) for drift.
  const la::Matrix& gram(ModeId m) const { return grams_[m]; }

 private:
  void indexEntry(std::size_t pos);
  void upsertEntries(const tensor::Delta& d,
                     std::vector<std::vector<Index>>& touched);
  /// Returns the factor rows it re-solved.
  std::uint64_t applyAls(const std::vector<std::vector<Index>>& touched);
  void rebuildGrams();

  OnlineUpdaterOptions opts_;
  std::vector<Index> dims_;
  std::size_t rank_ = 0;
  /// Unnormalized factors (lambda folded into mode 0 at construction).
  std::vector<la::Matrix> factors_;
  std::vector<double> lambda_;  // all ones; factors carry the scale
  std::vector<la::Matrix> grams_;

  tensor::CooTensor accum_;
  /// Coordinate -> position in accum_ nonzeros, for upserts.
  class CoordMap;
  std::shared_ptr<CoordMap> coords_;
  /// Per mode, per row: positions of the nonzeros in that slice.
  std::vector<std::vector<std::vector<std::uint32_t>>> rowIndex_;

  /// Everything stats() reports except the three counts below.
  OnlineUpdateStats state_;
  // Counted once each; the `stream_*` series are fed when liveMetrics is set.
  metrics::OwnedCounter batches_{opts_.liveMetrics,
                                 "stream_deltas_applied_total"};
  metrics::OwnedCounter entries_{opts_.liveMetrics,
                                 "stream_entries_applied_total"};
  metrics::OwnedCounter rows_{opts_.liveMetrics,
                              "stream_rows_recomputed_total"};
  metrics::OwnedGauge seqGauge_{opts_.liveMetrics, "stream_newest_seq"};
  metrics::OwnedGauge fitGauge_{opts_.liveMetrics, "cstf_online_fit"};
  metrics::OwnedGauge batchSecGauge_{opts_.liveMetrics,
                                     "stream_last_batch_sec"};
};

}  // namespace cstf::stream
