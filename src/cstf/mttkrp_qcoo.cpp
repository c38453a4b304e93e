#include "cstf/mttkrp_qcoo.hpp"

namespace cstf::cstf_core {

namespace {

/// Calls emit(k, x) for each k < R, x being the tensor value times the
/// k-th entries of the queued rows, multiplied in queue order: element k
/// of the record's contribution (the Hadamard product of its rows, scaled
/// by the value) to its output row.
template <typename Emit>
void collapse(const QRecord& rec, Emit emit) {
  CSTF_ASSERT(rec.queueSize() != 0, "QCOO queue must not be empty");
  const std::uint32_t len = rec.rank();
  const std::size_t depth = rec.queueSize();
  const double* rows = rec.row(0);  // the queued rows sit back to back
  for (std::uint32_t k = 0; k < len; ++k) {
    double x = rows[k] * rec.nz.val;
    for (std::size_t i = 1; i < depth; ++i) x *= rows[i * len + k];
    emit(k, x);
  }
}

}  // namespace

QcooEngine::QcooEngine(sparkle::Context& ctx,
                       const sparkle::Rdd<tensor::Nonzero>& X,
                       const std::vector<Index>& dims,
                       const std::vector<la::Matrix>& initialFactors,
                       const MttkrpOptions& opts)
    : ctx_(ctx),
      dims_(dims),
      order_(static_cast<ModeId>(dims.size())),
      opts_(opts) {
  CSTF_CHECK(order_ >= 2, "QCOO needs order >= 2");
  CSTF_CHECK(initialFactors.size() == order_, "need one factor per mode");
  rank_ = initialFactors[0].cols();
  for (const la::Matrix& f : initialFactors) {
    CSTF_CHECK(f.cols() == rank_, "factors must share rank");
  }

  sparkle::ScopedStage scope(ctx_.metrics(), "QCOO-init");

  // Key every nonzero by mode 0, then join modes 0..N-2 in turn, each join
  // enqueueing its row and re-keying to the next mode to join. The final
  // key is mode N-1 — the join mode of the first MTTKRP.
  auto q = X.map([](const tensor::Nonzero& nz) {
    std::pair<Index, QRecord> kv(nz.idx[0], QRecord{});
    kv.second.nz = nz;
    return kv;
  });
  for (ModeId m = 0; m + 1 < order_; ++m) {
    auto factorRdd =
        factorToRdd(ctx_, initialFactors[m], opts_.numPartitions);
    const ModeId nextKey = static_cast<ModeId>(
        m + 2 < order_ ? m + 1 : order_ - 1);
    q = q.join(
        factorRdd,
        [nextKey](std::pair<Index, QRecord>& kv, const la::Row& row) {
          kv.second.enqueue(row);
          kv.first = kv.second.nz.idx[nextKey];
        },
        0.0, nullptr, "qcoo-init-join");
  }
  q.cache();
  q_ = std::move(q);
}

la::Matrix QcooEngine::mttkrpNext(const std::vector<la::Matrix>& factors) {
  const ModeId n = nextMode_;
  const ModeId jm = joinMode();
  CSTF_CHECK(factors.size() == order_, "need one factor per mode");
  CSTF_CHECK(factors[jm].cols() == rank_, "rank changed mid-run");

  // STAGES 1-2: single join with the freshest factor (mode n-1, updated
  // by the previous MTTKRP — or mode N-1's initial value on the first
  // call), in the same task as the queue update: enqueue the joined row,
  // dequeue the stalest (the row of the mode being updated now), and
  // re-key to mode n — which is both this MTTKRP's reduce key and the next
  // MTTKRP's join key. Each record is updated where the join reads it.
  auto factorRdd = factorToRdd(ctx_, factors[jm], opts_.numPartitions);
  auto advanced = q_->join(
      factorRdd,
      [n](std::pair<Index, QRecord>& kv, const la::Row& row) {
        kv.second.advance(row);
        kv.first = kv.second.nz.idx[n];
      },
      0.0, nullptr, "qcoo-join");
  advanced.cache();  // feeds both the reduce below and the next join

  // STAGE 3: collapse each queue to the Hadamard product scaled by the
  // tensor value and sum per output row. A key's first record in a map
  // task seeds its row; every later one is collapsed straight into it.
  const double r = static_cast<double>(rank_);
  auto reduced = advanced.combineByKey(
      [](const QRecord& rec) {
        la::Row out(rec.rank());
        collapse(rec, [&](std::uint32_t k, double x) { out[k] = x; });
        return out;
      },
      [](la::Row& acc, const QRecord& rec) {
        CSTF_ASSERT(acc.size() == rec.rank(), "row rank mismatch");
        collapse(rec, [&](std::uint32_t k, double x) { acc[k] += x; });
      },
      la::rowAddInPlace, ctx_.hashPartitioner(opts_.numPartitions),
      opts_.mapSideCombine, r * static_cast<double>(order_ - 1), r,
      "qcoo-reduceByKey");

  la::Matrix result =
      collectRows(reduced, dims_[n], rank_, "qcoo-mttkrp-result");

  // Retire the previous queue RDD (paper: unpersist the old RDD) and
  // detach the new one from its lineage so past iterations' shuffle blocks
  // can be reclaimed (Spark's ContextCleaner equivalent).
  q_->unpersist();
  q_ = advanced.snapshot();
  nextMode_ = static_cast<ModeId>((n + 1) % order_);
  return result;
}

}  // namespace cstf::cstf_core
