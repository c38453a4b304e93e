#include "cstf/mttkrp_qcoo.hpp"

namespace cstf::cstf_core {

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
    auto joined = q.join(factorRdd, nullptr, "qcoo-init-join");
    const ModeId nextKey = static_cast<ModeId>(
        m + 2 < order_ ? m + 1 : order_ - 1);
    q = joined.map(
        [nextKey](const std::pair<Index, std::pair<QRecord, la::Row>>& kv) {
          std::pair<Index, QRecord> out(0, kv.second.first);
          out.second.enqueue(kv.second.second);
          out.first = out.second.nz.idx[nextKey];
          return out;
        });
  }
  q.cache();
  q_ = std::move(q);
}

la::Matrix QcooEngine::mttkrpNext(const std::vector<la::Matrix>& factors) {
  const ModeId n = nextMode_;
  const ModeId jm = joinMode();
  CSTF_CHECK(factors.size() == order_, "need one factor per mode");
  CSTF_CHECK(factors[jm].cols() == rank_, "rank changed mid-run");

  // STAGE 1: single join with the freshest factor (mode n-1, updated by
  // the previous MTTKRP — or mode N-1's initial value on the first call).
  auto factorRdd = factorToRdd(ctx_, factors[jm], opts_.numPartitions);
  auto joined = q_->join(factorRdd, nullptr, "qcoo-join");

  // STAGE 2: enqueue the joined row, dequeue the stalest (the row of the
  // mode being updated now), and re-key to mode n — which is both this
  // MTTKRP's reduce key and the next MTTKRP's join key.
  // The output pair is built once from the joined record, then its rows
  // shift in place.
  auto advanced = joined.map(
      [n](const std::pair<Index, std::pair<QRecord, la::Row>>& kv) {
        std::pair<Index, QRecord> out(0, kv.second.first);
        out.second.advance(kv.second.second);
        out.first = out.second.nz.idx[n];
        return out;
      });
  advanced.cache();  // feeds both the reduce below and the next join

  // STAGE 3: collapse each queue to the Hadamard product scaled by the
  // tensor value, then sum per output row.
  const double r = static_cast<double>(rank_);
  auto contrib = advanced.mapValues(
      [](const QRecord& rec) {
        CSTF_ASSERT(rec.queueSize() != 0, "QCOO queue must not be empty");
        const std::uint32_t len = rec.rank();
        const double* q0 = rec.row(0);
        la::Row out(len);
        for (std::uint32_t k = 0; k < len; ++k) out[k] = q0[k] * rec.nz.val;
        for (std::size_t i = 1; i < rec.queueSize(); ++i) {
          const double* qi = rec.row(i);
          for (std::uint32_t k = 0; k < len; ++k) out[k] *= qi[k];
        }
        return out;
      },
      r * static_cast<double>(order_ - 1));
  auto reduced = contrib.reduceByKey(la::rowAddInPlace,
                                     ctx_.hashPartitioner(opts_.numPartitions),
                                     opts_.mapSideCombine, r,
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
