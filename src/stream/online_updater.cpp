#include "stream/online_updater.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "la/normalize.hpp"
#include "la/solve.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::stream {

namespace {

struct CoordKey {
  std::array<Index, kMaxOrder> idx{};

  friend bool operator==(const CoordKey& a, const CoordKey& b) {
    return a.idx == b.idx;
  }
};

struct CoordKeyHash {
  std::size_t operator()(const CoordKey& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (Index i : k.idx) h = mix64(h ^ i);
    return static_cast<std::size_t>(h);
  }
};

CoordKey keyOf(const tensor::Nonzero& nz) {
  CoordKey k;
  for (ModeId m = 0; m < nz.order; ++m) k.idx[m] = nz.idx[m];
  return k;
}

}  // namespace

class OnlineUpdater::CoordMap {
 public:
  std::unordered_map<CoordKey, std::uint32_t, CoordKeyHash> map;
};

OnlineUpdater::OnlineUpdater(serve::CpModel model, tensor::CooTensor base,
                             OnlineUpdaterOptions opts)
    : opts_(opts),
      dims_(model.dims),
      rank_(model.rank),
      factors_(std::move(model.factors)),
      coords_(std::make_shared<CoordMap>()) {
  CSTF_CHECK(!dims_.empty() && rank_ > 0, "online updater needs a model");
  CSTF_CHECK(factors_.size() == dims_.size(),
             "online updater: model needs one factor per mode");
  for (ModeId m = 0; m < dims_.size(); ++m) {
    CSTF_CHECK(factors_[m].rows() == dims_[m] && factors_[m].cols() == rank_,
               "online updater: factor shape mismatch");
  }
  CSTF_CHECK(opts_.alsSweeps >= 1, "online updater: sweeps must be >= 1");
  // Work unnormalized: fold the column weights into mode 0 once so row
  // re-solves need no lambda bookkeeping; snapshotModel() refactors the
  // norms back out.
  if (!model.lambda.empty()) {
    CSTF_CHECK(model.lambda.size() == rank_,
               "online updater: lambda size mismatch");
    la::Matrix& a0 = factors_[0];
    for (std::size_t i = 0; i < a0.rows(); ++i) {
      double* row = a0.row(i);
      for (std::size_t r = 0; r < rank_; ++r) row[r] *= model.lambda[r];
    }
  }
  lambda_.assign(rank_, 1.0);
  grams_.reserve(factors_.size());
  for (const la::Matrix& f : factors_) grams_.push_back(la::gram(f));

  if (base.order() == 0) {
    accum_ = tensor::CooTensor(dims_, {}, "stream-accum");
  } else {
    CSTF_CHECK(base.dims() == dims_,
               "online updater: base tensor dims do not match the model");
    accum_ = std::move(base);
  }
  rowIndex_.resize(dims_.size());
  for (ModeId m = 0; m < dims_.size(); ++m) rowIndex_[m].resize(dims_[m]);
  coords_->map.reserve(accum_.nnz() * 2);
  for (std::size_t p = 0; p < accum_.nnz(); ++p) indexEntry(p);
}

void OnlineUpdater::indexEntry(std::size_t pos) {
  const tensor::Nonzero& nz = accum_.nonzeros()[pos];
  coords_->map.emplace(keyOf(nz), static_cast<std::uint32_t>(pos));
  for (ModeId m = 0; m < nz.order; ++m) {
    rowIndex_[m][nz.idx[m]].push_back(static_cast<std::uint32_t>(pos));
  }
}

void OnlineUpdater::upsertEntries(const tensor::Delta& d,
                                  std::vector<std::vector<Index>>& touched) {
  std::vector<tensor::Nonzero>& nzs = accum_.mutableNonzeros();
  for (const tensor::Nonzero& nz : d.entries) {
    const auto it = coords_->map.find(keyOf(nz));
    if (it != coords_->map.end()) {
      nzs[it->second].val = nz.val;  // upsert: replace, never sum
    } else {
      nzs.push_back(nz);
      indexEntry(nzs.size() - 1);
    }
    for (ModeId m = 0; m < nz.order; ++m) touched[m].push_back(nz.idx[m]);
  }
  for (auto& rows : touched) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
}

std::uint64_t OnlineUpdater::applyAls(
    const std::vector<std::vector<Index>>& touched) {
  const ModeId order = static_cast<ModeId>(dims_.size());
  const std::vector<tensor::Nonzero>& nzs = accum_.nonzeros();
  std::vector<double> mrow(rank_);
  std::vector<double> newRow(rank_);
  std::uint64_t rows = 0;
  for (int sweep = 0; sweep < opts_.alsSweeps; ++sweep) {
    for (ModeId n = 0; n < order; ++n) {
      if (touched[n].empty()) continue;
      rows += touched[n].size();
      // Same normal equations as the full ALS step, restricted to the
      // touched rows: V from the cached Grams of the *other* modes.
      la::Matrix v;
      for (ModeId d = 0; d < order; ++d) {
        if (d == n) continue;
        v = v.empty() ? grams_[d] : la::hadamard(v, grams_[d]);
      }
      const la::Matrix vinv = la::pinvSym(v);
      la::Matrix gramCorrection(rank_, rank_);
      for (const Index i : touched[n]) {
        std::fill(mrow.begin(), mrow.end(), 0.0);
        // MTTKRP row i: only the nonzeros of slice (n, i) contribute.
        for (const std::uint32_t pos : rowIndex_[n][i]) {
          const tensor::Nonzero& nz = nzs[pos];
          for (std::size_t r = 0; r < rank_; ++r) {
            double prod = nz.val;
            for (ModeId d = 0; d < order; ++d) {
              if (d != n) prod *= factors_[d](nz.idx[d], r);
            }
            mrow[r] += prod;
          }
        }
        for (std::size_t c = 0; c < rank_; ++c) {
          double acc = 0.0;
          for (std::size_t r = 0; r < rank_; ++r) {
            acc += mrow[r] * vinv(r, c);
          }
          newRow[c] = acc;
        }
        double* row = factors_[n].row(i);
        for (std::size_t r = 0; r < rank_; ++r) {
          for (std::size_t c = 0; c < rank_; ++c) {
            gramCorrection(r, c) +=
                newRow[r] * newRow[c] - row[r] * row[c];
          }
        }
        for (std::size_t r = 0; r < rank_; ++r) row[r] = newRow[r];
      }
      grams_[n] += gramCorrection;
    }
  }
  return rows;
}

void OnlineUpdater::apply(const tensor::Delta& d) {
  d.validate();
  CSTF_CHECK(d.dims == dims_,
             strprintf("delta seq %llu dims do not match the model",
                       static_cast<unsigned long long>(d.seq)));
  CSTF_CHECK(d.seq > state_.newestSeq,
             strprintf("delta seq %llu out of order (newest applied %llu)",
                       static_cast<unsigned long long>(d.seq),
                       static_cast<unsigned long long>(state_.newestSeq)));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<Index>> touched(dims_.size());
  upsertEntries(d, touched);
  rows_.add(applyAls(touched));
  state_.newestSeq = d.seq;
  state_.newestCreatedUnixMicros =
      std::max(state_.newestCreatedUnixMicros, d.createdUnixMicros);
  batches_.add();
  entries_.add(d.entries.size());
  state_.lastBatchSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state_.totalApplySec += state_.lastBatchSec;
  seqGauge_.set(double(state_.newestSeq));
  batchSecGauge_.set(state_.lastBatchSec);
  if (opts_.fitProbeEvery > 0 &&
      batches_.value() % std::uint64_t(opts_.fitProbeEvery) == 0) {
    exactFit();
  }
}

OnlineUpdateStats OnlineUpdater::stats() const {
  OnlineUpdateStats s = state_;
  s.batchesApplied = batches_.value();
  s.entriesApplied = entries_.value();
  s.rowsRecomputed = rows_.value();
  return s;
}

void OnlineUpdater::rebuildGrams() {
  for (std::size_t m = 0; m < factors_.size(); ++m) {
    grams_[m] = la::gram(factors_[m]);
  }
}

double OnlineUpdater::exactFit() {
  rebuildGrams();  // re-anchor: rank-one corrections drift in fp
  const double fit = tensor::cpFit(accum_, factors_, lambda_);
  state_.lastFitProbe = fit;
  ++state_.fitProbes;
  fitGauge_.set(fit);
  return fit;
}

serve::CpModel OnlineUpdater::snapshotModel() const {
  serve::CpModel m;
  m.rank = rank_;
  m.dims = dims_;
  m.factors = factors_;
  m.lambda.assign(rank_, 1.0);
  for (la::Matrix& f : m.factors) {
    const std::vector<double> norms = la::normalizeColumns(f);
    for (std::size_t r = 0; r < rank_; ++r) m.lambda[r] *= norms[r];
  }
  m.finalFit = state_.lastFitProbe;
  return m;
}

}  // namespace cstf::stream
