// Record types shipped through the engine by the CSTF backends, matching
// the RDD element shapes of Table 3 in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "common/serde.hpp"
#include "common/small_vector.hpp"
#include "la/row.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::cstf_core {

/// CSTF-COO in-flight record: a nonzero plus the running Hadamard product
/// of the factor rows joined so far (empty before the first join).
struct Carry {
  tensor::Nonzero nz;
  la::Row partial;

  friend bool operator==(const Carry& a, const Carry& b) {
    return a.nz == b.nz && a.partial == b.partial;
  }
};

/// CSTF-QCOO record ("Xq" of Table 3): a nonzero plus the queue of the
/// N-1 factor rows needed by the *next* MTTKRP. The queued rows sit back to
/// back in one flat buffer, stalest row (the next to be dequeued) first, and
/// share one length R (0 while the queue is empty). A QCOO mode update
/// writes each record once, where the join's left decode puts it: the join
/// advances it there, and the map-side combine collapses it straight into
/// its key's row. The decode, the combine and the next join's encode still
/// read or write the whole record, so it stays small (see the static_assert
/// below); eight inline doubles hold orders <= 5 at R = 2 and order 3 at
/// R <= 4 without a heap allocation.
///
/// Wire format: the nonzero, a u32 row count, then per row a u32 R followed
/// by R doubles (tests/cstf/test_qrecord.cpp pins the bytes).
struct QRecord {
  tensor::Nonzero nz;

  std::size_t queueSize() const {
    return rank_ == 0 ? 0 : rows_.size() / rank_;
  }
  std::uint32_t rank() const { return rank_; }
  const double* row(std::size_t i) const {
    CSTF_ASSERT(i < queueSize(), "QRecord row index out of range");
    return rows_.data() + i * rank_;
  }

  /// Append `r` at the back of the queue. Throws cstf::Error when its
  /// length differs from the rows already queued.
  void enqueue(const la::Row& r) {
    std::copy(r.begin(), r.end(),
              appendRow(static_cast<std::uint32_t>(r.size())));
  }

  /// Drop the stalest row.
  void dequeue() {
    CSTF_ASSERT(rank_ != 0, "dequeue on an empty QRecord queue");
    std::copy(rows_.begin() + rank_, rows_.end(), rows_.begin());
    for (std::uint32_t k = 0; k < rank_; ++k) rows_.pop_back();
    if (rows_.empty()) rank_ = 0;
  }

  /// enqueue(r) then dequeue() in one pass over the buffer: the queued rows
  /// shift down by one row in place and `r` lands last, so the buffer never
  /// grows. Throws the same cstf::Error as enqueue on a length mismatch,
  /// leaving the record unchanged.
  void advance(const la::Row& r) {
    checkRowLength(static_cast<std::uint32_t>(r.size()));
    if (rank_ == 0) return;  // r would be queued and dequeued at once
    double* p = rows_.data();
    const std::size_t keep = rows_.size() - rank_;
    std::copy(p + rank_, p + rows_.size(), p);
    std::copy(r.begin(), r.end(), p + keep);
  }

  friend bool operator==(const QRecord& a, const QRecord& b) {
    return a.nz == b.nz && a.rank_ == b.rank_ && a.rows_ == b.rows_;
  }

 private:
  friend struct cstf::FixedWidthSerde<QRecord>;

  /// Every queued row shares one length; a row of another length (or of
  /// none) throws cstf::Error naming both.
  void checkRowLength(std::uint32_t len) const {
    if (len == 0 || (rank_ != 0 && len != rank_)) {
      throw Error("QRecord queue row length mismatch: expected R" +
                  (rank_ == 0 ? std::string(">0")
                              : "=" + std::to_string(rank_)) +
                  ", got R=" + std::to_string(len));
    }
  }

  /// Grow the buffer by one row of length `len` (checked as above) and
  /// return where it goes.
  double* appendRow(std::uint32_t len) {
    checkRowLength(len);
    rank_ = len;
    const std::size_t at = rows_.size();
    rows_.resize(at + len);
    return rows_.data() + at;
  }

  std::uint32_t rank_ = 0;  // shared row length R; 0 while the queue is empty
  SmallVec<double, 8> rows_;
};

static_assert(sizeof(std::pair<Index, QRecord>) <= 160,
              "a QRecord must stay flat: one row buffer, no per-row headers");

}  // namespace cstf::cstf_core

namespace cstf {

/// Codec for the in-flight COO record: Nonzero + Row, both flat-encodable.
/// Width follows the record's order and rank.
template <>
struct FixedWidthSerde<cstf_core::Carry> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth = 0;
  static std::size_t width(const cstf_core::Carry& v) {
    return FixedWidthSerde<tensor::Nonzero>::width(v.nz) +
           FixedWidthSerde<la::Row>::width(v.partial);
  }
  static std::uint8_t* encode(std::uint8_t* dst, const cstf_core::Carry& v) {
    dst = FixedWidthSerde<tensor::Nonzero>::encode(dst, v.nz);
    return FixedWidthSerde<la::Row>::encode(dst, v.partial);
  }
  static const std::uint8_t* decode(const std::uint8_t* src,
                                    cstf_core::Carry& out) {
    src = FixedWidthSerde<tensor::Nonzero>::decode(src, out.nz);
    return FixedWidthSerde<la::Row>::decode(src, out.partial);
  }
};

/// Codec for the QCOO record (wire format on QRecord), written from and
/// read into the flat row buffer.
template <>
struct FixedWidthSerde<cstf_core::QRecord> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth = 0;
  static std::size_t width(const cstf_core::QRecord& v) {
    return FixedWidthSerde<tensor::Nonzero>::width(v.nz) +
           sizeof(std::uint32_t) +
           v.queueSize() * (sizeof(std::uint32_t) + v.rank_ * sizeof(double));
  }
  static std::uint8_t* encode(std::uint8_t* dst, const cstf_core::QRecord& v) {
    dst = FixedWidthSerde<tensor::Nonzero>::encode(dst, v.nz);
    const auto n = static_cast<std::uint32_t>(v.queueSize());
    std::memcpy(dst, &n, sizeof(n));
    dst += sizeof(n);
    const double* row = v.rows_.data();
    for (std::uint32_t i = 0; i < n; ++i, row += v.rank_) {
      std::memcpy(dst, &v.rank_, sizeof(v.rank_));
      dst = storeElements(dst + sizeof(v.rank_), row, v.rank_);
    }
    return dst;
  }
  static const std::uint8_t* decode(const std::uint8_t* src,
                                    cstf_core::QRecord& out) {
    src = FixedWidthSerde<tensor::Nonzero>::decode(src, out.nz);
    std::uint32_t n;
    std::memcpy(&n, src, sizeof(n));
    src += sizeof(n);
    out.rank_ = 0;
    out.rows_.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t len;
      std::memcpy(&len, src, sizeof(len));
      src = loadElements(src + sizeof(len), out.appendRow(len), len);
    }
    return src;
  }
};

}  // namespace cstf
