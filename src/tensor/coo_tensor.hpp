// N-order sparse tensor in coordinate (COO) storage — the format CSTF
// operates on directly (paper §4.1): a list of (i_1, ..., i_N, value)
// tuples, one per nonzero.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"

namespace cstf::tensor {

/// One nonzero entry. Order is carried per record so that a shuffled record
/// is self-describing; the codec encodes only the first `order` indices.
struct Nonzero {
  ModeId order = 0;
  std::array<Index, kMaxOrder> idx{};
  Value val = 0.0;

  Index operator[](ModeId m) const {
    CSTF_ASSERT(m < order, "mode index out of range");
    return idx[m];
  }

  friend bool operator==(const Nonzero& a, const Nonzero& b) {
    if (a.order != b.order || a.val != b.val) return false;
    for (ModeId m = 0; m < a.order; ++m) {
      if (a.idx[m] != b.idx[m]) return false;
    }
    return true;
  }
};

/// Convenience constructors.
Nonzero makeNonzero3(Index i, Index j, Index k, Value v);
Nonzero makeNonzero4(Index i, Index j, Index k, Index l, Value v);
Nonzero makeNonzero(const std::vector<Index>& idx, Value v);

class CooTensor {
 public:
  CooTensor() = default;
  CooTensor(std::vector<Index> dims, std::vector<Nonzero> nonzeros,
            std::string name = "");

  ModeId order() const { return static_cast<ModeId>(dims_.size()); }
  const std::vector<Index>& dims() const { return dims_; }
  Index dim(ModeId m) const {
    CSTF_CHECK(m < order(), "mode out of range");
    return dims_[m];
  }
  std::size_t nnz() const { return nonzeros_.size(); }
  const std::vector<Nonzero>& nonzeros() const { return nonzeros_; }
  std::vector<Nonzero>& mutableNonzeros() { return nonzeros_; }
  const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  Index maxModeSize() const;
  /// nnz / prod(dims); the "Density" column of Table 5.
  double density() const;
  /// Frobenius norm of the tensor: sqrt(sum of squared nonzero values).
  double norm() const;
  /// Squared Frobenius norm, computed directly (no sqrt-then-square).
  double normSq() const;

  /// Sum over duplicate coordinates and drop explicit zeros (canonical
  /// form; sorts nonzeros lexicographically).
  void coalesce();

  /// Throws cstf::Error if any nonzero has wrong order or an index outside
  /// its mode dimension.
  void validate() const;

 private:
  std::vector<Index> dims_;
  std::vector<Nonzero> nonzeros_;
  std::string name_;
};

}  // namespace cstf::tensor

namespace cstf {

/// Record codec: a Nonzero's encoding is flat (u8 order, `order` u32
/// indices, f64 value), so it is written one fixed-size element at a time.
/// Width varies with `order` per value; the shuffle sums widths per
/// destination to size its buckets.
template <>
struct FixedWidthSerde<tensor::Nonzero> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth = 0;
  static std::size_t width(const tensor::Nonzero& v) {
    return sizeof(ModeId) + v.order * sizeof(Index) + sizeof(Value);
  }
  static std::uint8_t* encode(std::uint8_t* dst, const tensor::Nonzero& v) {
    std::memcpy(dst, &v.order, sizeof(ModeId));
    dst = storeElements(dst + sizeof(ModeId), v.idx.data(), v.order);
    std::memcpy(dst, &v.val, sizeof(Value));
    return dst + sizeof(Value);
  }
  static const std::uint8_t* decode(const std::uint8_t* src,
                                    tensor::Nonzero& out) {
    std::memcpy(&out.order, src, sizeof(ModeId));
    src += sizeof(ModeId);
    CSTF_ASSERT(out.order <= kMaxOrder, "corrupt Nonzero record");
    src = loadElements(src, out.idx.data(), out.order);
    std::memcpy(&out.val, src, sizeof(Value));
    return src + sizeof(Value);
  }
};

}  // namespace cstf
