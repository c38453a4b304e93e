// Little-endian byte builder: the oracle the record-codec tests compare
// FixedWidthSerde against. It spells the wire format field by field, one
// byte at a time from each value's bit pattern, so an expected encoding is
// written down without calling the codec under test.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cstf/records.hpp"
#include "la/row.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::testsupport {

class LeBytes {
 public:
  /// One arithmetic or enum field, least significant byte first.
  template <typename T>
  LeBytes& put(T v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    using U = std::conditional_t<
        sizeof(T) == 1, std::uint8_t,
        std::conditional_t<sizeof(T) == 2, std::uint16_t,
                           std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                              std::uint64_t>>>;
    static_assert(sizeof(U) == sizeof(T));
    const U bits = std::bit_cast<U>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
    return *this;
  }

  /// A sequence: u32 count, then the elements.
  template <typename Seq>
  LeBytes& seq(const Seq& s) {
    put(static_cast<std::uint32_t>(s.size()));
    for (const auto& x : s) put(x);
    return *this;
  }

  /// u8 order, u32 idx[order], f64 value.
  LeBytes& nonzero(const tensor::Nonzero& nz) {
    put(nz.order);
    for (ModeId m = 0; m < nz.order; ++m) put(nz.idx[m]);
    return put(nz.val);
  }

  /// The nonzero, a u32 row count, then per row a u32 R and R doubles.
  LeBytes& qrecord(const cstf_core::QRecord& q) {
    nonzero(q.nz);
    put(static_cast<std::uint32_t>(q.queueSize()));
    for (std::size_t i = 0; i < q.queueSize(); ++i) {
      put(q.rank());
      for (std::uint32_t k = 0; k < q.rank(); ++k) put(q.row(i)[k]);
    }
    return *this;
  }

  LeBytes& carry(const cstf_core::Carry& c) {
    nonzero(c.nz);
    return seq(c.partial);
  }

  std::vector<std::uint8_t> bytes;
};

}  // namespace cstf::testsupport
