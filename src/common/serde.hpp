// Binary record codec with exact byte accounting.
//
// Everything that crosses a shuffle boundary in the dataflow engine is
// encoded through FixedWidthSerde<T>, and every other byte meter (source
// reads, broadcasts, the serialized and raw caches) sizes records with the
// same codec's width(). So the engine's "remote bytes read" / "local bytes
// read" metrics (the quantities Figure 4 of the CSTF paper reports from
// Spark's metrics service) are the sizes of real encodings rather than
// estimates.
//
// The format is little-endian, fixed-width for arithmetic types, and
// varint-free by design: simplicity and determinism matter more here than
// squeezing bytes, and Spark's Java serialization the paper measured is
// similarly fixed-width. A sequence (SmallVec, std::vector) is a u32 count
// followed by its elements.
//
// Extend to a new record type by specializing FixedWidthSerde<T> (see
// tensor::Nonzero and the cstf_core records for examples).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/small_vector.hpp"

namespace cstf {

// ---------------------------------------------------------------------------
// FixedWidthSerde: the record codec.
//
// A type is *fixed-width* when its encoding can be produced by flat pointer
// stores into a pre-sized buffer — no per-field vector growth — and its
// encoded width is computable from the value alone. Widths may vary per
// value (a sequence encodes its length, a Nonzero its order), so bulk users
// first sum widths to pre-size the destination, then encode with a moving
// cursor. When kStaticWidth != 0 every value shares that width and a buffer
// of n records is exactly n * kStaticWidth bytes.
//
// width(v) is the byte count every meter charges, and encode() writes
// exactly that many bytes (fixedWidthEncodeAppend asserts it). Every record
// a shuffle ships, a source reads or a cache holds must have a codec
// (Dataset static_asserts it); a value that is only metered, never encoded
// (a broadcast view), may specialize width() alone. The wire bytes are
// pinned by literals in tests (ShuffleGolden.*, QRecord.WireBytes*).
// ---------------------------------------------------------------------------

template <typename T, typename = void>
struct FixedWidthSerde {
  static constexpr bool value = false;
};

/// Arithmetic types and enums: width is a compile-time constant.
template <typename T>
struct FixedWidthSerde<
    T, std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth = sizeof(T);
  static std::size_t width(const T&) { return sizeof(T); }
  static std::uint8_t* encode(std::uint8_t* dst, const T& v) {
    std::memcpy(dst, &v, sizeof(T));
    return dst + sizeof(T);
  }
  static const std::uint8_t* decode(const std::uint8_t* src, T& out) {
    std::memcpy(&out, src, sizeof(T));
    return src + sizeof(T);
  }
};

template <typename A, typename B>
struct FixedWidthSerde<
    std::pair<A, B>,
    std::enable_if_t<FixedWidthSerde<A>::value && FixedWidthSerde<B>::value>> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth =
      (FixedWidthSerde<A>::kStaticWidth != 0 &&
       FixedWidthSerde<B>::kStaticWidth != 0)
          ? FixedWidthSerde<A>::kStaticWidth + FixedWidthSerde<B>::kStaticWidth
          : 0;
  static std::size_t width(const std::pair<A, B>& v) {
    return FixedWidthSerde<A>::width(v.first) +
           FixedWidthSerde<B>::width(v.second);
  }
  static std::uint8_t* encode(std::uint8_t* dst, const std::pair<A, B>& v) {
    dst = FixedWidthSerde<A>::encode(dst, v.first);
    return FixedWidthSerde<B>::encode(dst, v.second);
  }
  static const std::uint8_t* decode(const std::uint8_t* src,
                                    std::pair<A, B>& out) {
    src = FixedWidthSerde<A>::decode(src, out.first);
    return FixedWidthSerde<B>::decode(src, out.second);
  }
};

template <typename... Ts>
struct FixedWidthSerde<std::tuple<Ts...>,
                       std::enable_if_t<(FixedWidthSerde<Ts>::value && ...)>> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth =
      ((FixedWidthSerde<Ts>::kStaticWidth != 0) && ...)
          ? (std::size_t{0} + ... + FixedWidthSerde<Ts>::kStaticWidth)
          : 0;
  static std::size_t width(const std::tuple<Ts...>& v) {
    return std::apply(
        [](const Ts&... xs) {
          return (std::size_t{0} + ... + FixedWidthSerde<Ts>::width(xs));
        },
        v);
  }
  static std::uint8_t* encode(std::uint8_t* dst, const std::tuple<Ts...>& v) {
    std::apply(
        [&dst](const Ts&... xs) {
          ((dst = FixedWidthSerde<Ts>::encode(dst, xs)), ...);
        },
        v);
    return dst;
  }
  static const std::uint8_t* decode(const std::uint8_t* src,
                                    std::tuple<Ts...>& out) {
    std::apply(
        [&src](Ts&... xs) {
          ((src = FixedWidthSerde<Ts>::decode(src, xs)), ...);
        },
        out);
    return src;
  }
};

template <typename T, std::size_t N>
struct FixedWidthSerde<std::array<T, N>,
                       std::enable_if_t<FixedWidthSerde<T>::value>> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth =
      FixedWidthSerde<T>::kStaticWidth != 0
          ? N * FixedWidthSerde<T>::kStaticWidth
          : 0;
  static std::size_t width(const std::array<T, N>& v) {
    std::size_t n = 0;
    for (const T& x : v) n += FixedWidthSerde<T>::width(x);
    return n;
  }
  static std::uint8_t* encode(std::uint8_t* dst, const std::array<T, N>& v) {
    for (const T& x : v) dst = FixedWidthSerde<T>::encode(dst, x);
    return dst;
  }
  static const std::uint8_t* decode(const std::uint8_t* src,
                                    std::array<T, N>& out) {
    for (std::size_t i = 0; i < N; ++i) {
      src = FixedWidthSerde<T>::decode(src, out[i]);
    }
    return src;
  }
};

/// Store `n` trivially copyable elements as raw little-endian bytes, one
/// fixed-size copy per element. Records carry short runs (an order's
/// indices, a rank-R row): a fixed-size copy compiles to one store, where a
/// runtime-length memcpy is a library call with a size dispatch.
template <typename T>
std::uint8_t* storeElements(std::uint8_t* dst, const T* src, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (std::size_t i = 0; i < n; ++i, dst += sizeof(T)) {
    std::memcpy(dst, src + i, sizeof(T));
  }
  return dst;
}

/// The inverse of storeElements: read `n` elements into `dst`.
template <typename T>
const std::uint8_t* loadElements(const std::uint8_t* src, T* dst,
                                 std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (std::size_t i = 0; i < n; ++i, src += sizeof(T)) {
    std::memcpy(dst + i, src, sizeof(T));
  }
  return src;
}

namespace serde_detail {
template <typename T>
struct IsSequence : std::false_type {};
template <typename T, std::size_t N>
struct IsSequence<SmallVec<T, N>> : std::true_type {};
template <typename T, typename A>
struct IsSequence<std::vector<T, A>> : std::true_type {};
}  // namespace serde_detail

/// A sequence (SmallVec or std::vector) encodes its length as a u32, then
/// its elements, so width is value-dependent but still flat. Elements whose
/// encoding equals their memory layout (arithmetic types: no padding,
/// little-endian host) move as raw elements (storeElements / loadElements):
/// the payload of a factor Row is R fixed-size 8-byte copies.
template <typename Seq>
struct FixedWidthSerde<
    Seq, std::enable_if_t<serde_detail::IsSequence<Seq>::value &&
                          FixedWidthSerde<typename Seq::value_type>::value>> {
  using T = typename Seq::value_type;
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth = 0;
  static constexpr bool kRawElements =
      std::is_trivially_copyable_v<T> &&
      FixedWidthSerde<T>::kStaticWidth == sizeof(T);
  static std::size_t width(const Seq& v) {
    if constexpr (kRawElements) {
      return sizeof(std::uint32_t) + v.size() * sizeof(T);
    } else {
      std::size_t n = sizeof(std::uint32_t);
      for (const T& x : v) n += FixedWidthSerde<T>::width(x);
      return n;
    }
  }
  static std::uint8_t* encode(std::uint8_t* dst, const Seq& v) {
    const auto n = static_cast<std::uint32_t>(v.size());
    std::memcpy(dst, &n, sizeof(n));
    dst += sizeof(n);
    if constexpr (kRawElements) {
      return storeElements(dst, v.data(), n);
    } else {
      for (const T& x : v) dst = FixedWidthSerde<T>::encode(dst, x);
      return dst;
    }
  }
  static const std::uint8_t* decode(const std::uint8_t* src, Seq& out) {
    std::uint32_t n;
    std::memcpy(&n, src, sizeof(n));
    src += sizeof(n);
    if constexpr (kRawElements) {
      out.resize(n);
      return loadElements(src, out.data(), n);
    } else {
      out.clear();
      out.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        T x;
        src = FixedWidthSerde<T>::decode(src, x);
        out.push_back(std::move(x));
      }
      return src;
    }
  }
};

/// Append the serde encoding of `recs` to `buf` by bulk stores. The buffer
/// grows exactly once regardless of record count.
template <typename T>
void fixedWidthEncodeAppend(std::vector<std::uint8_t>& buf,
                            const std::vector<T>& recs) {
  static_assert(FixedWidthSerde<T>::value, "T must be FixedWidthSerde");
  std::size_t total = 0;
  for (const T& rec : recs) total += FixedWidthSerde<T>::width(rec);
  const std::size_t base = buf.size();
  buf.resize(base + total);
  std::uint8_t* dst = buf.data() + base;
  for (const T& rec : recs) dst = FixedWidthSerde<T>::encode(dst, rec);
  CSTF_ASSERT(dst == buf.data() + buf.size(), "fixed-width encode drift");
}

/// Decode a whole serde stream of T records into `out` (appending). Each
/// record decodes in place into a fresh element at the back; a decode that
/// throws leaves that partial element behind.
template <typename T>
void fixedWidthDecodeStream(const std::uint8_t* data, std::size_t size,
                            std::vector<T>& out) {
  static_assert(FixedWidthSerde<T>::value, "T must be FixedWidthSerde");
  if constexpr (FixedWidthSerde<T>::kStaticWidth != 0) {
    out.reserve(out.size() + size / FixedWidthSerde<T>::kStaticWidth);
  }
  const std::uint8_t* src = data;
  const std::uint8_t* end = data + size;
  while (src < end) {
    src = FixedWidthSerde<T>::decode(src, out.emplace_back());
    CSTF_ASSERT(src <= end, "fixed-width decode overran buffer");
  }
}

}  // namespace cstf
