// Binary serialization with exact byte accounting.
//
// Everything that crosses a shuffle boundary in the dataflow engine is
// encoded through this layer, so the engine's "remote bytes read" /
// "local bytes read" metrics (the quantities Figure 4 of the CSTF paper
// reports from Spark's metrics service) reflect real encoded record sizes
// rather than estimates.
//
// The format is little-endian, fixed-width for arithmetic types, and
// varint-free by design: simplicity and determinism matter more here than
// squeezing bytes, and Spark's Java serialization the paper measured is
// similarly fixed-width.
//
// Extend to a new type either by specializing cstf::Serde<T> or by giving
// the type `serialize(Writer&) const` / `static T deserialize(Reader&)`
// members (detected below).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/small_vector.hpp"

namespace cstf {

/// Append-only byte sink.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& buf) : buf_(buf) {}

  void writeBytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  template <typename T>
  void writeRaw(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    writeBytes(&v, sizeof(T));
  }

  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t>& buf_;
};

/// Sequential byte source.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  void readBytes(void* p, std::size_t n) {
    CSTF_ASSERT(pos_ + n <= size_, "serde underflow");
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  template <typename T>
  T readRaw() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    readBytes(&v, sizeof(T));
    return v;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

template <typename T, typename = void>
struct Serde;  // primary template: undefined; specialize or add members.

namespace serde_detail {
template <typename T, typename = void>
struct HasMemberSerialize : std::false_type {};
template <typename T>
struct HasMemberSerialize<
    T, std::void_t<decltype(std::declval<const T&>().serialize(
           std::declval<Writer&>())),
       decltype(T::deserialize(std::declval<Reader&>()))>> : std::true_type {};
}  // namespace serde_detail

/// Arithmetic types and enums: raw little-endian copy.
template <typename T>
struct Serde<T, std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>> {
  static void write(Writer& w, const T& v) { w.writeRaw(v); }
  static T read(Reader& r) { return r.readRaw<T>(); }
  static std::size_t byteSize(const T&) { return sizeof(T); }
};

/// Types providing member serialize/deserialize.
template <typename T>
struct Serde<T, std::enable_if_t<serde_detail::HasMemberSerialize<T>::value>> {
  static void write(Writer& w, const T& v) { v.serialize(w); }
  static T read(Reader& r) { return T::deserialize(r); }
  static std::size_t byteSize(const T& v) { return v.serializedSize(); }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void write(Writer& w, const std::pair<A, B>& v) {
    Serde<A>::write(w, v.first);
    Serde<B>::write(w, v.second);
  }
  static std::pair<A, B> read(Reader& r) {
    A a = Serde<A>::read(r);
    B b = Serde<B>::read(r);
    return {std::move(a), std::move(b)};
  }
  static std::size_t byteSize(const std::pair<A, B>& v) {
    return Serde<A>::byteSize(v.first) + Serde<B>::byteSize(v.second);
  }
};

template <typename... Ts>
struct Serde<std::tuple<Ts...>> {
  static void write(Writer& w, const std::tuple<Ts...>& v) {
    std::apply([&](const Ts&... xs) { (Serde<Ts>::write(w, xs), ...); }, v);
  }
  static std::tuple<Ts...> read(Reader& r) {
    // Braced init guarantees left-to-right evaluation order.
    return std::tuple<Ts...>{Serde<Ts>::read(r)...};
  }
  static std::size_t byteSize(const std::tuple<Ts...>& v) {
    return std::apply(
        [](const Ts&... xs) {
          return (std::size_t{0} + ... + Serde<Ts>::byteSize(xs));
        },
        v);
  }
};

template <typename T>
struct Serde<std::vector<T>> {
  static void write(Writer& w, const std::vector<T>& v) {
    w.writeRaw(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) Serde<T>::write(w, x);
  }
  static std::vector<T> read(Reader& r) {
    const auto n = r.readRaw<std::uint32_t>();
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(Serde<T>::read(r));
    return v;
  }
  static std::size_t byteSize(const std::vector<T>& v) {
    std::size_t n = sizeof(std::uint32_t);
    for (const T& x : v) n += Serde<T>::byteSize(x);
    return n;
  }
};

template <typename K, typename V, typename H, typename E, typename A>
struct Serde<std::unordered_map<K, V, H, E, A>> {
  using Map = std::unordered_map<K, V, H, E, A>;
  static void write(Writer& w, const Map& m) {
    w.writeRaw(static_cast<std::uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      Serde<K>::write(w, k);
      Serde<V>::write(w, v);
    }
  }
  static Map read(Reader& r) {
    const auto n = r.readRaw<std::uint32_t>();
    Map m;
    m.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      K k = Serde<K>::read(r);
      m.emplace(std::move(k), Serde<V>::read(r));
    }
    return m;
  }
  static std::size_t byteSize(const Map& m) {
    std::size_t n = sizeof(std::uint32_t);
    for (const auto& [k, v] : m) {
      n += Serde<K>::byteSize(k) + Serde<V>::byteSize(v);
    }
    return n;
  }
};

template <typename T, std::size_t N>
struct Serde<SmallVec<T, N>> {
  static void write(Writer& w, const SmallVec<T, N>& v) {
    w.writeRaw(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) Serde<T>::write(w, x);
  }
  static SmallVec<T, N> read(Reader& r) {
    const auto n = r.readRaw<std::uint32_t>();
    SmallVec<T, N> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(Serde<T>::read(r));
    return v;
  }
  static std::size_t byteSize(const SmallVec<T, N>& v) {
    std::size_t n = sizeof(std::uint32_t);
    for (const T& x : v) n += Serde<T>::byteSize(x);
    return n;
  }
};

template <typename T, std::size_t N>
struct Serde<std::array<T, N>> {
  static void write(Writer& w, const std::array<T, N>& v) {
    for (const T& x : v) Serde<T>::write(w, x);
  }
  static std::array<T, N> read(Reader& r) {
    std::array<T, N> v{};
    for (std::size_t i = 0; i < N; ++i) v[i] = Serde<T>::read(r);
    return v;
  }
  static std::size_t byteSize(const std::array<T, N>& v) {
    std::size_t n = 0;
    for (const T& x : v) n += Serde<T>::byteSize(x);
    return n;
  }
};

template <typename T>
struct Serde<std::optional<T>> {
  static void write(Writer& w, const std::optional<T>& v) {
    w.writeRaw(static_cast<std::uint8_t>(v.has_value() ? 1 : 0));
    if (v) Serde<T>::write(w, *v);
  }
  static std::optional<T> read(Reader& r) {
    if (r.readRaw<std::uint8_t>() == 0) return std::nullopt;
    return Serde<T>::read(r);
  }
  static std::size_t byteSize(const std::optional<T>& v) {
    return 1 + (v ? Serde<T>::byteSize(*v) : 0);
  }
};

template <>
struct Serde<std::string> {
  static void write(Writer& w, const std::string& v) {
    w.writeRaw(static_cast<std::uint32_t>(v.size()));
    w.writeBytes(v.data(), v.size());
  }
  static std::string read(Reader& r) {
    const auto n = r.readRaw<std::uint32_t>();
    std::string v(n, '\0');
    r.readBytes(v.data(), n);
    return v;
  }
  static std::size_t byteSize(const std::string& v) {
    return sizeof(std::uint32_t) + v.size();
  }
};

// ---------------------------------------------------------------------------
// FixedWidthSerde: the shuffle codec (and the serialized cache's codec for
// the types that have one).
//
// A type is *fixed-width* when its serde encoding can be produced by flat
// pointer stores into a pre-sized buffer — no Writer, no per-field vector
// growth — and its encoded width is computable from the value alone
// (width(v) == Serde<T>::byteSize(v), enforced by tests). Widths may vary
// per value (a SmallVec encodes its length, a Nonzero its order), so bulk
// users first sum widths to pre-size the destination, then encode with a
// moving cursor. When kStaticWidth != 0 every value shares that width and
// a buffer of n records is exactly n * kStaticWidth bytes.
//
// encode() MUST emit byte-for-byte the same stream Serde<T>::write would,
// so byte metrics derived from buffer sizes equal the serde size rules.
// Every record a shuffle ships must be fixed-width (ShuffledDataset
// static_asserts it).
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

/// SmallVec encodes its length, so width is value-dependent but still flat.
/// Elements whose serde encoding equals their memory layout (arithmetic
/// types: no padding, little-endian host) move as one memcpy of the whole
/// run — the payload of a factor Row is a single 8R-byte copy.
template <typename T, std::size_t N>
struct FixedWidthSerde<SmallVec<T, N>,
                       std::enable_if_t<FixedWidthSerde<T>::value>> {
  static constexpr bool value = true;
  static constexpr std::size_t kStaticWidth = 0;
  static constexpr bool kRawElements =
      std::is_trivially_copyable_v<T> &&
      FixedWidthSerde<T>::kStaticWidth == sizeof(T);
  static std::size_t width(const SmallVec<T, N>& v) {
    if constexpr (kRawElements) {
      return sizeof(std::uint32_t) + v.size() * sizeof(T);
    } else {
      std::size_t n = sizeof(std::uint32_t);
      for (const T& x : v) n += FixedWidthSerde<T>::width(x);
      return n;
    }
  }
  static std::uint8_t* encode(std::uint8_t* dst, const SmallVec<T, N>& v) {
    const auto n = static_cast<std::uint32_t>(v.size());
    std::memcpy(dst, &n, sizeof(n));
    dst += sizeof(n);
    if constexpr (kRawElements) {
      std::memcpy(dst, v.data(), v.size() * sizeof(T));
      return dst + v.size() * sizeof(T);
    } else {
      for (const T& x : v) dst = FixedWidthSerde<T>::encode(dst, x);
      return dst;
    }
  }
  static const std::uint8_t* decode(const std::uint8_t* src,
                                    SmallVec<T, N>& out) {
    std::uint32_t n;
    std::memcpy(&n, src, sizeof(n));
    src += sizeof(n);
    if constexpr (kRawElements) {
      out.resize(n);
      std::memcpy(out.data(), src, std::size_t{n} * sizeof(T));
      return src + std::size_t{n} * sizeof(T);
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

/// Decode a whole serde stream of T records into `out` (appending).
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
    T rec;
    src = FixedWidthSerde<T>::decode(src, rec);
    CSTF_ASSERT(src <= end, "fixed-width decode overran buffer");
    out.push_back(std::move(rec));
  }
}

/// Convenience helpers.
template <typename T>
void serdeWrite(std::vector<std::uint8_t>& buf, const T& v) {
  Writer w(buf);
  Serde<T>::write(w, v);
}

template <typename T>
T serdeRead(Reader& r) {
  return Serde<T>::read(r);
}

template <typename T>
std::size_t serdeSize(const T& v) {
  return Serde<T>::byteSize(v);
}

}  // namespace cstf
