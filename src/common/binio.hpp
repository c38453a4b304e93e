// Bounded binary I/O: the one reader and writer of CSTFBIN1 tensors,
// CSTFCKP1 checkpoints and models, and CSTFDLT1 delta batches. Fields are
// raw fixed-width host (little-endian) values, so IEEE values round-trip
// bit-exactly; a file opens with an 8-byte magic and (except CSTFBIN1) a
// u32 version. The reader takes the input size once and never trusts a
// length field: a count whose payload cannot fit in the bytes that remain
// is refused before any allocation, as are bytes left after the last
// field and a tensor value that is not finite. Every refusal is a
// cstf::Error "<format>: <field> at byte <offset of the field>: <reason>".
#pragma once

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/types.hpp"

namespace cstf {

class BinReader {
 public:
  /// Reads `in` from here to its end; `format` names it in errors.
  BinReader(std::istream& in, const char* format) : in_(in), format_(format) {
    const auto start = in_.tellg();
    const auto end = in_.seekg(0, std::ios::end).tellg();
    in_.seekg(start);
    if (!in_ || start < 0 || end < start) fail("size", "cannot seek input");
    remaining_ = static_cast<std::uint64_t>(end - start);
  }

  /// The 8-byte magic, then (version > 0) a u32 version that must match.
  void expectMagic(std::string_view magic, std::uint32_t version = 0) {
    char got[8] = {};
    bytes(got, sizeof(got), "magic");
    if (magic != std::string_view(got, sizeof(got))) {
      fail("magic", std::string("not a ") + format_);
    }
    const auto v = version > 0 ? get<std::uint32_t>("version") : 0;
    if (v != version) {
      fail("version", strprintf("%u is not supported (reads %u)", v, version));
    }
  }

  template <typename T>
  T get(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    bytes(&v, sizeof(T), field);
    return v;
  }

  void bytes(void* dst, std::uint64_t n, const char* field) {
    fieldOffset_ = offset_;
    if (n > remaining_) {
      fail(field, strprintf("truncated: needs %llu bytes, %llu remain",
                            ull(n), ull(remaining_)));
    }
    if (!in_.read(static_cast<char*>(dst), std::streamsize(n))) {
      fail(field, "read failed");
    }
    offset_ += n;
    remaining_ -= n;
  }

  /// A u64 count of `elemBytes`-sized elements that follow it.
  std::uint64_t count(std::uint64_t elemBytes, const char* field) {
    const auto n = get<std::uint64_t>(field);
    checkFits(n, elemBytes, field);
    return n;
  }

  /// Refuse `n` elements of `elemBytes` starting here unless they fit;
  /// for payloads sized by earlier fields, before allocating for them.
  void need(std::uint64_t n, std::uint64_t elemBytes, const char* field) {
    fieldOffset_ = offset_;
    checkFits(n, elemBytes, field);
  }

  /// A u8 order in [1, kMaxOrder], then u32 dims[order].
  std::vector<Index> dims() {
    const auto order = get<std::uint8_t>("order");
    if (order < 1 || order > kMaxOrder) {
      fail("order", strprintf("%d is not in [1, %d]", order, kMaxOrder));
    }
    std::vector<Index> dims(order);
    for (Index& d : dims) d = get<std::uint32_t>("dims");
    return dims;
  }

  /// An f64 tensor value, refused unless finite (NaN and +/-Inf are).
  double finite(const char* field) {
    const auto v = get<double>(field);
    if (!std::isfinite(v)) fail(field, strprintf("%g is not finite", v));
    return v;
  }

  /// A u32 index, refused unless below `dim`.
  Index index(Index dim, const char* field) {
    const auto i = get<std::uint32_t>(field);
    if (i >= dim) fail(field, strprintf("%u is not below its dim %u", i, dim));
    return i;
  }

  void finish() {
    fieldOffset_ = offset_;
    if (remaining_ > 0) {
      fail("end", strprintf("%llu extra bytes", ull(remaining_)));
    }
  }

  [[noreturn]] void fail(const char* field, const std::string& reason) const {
    throw Error(strprintf("%s: %s at byte %llu: %s", format_, field,
                          ull(fieldOffset_), reason.c_str()));
  }

 private:
  static unsigned long long ull(std::uint64_t v) { return v; }

  void checkFits(std::uint64_t n, std::uint64_t elemBytes,
                 const char* field) const {
    if (elemBytes > 0 && n > remaining_ / elemBytes) {
      fail(field, strprintf("%llu x %llu bytes exceed the %llu that remain",
                            ull(n), ull(elemBytes), ull(remaining_)));
    }
  }

  std::istream& in_;
  const char* format_;
  std::uint64_t offset_ = 0;
  std::uint64_t fieldOffset_ = 0;
  std::uint64_t remaining_ = 0;
};

/// Stream failures surface where the stream ends (writeFileAtomic).
class BinWriter {
 public:
  explicit BinWriter(std::ostream& out) : out_(out) {}

  void magic(std::string_view magic, std::uint32_t version = 0) {
    bytes(magic.data(), magic.size());
    if (version > 0) put<std::uint32_t>(version);
  }

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }

  void bytes(const void* src, std::uint64_t n) {
    out_.write(static_cast<const char*>(src), std::streamsize(n));
  }

  void dims(const std::vector<Index>& dims) {
    put<std::uint8_t>(static_cast<std::uint8_t>(dims.size()));
    for (const Index d : dims) put<std::uint32_t>(d);
  }

 private:
  std::ostream& out_;
};

/// `read(in)` over the file at `path`; every error names the path.
template <typename Read>
auto readFile(const std::string& path, Read read) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  try {
    return read(in);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace cstf
