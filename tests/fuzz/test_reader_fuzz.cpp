// Seeded mutation fuzzing of every reader of outside input: CSTFCKP1
// checkpoints (models included), CSTFDLT1 delta batches, CSTFBIN1 tensors
// and FROSTT .tns text.
//
// Each case starts from a small valid file, mutates it — truncation at
// every byte, every single-bit flip, counts inflated to 2^32 and 2^62,
// dims inflated to 2^32 - 1 (their u32 maximum), NaN and +/-Inf values
// (refused as tensor values, accepted as checkpoint state), out-of-range
// indices, and seeded random byte overwrites — and reads it.
// The read must end in a cstf::Error or in an accept this file lists per
// field (`Allow`); anything else (another exception type, a crash, a
// sanitizer report) fails. A binary accept must also re-serialize to
// exactly the bytes that were read, so nothing was misread; a .tns accept
// must validate against its dims.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cstf/checkpoint.hpp"
#include "stream/delta_log.hpp"
#include "tensor/io.hpp"

namespace cstf {
namespace {

/// What a mutation of a field may end in.
enum class Allow { kRefuse, kAccept, kEither };

/// What a field holds, for the targeted mutations.
enum class Kind { kOther, kCount, kDim, kIndex, kValue };

struct Field {
  std::size_t begin = 0;
  std::size_t end = 0;
  Kind kind = Kind::kOther;
  /// Outcome allowed for a single-bit flip inside the field.
  Allow flip = Allow::kRefuse;
  /// kIndex: the dim of its mode.
  std::uint32_t dim = 0;
  /// kDim: the outcome of inflating it; kValue: of a NaN or +/-Inf.
  Allow extreme = Allow::kRefuse;
};

/// A valid file, built field by field so every byte's meaning is known.
class Layout {
 public:
  template <typename T>
  void add(T v, Kind kind, Allow flip) {
    Field f;
    f.begin = bytes.size();
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(T));
    f.end = bytes.size();
    f.kind = kind;
    f.flip = flip;
    fields.push_back(f);
  }
  void text(const std::string& s, Allow flip) {
    Field f;
    f.begin = bytes.size();
    bytes += s;
    f.end = bytes.size();
    f.flip = flip;
    fields.push_back(f);
  }
  void index(std::uint32_t i, std::uint32_t dim) {
    add(i, Kind::kIndex, Allow::kEither);
    fields.back().dim = dim;
  }
  void dim(std::uint32_t d, Allow inflate, Allow flip) {
    add(d, Kind::kDim, flip);
    fields.back().extreme = inflate;
  }
  /// An f64 whose NaN and +/-Inf end in `nonfinite`. A bit flip can make
  /// one (a refused value flips either way).
  void value(double v, Allow nonfinite) {
    add(v, Kind::kValue,
        nonfinite == Allow::kAccept ? Allow::kAccept : Allow::kEither);
    fields.back().extreme = nonfinite;
  }

  std::string bytes;
  std::vector<Field> fields;
};

/// Reads `bytes`; returns their re-serialization on accept, throws
/// cstf::Error on refusal.
using Reader = std::function<std::string(const std::string& bytes)>;

struct Tally {
  std::size_t refused = 0;
  std::size_t accepted = 0;
};

/// Run one case; fails the test unless its outcome is allowed.
void check(const Reader& read, const std::string& bytes, Allow allow,
           const std::string& what, Tally& tally) {
  std::string reencoded;
  try {
    reencoded = read(bytes);
  } catch (const Error&) {
    ++tally.refused;
    EXPECT_NE(allow, Allow::kAccept) << what << ": refused";
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as a non-cstf exception: "
                  << e.what();
    return;
  }
  ++tally.accepted;
  EXPECT_NE(allow, Allow::kRefuse) << what << ": accepted";
  EXPECT_EQ(reencoded, bytes) << what << ": accepted but misread";
}

template <typename T>
std::string with(std::string bytes, const Field& f, T v) {
  EXPECT_EQ(f.end - f.begin, sizeof(T));
  std::memcpy(&bytes[f.begin], &v, sizeof(T));
  return bytes;
}

/// Every mutation class over one binary format.
Tally fuzzBinary(const Layout& seed, const Reader& read) {
  Tally tally;
  const std::string& b = seed.bytes;
  // The layout is the format: the valid file reads and re-serializes
  // exactly.
  check(read, b, Allow::kAccept, "seed", tally);

  for (std::size_t cut = 0; cut < b.size(); ++cut) {
    check(read, b.substr(0, cut), Allow::kRefuse,
          "truncated to " + std::to_string(cut), tally);
  }
  check(read, b + '\0', Allow::kRefuse, "one trailing byte", tally);

  for (const Field& f : seed.fields) {
    for (std::size_t i = f.begin; i < f.end; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string m = b;
        m[i] = static_cast<char>(m[i] ^ (1 << bit));
        check(read, m, f.flip,
              "bit " + std::to_string(bit) + " of byte " + std::to_string(i),
              tally);
      }
    }
    const std::string at = " at byte " + std::to_string(f.begin);
    switch (f.kind) {
      case Kind::kCount:
        for (const std::uint64_t n :
             {std::uint64_t(1) << 32, std::uint64_t(1) << 62}) {
          check(read, with(b, f, n), Allow::kRefuse,
                "count " + std::to_string(n) + at, tally);
        }
        break;
      case Kind::kDim:
        check(read, with(b, f, std::numeric_limits<std::uint32_t>::max()),
              f.extreme, "dim 2^32-1" + at, tally);
        break;
      case Kind::kIndex:
        check(read, with(b, f, f.dim), Allow::kRefuse, "index = dim" + at,
              tally);
        check(read, with(b, f, std::numeric_limits<std::uint32_t>::max()),
              Allow::kRefuse, "index 2^32-1" + at, tally);
        break;
      case Kind::kValue:
        for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
          check(read, with(b, f, v), f.extreme,
                "value " + std::to_string(v) + at, tally);
        }
        break;
      case Kind::kOther:
        break;
    }
  }

  // Seeded random overwrites of 1-4 bytes, some also truncated.
  Pcg32 rng(20240601);
  for (int c = 0; c < 2000; ++c) {
    std::string m = b;
    const std::uint32_t writes = 1 + rng.nextBounded(4);
    for (std::uint32_t w = 0; w < writes; ++w) {
      m[rng.nextBounded(std::uint32_t(m.size()))] =
          static_cast<char>(rng.nextBounded(256));
    }
    if (rng.nextBounded(4) == 0) {
      m.resize(rng.nextBounded(std::uint32_t(b.size())));
    }
    check(read, m, Allow::kEither, "random case " + std::to_string(c), tally);
  }
  return tally;
}

la::Matrix patterned(std::size_t rows, std::size_t cols) {
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = 0.5 * i - 0.25 * j;
  }
  return m;
}

TEST(ReaderFuzz, Checkpoint) {
  const std::vector<std::uint32_t> dims = {3, 2, 2};
  const std::size_t rank = 2;
  const std::string plan = "join-chain CSTF-QCOO";
  Layout l;
  l.text("CSTFCKP1", Allow::kRefuse);
  l.add<std::uint32_t>(2, Kind::kOther, Allow::kRefuse);  // version
  l.add<std::uint64_t>(77, Kind::kOther, Allow::kAccept);  // seed
  // A flip of the sign bit is refused; any other stays in range.
  l.add<std::int32_t>(4, Kind::kOther, Allow::kEither);  // iteration
  l.add<std::uint64_t>(rank, Kind::kCount, Allow::kRefuse);
  // A smaller order shifts every later field; a larger one is refused.
  l.add<std::uint8_t>(3, Kind::kOther, Allow::kEither);
  // Dims size the factor payload, so any change is refused.
  for (const std::uint32_t d : dims) l.dim(d, Allow::kRefuse, Allow::kRefuse);
  // Checkpoint state is NaN-safe: every value reads, finite or not.
  l.value(0.75, Allow::kAccept);  // prevFit
  l.add<std::uint64_t>(rank, Kind::kCount, Allow::kRefuse);
  l.value(1.5, Allow::kAccept);
  l.value(-0.5, Allow::kAccept);
  l.add<std::uint64_t>(plan.size(), Kind::kCount, Allow::kRefuse);
  l.text(plan, Allow::kAccept);  // free text: any byte reads
  for (const std::uint32_t d : dims) {
    const la::Matrix f = patterned(d, rank);
    for (std::size_t i = 0; i < d * rank; ++i) {
      l.value(f.data()[i], Allow::kAccept);
    }
  }
  const Tally t = fuzzBinary(l, [](const std::string& bytes) {
    std::istringstream in(bytes);
    const cstf_core::CpAlsCheckpoint c = cstf_core::readCheckpoint(in);
    std::ostringstream out;
    cstf_core::writeCheckpoint(out, cstf_core::CheckpointView::of(c));
    return out.str();
  });
  EXPECT_GT(t.refused, 0u);
  EXPECT_GT(t.accepted, 0u);
}

TEST(ReaderFuzz, DeltaBatch) {
  const std::vector<std::uint32_t> dims = {4, 3, 5};
  const std::vector<std::vector<std::uint32_t>> idx = {
      {0, 1, 2}, {3, 2, 4}, {1, 0, 0}};
  Layout l;
  l.text("CSTFDLT1", Allow::kRefuse);
  l.add<std::uint32_t>(1, Kind::kOther, Allow::kRefuse);  // version
  l.add<std::uint64_t>(9, Kind::kOther, Allow::kAccept);  // seq
  l.add<std::uint64_t>(1700000000000000ULL, Kind::kOther,
                       Allow::kAccept);  // createdUnixMicros
  l.add<std::uint8_t>(3, Kind::kOther, Allow::kEither);  // order
  // A larger dim keeps every index in range; a smaller one may not.
  for (const std::uint32_t d : dims) l.dim(d, Allow::kAccept, Allow::kEither);
  // Changing the count moves the end of the batch: refused.
  l.add<std::uint64_t>(idx.size(), Kind::kCount, Allow::kRefuse);
  for (std::size_t e = 0; e < idx.size(); ++e) {
    l.add<std::uint8_t>(3, Kind::kOther, Allow::kRefuse);  // entry order
    for (std::size_t m = 0; m < 3; ++m) l.index(idx[e][m], dims[m]);
    l.value(0.5 + double(e), Allow::kRefuse);
  }
  const Tally t = fuzzBinary(l, [](const std::string& bytes) {
    std::istringstream in(bytes);
    const tensor::Delta d = stream::readDelta(in);
    std::ostringstream out;
    stream::writeDelta(out, d);
    return out.str();
  });
  EXPECT_GT(t.refused, 0u);
  EXPECT_GT(t.accepted, 0u);
}

TEST(ReaderFuzz, BinaryTensor) {
  const std::vector<std::uint32_t> dims = {4, 3, 5, 2};
  const std::vector<std::vector<std::uint32_t>> idx = {
      {0, 1, 2, 1}, {3, 2, 4, 0}, {1, 0, 0, 1}};
  Layout l;
  l.text("CSTFBIN1", Allow::kRefuse);
  l.add<std::uint8_t>(4, Kind::kOther, Allow::kEither);  // order
  for (const std::uint32_t d : dims) l.dim(d, Allow::kAccept, Allow::kEither);
  l.add<std::uint64_t>(idx.size(), Kind::kCount, Allow::kRefuse);  // nnz
  for (std::size_t e = 0; e < idx.size(); ++e) {
    for (std::size_t m = 0; m < dims.size(); ++m) l.index(idx[e][m], dims[m]);
    l.value(-1.25 * double(e + 1), Allow::kRefuse);
  }
  const Tally t = fuzzBinary(l, [](const std::string& bytes) {
    std::istringstream in(bytes);
    const tensor::CooTensor c = tensor::readBinary(in);
    std::ostringstream out;
    tensor::writeBinary(out, c);
    return out.str();
  });
  EXPECT_GT(t.refused, 0u);
  EXPECT_GT(t.accepted, 0u);
}

/// .tns is text: many mutations still parse. An accept must hold only
/// indices inside its dims.
std::string readTnsChecked(const std::string& text) {
  std::istringstream in(text);
  const tensor::CooTensor t = tensor::readTns(in);
  t.validate();
  return text;
}

TEST(ReaderFuzz, TnsText) {
  const std::string seed =
      "# dims: 4 5 3\n"
      "1 2 3 1.5\n"
      "4 5 1 -2.25\n"
      "2 1 3 0.125\n";
  Tally tally;
  check(readTnsChecked, seed, Allow::kAccept, "seed", tally);

  // Truncation: a cut on a line or number boundary may leave a shorter
  // valid file (accept); any other cut is refused.
  for (std::size_t cut = 0; cut < seed.size(); ++cut) {
    check(readTnsChecked, seed.substr(0, cut), Allow::kEither,
          "truncated to " + std::to_string(cut), tally);
  }

  auto replaced = [&](const std::string& from, const std::string& to) {
    std::string s = seed;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  // Inflated indices and dims (2^32, 2^62), and an index past its
  // declared dim, are refused.
  for (const std::string big : {"4294967296", "4611686018427387904"}) {
    check(readTnsChecked, replaced("4 5 1", big + " 5 1"), Allow::kRefuse,
          "index " + big, tally);
    check(readTnsChecked, replaced("dims: 4", "dims: " + big),
          Allow::kRefuse, "dim " + big, tally);
  }
  check(readTnsChecked, replaced("4 5 1", "4 6 1"), Allow::kRefuse,
        "index past its dim", tally);
  check(readTnsChecked, replaced("4 5 1", "0 5 1"), Allow::kRefuse,
        "index 0 (1-based)", tally);
  // NaN, +/-Inf and an overflow to Inf are refused.
  for (const std::string v : {"nan", "inf", "-inf", "1e999"}) {
    check(readTnsChecked, replaced("1.5", v), Allow::kRefuse, "value " + v,
          tally);
  }

  // Seeded random overwrites from the characters a .tns file is made of.
  const std::string alphabet = "0123456789 .-+eE#\n\tnaif:dims";
  Pcg32 rng(20240602);
  for (int c = 0; c < 2000; ++c) {
    std::string m = seed;
    const std::uint32_t writes = 1 + rng.nextBounded(4);
    for (std::uint32_t w = 0; w < writes; ++w) {
      m[rng.nextBounded(std::uint32_t(m.size()))] =
          alphabet[rng.nextBounded(std::uint32_t(alphabet.size()))];
    }
    check(readTnsChecked, m, Allow::kEither,
          "random case " + std::to_string(c), tally);
  }
  EXPECT_GT(tally.refused, 0u);
  EXPECT_GT(tally.accepted, 0u);
}

}  // namespace
}  // namespace cstf
