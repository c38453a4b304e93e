// FixedWidthSerde contract tests: for every specialization the flat
// encoding must be byte-for-byte the little-endian layout the wire format
// spells out (built independently by testsupport::LeBytes), width() must
// equal the encoded size, and decode must round-trip. Every byte meter in
// the engine rests on exactly these properties.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "common/small_vector.hpp"
#include "cstf/records.hpp"
#include "la/row.hpp"
#include "support/le_bytes.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf {
namespace {

using testsupport::LeBytes;

template <typename T>
void expectEncodes(const T& v, const LeBytes& want) {
  ASSERT_TRUE(FixedWidthSerde<T>::value);
  EXPECT_EQ(FixedWidthSerde<T>::width(v), want.bytes.size());

  std::vector<std::uint8_t> got(FixedWidthSerde<T>::width(v), 0);
  std::uint8_t* end = FixedWidthSerde<T>::encode(got.data(), v);
  ASSERT_EQ(end, got.data() + got.size());
  EXPECT_EQ(got, want.bytes);

  T back{};
  const std::uint8_t* rend =
      FixedWidthSerde<T>::decode(want.bytes.data(), back);
  ASSERT_EQ(rend, want.bytes.data() + want.bytes.size());
  EXPECT_EQ(back, v);
}

/// Scalars encode as themselves.
template <typename T>
void expectScalar(T v) {
  expectEncodes(v, LeBytes().put(v));
}

// The grid cases below cover every length the per-element codec loops
// take: each Nonzero order, QRecord queues from inline to spilled buffers,
// and Row ranks from empty past the inline capacity.

/// A distinct, non-round value per (a, b): every byte of it matters.
double gridValue(std::size_t a, std::size_t b) {
  return (static_cast<double>(a) + 1.0) * 0.3125 -
         static_cast<double>(b) / 7.0;
}

tensor::Nonzero gridNonzero(std::size_t order) {
  std::vector<Index> idx;
  for (std::size_t m = 0; m < order; ++m) {
    idx.push_back(static_cast<Index>(0x01020304u * (m + 1) + order));
  }
  return tensor::makeNonzero(idx, gridValue(order, 99));
}

TEST(FixedWidthSerde, Arithmetic) {
  expectScalar<std::uint8_t>(42);
  expectScalar<std::uint32_t>(0xdeadbeef);
  expectScalar<std::int64_t>(-123456789012345);
  expectScalar<double>(3.14159);
  expectScalar<float>(-2.5f);
  expectScalar<bool>(true);
  // The builder is an independent oracle: 0xdeadbeef is ef be ad de.
  EXPECT_EQ(LeBytes().put(std::uint32_t{0xdeadbeef}).bytes,
            (std::vector<std::uint8_t>{0xef, 0xbe, 0xad, 0xde}));
  EXPECT_EQ(FixedWidthSerde<double>::kStaticWidth, sizeof(double));
}

enum class Color : std::uint16_t { kRed = 1, kBlue = 7 };

TEST(FixedWidthSerde, Enum) {
  expectEncodes(Color::kBlue, LeBytes().put(std::uint16_t{7}));
}

TEST(FixedWidthSerde, Pair) {
  expectEncodes(std::pair<std::uint32_t, double>{7, 2.5},
                LeBytes().put(std::uint32_t{7}).put(2.5));
  // Packed serde width, not padded struct width.
  using P = std::pair<std::uint32_t, double>;
  EXPECT_EQ(FixedWidthSerde<P>::kStaticWidth, 12u);
  EXPECT_NE(FixedWidthSerde<P>::kStaticWidth, sizeof(P));
}

TEST(FixedWidthSerde, Tuple) {
  expectEncodes(
      std::tuple<std::uint8_t, std::uint32_t, double>{3, 99, -1.25},
      LeBytes().put(std::uint8_t{3}).put(std::uint32_t{99}).put(-1.25));
  using T3 = std::tuple<std::uint8_t, std::uint32_t, double>;
  EXPECT_EQ(FixedWidthSerde<T3>::kStaticWidth, 13u);
}

TEST(FixedWidthSerde, Array) {
  const std::array<std::uint32_t, 4> a{1, 2, 3, 4};
  LeBytes want;
  for (const std::uint32_t x : a) want.put(x);  // no length prefix
  expectEncodes(a, want);
  EXPECT_EQ((FixedWidthSerde<std::array<std::uint32_t, 4>>::kStaticWidth),
            16u);
}

TEST(FixedWidthSerde, SmallVecInlineAndHeap) {
  for (const SmallVec<double, 4>& v :
       {SmallVec<double, 4>{},                      // empty
        SmallVec<double, 4>{1.0, 2.0},              // inline
        SmallVec<double, 4>{1, 2, 3, 4, 5, 6}}) {  // spilled to heap
    expectEncodes(v, LeBytes().seq(v));
  }
  // A factor Row at every rank class: empty, inline, full, spilled.
  for (const std::size_t rank : {0, 1, 4, 5, 16}) {
    SCOPED_TRACE("R " + std::to_string(rank));
    la::Row row;
    for (std::size_t k = 0; k < rank; ++k) row.push_back(gridValue(rank, k));
    expectEncodes(row, LeBytes().seq(row));
    expectEncodes(std::pair<Index, la::Row>{static_cast<Index>(rank), row},
                  LeBytes().put(static_cast<Index>(rank)).seq(row));
  }
  // Value-dependent width: no static width.
  EXPECT_EQ((FixedWidthSerde<SmallVec<double, 4>>::kStaticWidth), 0u);
}

TEST(FixedWidthSerde, NestedSmallVec) {
  SmallVec<SmallVec<double, 4>, 4> nested;
  nested.push_back(SmallVec<double, 4>{1.0, 2.0});
  nested.push_back(SmallVec<double, 4>{});
  nested.push_back(SmallVec<double, 4>{3.0});
  LeBytes want;
  want.put(std::uint32_t{3});
  for (const auto& inner : nested) want.seq(inner);
  expectEncodes(nested, want);
}

TEST(FixedWidthSerde, Nonzero) {
  for (const tensor::Nonzero& nz : {tensor::makeNonzero3(5, 6, 7, 1.5),
                                    tensor::makeNonzero4(1, 2, 3, 4, -0.5)}) {
    expectEncodes(nz, LeBytes().nonzero(nz));
  }
  for (std::size_t order = 1; order <= kMaxOrder; ++order) {
    SCOPED_TRACE("order " + std::to_string(order));
    const tensor::Nonzero nz = gridNonzero(order);
    expectEncodes(nz, LeBytes().nonzero(nz));
  }
  // Width depends on the order carried by the record.
  EXPECT_NE(
      FixedWidthSerde<tensor::Nonzero>::width(tensor::makeNonzero3(0, 0, 0, 1)),
      FixedWidthSerde<tensor::Nonzero>::width(
          tensor::makeNonzero4(0, 0, 0, 0, 1)));
}

TEST(FixedWidthSerde, CarryRecord) {
  cstf_core::Carry c;
  c.nz = tensor::makeNonzero3(10, 20, 30, 2.5);
  c.partial = la::Row{0.5, -0.25};
  expectEncodes(c, LeBytes().carry(c));

  cstf_core::Carry empty;
  empty.nz = tensor::makeNonzero4(1, 2, 3, 4, 1.0);
  expectEncodes(empty, LeBytes().carry(empty));  // pre-first-join
}

TEST(FixedWidthSerde, QRecordWithQueue) {
  cstf_core::QRecord q;
  q.nz = tensor::makeNonzero3(3, 2, 1, -1.0);
  q.enqueue(la::Row{1.0, 2.0});
  q.enqueue(la::Row{3.0, 4.0});
  expectEncodes(q, LeBytes().qrecord(q));

  cstf_core::QRecord fresh;
  fresh.nz = tensor::makeNonzero3(0, 0, 0, 1.0);
  expectEncodes(fresh, LeBytes().qrecord(fresh));  // empty queue

  // The N-1 queued rows of an order-N QCOO record, R doubles each; eight
  // doubles fit inline.
  std::size_t inlineCases = 0;
  std::size_t spilledCases = 0;
  for (std::size_t order = 2; order <= kMaxOrder; ++order) {
    for (const std::size_t rank : {1, 2, 4, 5, 16}) {
      SCOPED_TRACE("order " + std::to_string(order) + ", R " +
                   std::to_string(rank));
      cstf_core::QRecord grid;
      grid.nz = gridNonzero(order);
      for (std::size_t i = 0; i + 1 < order; ++i) {
        la::Row row;
        for (std::size_t k = 0; k < rank; ++k) {
          row.push_back(gridValue(i, k));
        }
        grid.enqueue(row);
      }
      ((order - 1) * rank > 8 ? spilledCases : inlineCases) += 1;
      expectEncodes(grid, LeBytes().qrecord(grid));
    }
  }
  EXPECT_GT(inlineCases, 0u);
  EXPECT_GT(spilledCases, 0u);
}

TEST(FixedWidthSerde, ShuffledRecordShapes) {
  // The exact pair shapes the COO/QCOO dataflows ship.
  cstf_core::Carry c;
  c.nz = tensor::makeNonzero3(1, 2, 3, 4.0);
  c.partial = la::Row{9.0, 8.0};
  expectEncodes(std::pair<Index, cstf_core::Carry>{17, c},
                LeBytes().put(Index{17}).carry(c));
  const la::Row row{1.0, 2.0};
  expectEncodes(std::pair<Index, la::Row>{4, row},
                LeBytes().put(Index{4}).seq(row));
}

TEST(FixedWidthSerde, BatchEncodeDecodeMatchesPerRecord) {
  std::vector<std::pair<std::uint32_t, double>> recs;
  for (std::uint32_t i = 0; i < 100; ++i) recs.push_back({i, i * 0.5});

  LeBytes want;
  for (const auto& [k, v] : recs) want.put(k).put(v);
  std::vector<std::uint8_t> fast;
  fixedWidthEncodeAppend(fast, recs);
  EXPECT_EQ(fast, want.bytes);

  std::vector<std::pair<std::uint32_t, double>> back;
  fixedWidthDecodeStream(fast.data(), fast.size(), back);
  EXPECT_EQ(back, recs);
}

TEST(FixedWidthSerde, BatchHandlesVariableWidthRecords) {
  // Mixed-order nonzeros: per-value widths differ, but the batch helpers
  // still produce the exact byte stream.
  std::vector<tensor::Nonzero> recs = {
      tensor::makeNonzero3(1, 2, 3, 1.0),
      tensor::makeNonzero4(4, 5, 6, 7, 2.0),
      tensor::makeNonzero3(8, 9, 10, 3.0),
  };
  LeBytes want;
  for (const auto& r : recs) want.nonzero(r);
  std::vector<std::uint8_t> fast;
  fixedWidthEncodeAppend(fast, recs);
  EXPECT_EQ(fast, want.bytes);

  std::vector<tensor::Nonzero> back;
  fixedWidthDecodeStream(fast.data(), fast.size(), back);
  EXPECT_EQ(back, recs);
}

TEST(FixedWidthSerde, DecodeStreamAppendsAfterExistingRecords) {
  using Rec = std::pair<Index, cstf_core::QRecord>;
  std::vector<Rec> recs;
  for (std::size_t order = 2; order <= 5; ++order) {
    Rec r{static_cast<Index>(order), {}};
    r.second.nz = gridNonzero(order);
    for (std::size_t i = 0; i + 1 < order; ++i) {
      r.second.enqueue(la::Row{gridValue(i, 0), gridValue(i, 1)});
    }
    recs.push_back(r);
  }
  LeBytes want;
  for (const Rec& r : recs) want.put(r.first).qrecord(r.second);
  std::vector<std::uint8_t> bytes;
  fixedWidthEncodeAppend(bytes, recs);
  ASSERT_EQ(bytes, want.bytes);

  std::vector<Rec> out(2);
  out[0].first = 7;
  out[1] = recs.back();
  const std::vector<Rec> before = out;
  fixedWidthDecodeStream(want.bytes.data(), want.bytes.size(), out);
  ASSERT_EQ(out.size(), before.size() + recs.size());
  EXPECT_EQ(std::vector<Rec>(out.begin(), out.begin() + 2), before);
  EXPECT_EQ(std::vector<Rec>(out.begin() + 2, out.end()), recs);
}

TEST(FixedWidthSerde, IneligibleTypesReportFalse) {
  EXPECT_FALSE(FixedWidthSerde<std::string>::value);
  EXPECT_FALSE((FixedWidthSerde<std::vector<std::string>>::value));
  EXPECT_FALSE((FixedWidthSerde<std::pair<std::string, double>>::value));
}

TEST(FixedWidthSerde, VectorIsTheSequenceCodec) {
  // A std::vector encodes exactly like a SmallVec of the same elements.
  const std::vector<double> v{1.0, -2.0, 0.5};
  expectEncodes(v, LeBytes().seq(v));
  expectEncodes(std::vector<double>{}, LeBytes().put(std::uint32_t{0}));
  const std::vector<std::pair<std::uint32_t, double>> pairs{{1, 1.5},
                                                            {2, 2.5}};
  expectEncodes(pairs, LeBytes()
                           .put(std::uint32_t{2})
                           .put(std::uint32_t{1})
                           .put(1.5)
                           .put(std::uint32_t{2})
                           .put(2.5));
}

}  // namespace
}  // namespace cstf
