// FixedWidthSerde contract tests: for every specialization the flat
// encoding must be byte-for-byte the stream Serde<T>::write produces,
// width() must equal serdeSize(), and decode must round-trip. The shuffle
// codec's byte metering rests on exactly these properties.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "common/small_vector.hpp"
#include "cstf/records.hpp"
#include "la/row.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf {
namespace {

template <typename T>
void expectFastMatchesSlow(const T& v) {
  ASSERT_TRUE(FixedWidthSerde<T>::value);
  // Width agrees with the serde size rules.
  EXPECT_EQ(FixedWidthSerde<T>::width(v), serdeSize(v));

  // Fast encoding is byte-identical to the Writer encoding.
  std::vector<std::uint8_t> slow;
  serdeWrite(slow, v);
  std::vector<std::uint8_t> fast(FixedWidthSerde<T>::width(v), 0);
  std::uint8_t* end = FixedWidthSerde<T>::encode(fast.data(), v);
  ASSERT_EQ(end, fast.data() + fast.size());
  EXPECT_EQ(fast, slow);

  // Fast decode round-trips from the fast bytes...
  T back{};
  const std::uint8_t* rend = FixedWidthSerde<T>::decode(fast.data(), back);
  ASSERT_EQ(rend, fast.data() + fast.size());
  EXPECT_EQ(back, v);

  // ...and the slow Reader decodes the fast bytes too (interchangeable).
  Reader r(fast.data(), fast.size());
  EXPECT_EQ(serdeRead<T>(r), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(FixedWidthSerde, Arithmetic) {
  expectFastMatchesSlow<std::uint8_t>(42);
  expectFastMatchesSlow<std::uint32_t>(0xdeadbeef);
  expectFastMatchesSlow<std::int64_t>(-123456789012345);
  expectFastMatchesSlow<double>(3.14159);
  expectFastMatchesSlow<float>(-2.5f);
  expectFastMatchesSlow<bool>(true);
  EXPECT_EQ(FixedWidthSerde<double>::kStaticWidth, sizeof(double));
}

enum class Color : std::uint16_t { kRed = 1, kBlue = 7 };

TEST(FixedWidthSerde, Enum) {
  ASSERT_TRUE(FixedWidthSerde<Color>::value);
  std::vector<std::uint8_t> slow;
  serdeWrite(slow, Color::kBlue);
  std::vector<std::uint8_t> fast(sizeof(Color), 0);
  FixedWidthSerde<Color>::encode(fast.data(), Color::kBlue);
  EXPECT_EQ(fast, slow);
  Color back{};
  FixedWidthSerde<Color>::decode(fast.data(), back);
  EXPECT_EQ(back, Color::kBlue);
}

TEST(FixedWidthSerde, Pair) {
  expectFastMatchesSlow(std::pair<std::uint32_t, double>{7, 2.5});
  // Packed serde width, not padded struct width.
  using P = std::pair<std::uint32_t, double>;
  EXPECT_EQ(FixedWidthSerde<P>::kStaticWidth, 12u);
  EXPECT_NE(FixedWidthSerde<P>::kStaticWidth, sizeof(P));
}

TEST(FixedWidthSerde, Tuple) {
  expectFastMatchesSlow(
      std::tuple<std::uint8_t, std::uint32_t, double>{3, 99, -1.25});
  using T3 = std::tuple<std::uint8_t, std::uint32_t, double>;
  EXPECT_EQ(FixedWidthSerde<T3>::kStaticWidth, 13u);
}

TEST(FixedWidthSerde, Array) {
  expectFastMatchesSlow(std::array<std::uint32_t, 4>{1, 2, 3, 4});
  EXPECT_EQ((FixedWidthSerde<std::array<std::uint32_t, 4>>::kStaticWidth),
            16u);
}

TEST(FixedWidthSerde, SmallVecInlineAndHeap) {
  expectFastMatchesSlow(SmallVec<double, 4>{});            // empty
  expectFastMatchesSlow(SmallVec<double, 4>{1.0, 2.0});    // inline
  expectFastMatchesSlow(
      SmallVec<double, 4>{1, 2, 3, 4, 5, 6});              // spilled to heap
  // Value-dependent width: no static width.
  EXPECT_EQ((FixedWidthSerde<SmallVec<double, 4>>::kStaticWidth), 0u);
}

TEST(FixedWidthSerde, NestedSmallVec) {
  SmallVec<SmallVec<double, 4>, 4> nested;
  nested.push_back(SmallVec<double, 4>{1.0, 2.0});
  nested.push_back(SmallVec<double, 4>{});
  nested.push_back(SmallVec<double, 4>{3.0});
  expectFastMatchesSlow(nested);
}

TEST(FixedWidthSerde, Nonzero) {
  expectFastMatchesSlow(tensor::makeNonzero3(5, 6, 7, 1.5));
  expectFastMatchesSlow(tensor::makeNonzero4(1, 2, 3, 4, -0.5));
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
  expectFastMatchesSlow(c);

  cstf_core::Carry empty;
  empty.nz = tensor::makeNonzero4(1, 2, 3, 4, 1.0);
  expectFastMatchesSlow(empty);  // pre-first-join: no partial yet
}

TEST(FixedWidthSerde, QRecordWithQueue) {
  cstf_core::QRecord q;
  q.nz = tensor::makeNonzero3(3, 2, 1, -1.0);
  q.enqueue(la::Row{1.0, 2.0});
  q.enqueue(la::Row{3.0, 4.0});
  expectFastMatchesSlow(q);

  cstf_core::QRecord fresh;
  fresh.nz = tensor::makeNonzero3(0, 0, 0, 1.0);
  expectFastMatchesSlow(fresh);  // empty queue before seeding
}

TEST(FixedWidthSerde, ShuffledRecordShapes) {
  // The exact pair shapes the COO/QCOO dataflows ship.
  cstf_core::Carry c;
  c.nz = tensor::makeNonzero3(1, 2, 3, 4.0);
  c.partial = la::Row{9.0, 8.0};
  expectFastMatchesSlow(std::pair<Index, cstf_core::Carry>{17, c});
  expectFastMatchesSlow(std::pair<Index, la::Row>{4, la::Row{1.0, 2.0}});
}

TEST(FixedWidthSerde, BatchEncodeDecodeMatchesPerRecord) {
  std::vector<std::pair<std::uint32_t, double>> recs;
  for (std::uint32_t i = 0; i < 100; ++i) recs.push_back({i, i * 0.5});

  std::vector<std::uint8_t> slow;
  for (const auto& r : recs) serdeWrite(slow, r);
  std::vector<std::uint8_t> fast;
  fixedWidthEncodeAppend(fast, recs);
  EXPECT_EQ(fast, slow);

  std::vector<std::pair<std::uint32_t, double>> back;
  fixedWidthDecodeStream(fast.data(), fast.size(), back);
  EXPECT_EQ(back, recs);
}

TEST(FixedWidthSerde, BatchHandlesVariableWidthRecords) {
  // Mixed-order nonzeros: per-value widths differ, but the batch helpers
  // still produce the exact serde stream.
  std::vector<tensor::Nonzero> recs = {
      tensor::makeNonzero3(1, 2, 3, 1.0),
      tensor::makeNonzero4(4, 5, 6, 7, 2.0),
      tensor::makeNonzero3(8, 9, 10, 3.0),
  };
  std::vector<std::uint8_t> slow;
  for (const auto& r : recs) serdeWrite(slow, r);
  std::vector<std::uint8_t> fast;
  fixedWidthEncodeAppend(fast, recs);
  EXPECT_EQ(fast, slow);

  std::vector<tensor::Nonzero> back;
  fixedWidthDecodeStream(fast.data(), fast.size(), back);
  EXPECT_EQ(back, recs);
}

TEST(FixedWidthSerde, IneligibleTypesReportFalse) {
  EXPECT_FALSE(FixedWidthSerde<std::string>::value);
  EXPECT_FALSE((FixedWidthSerde<std::vector<double>>::value));
  EXPECT_FALSE((FixedWidthSerde<std::pair<std::string, double>>::value));
}

}  // namespace
}  // namespace cstf
