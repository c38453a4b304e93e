// Serde: the record codec's sizes, pinned by literals, and its round trips.
#include "common/serde.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/small_vector.hpp"

namespace cstf {
namespace {

template <typename T>
std::size_t serdeWidth(const T& v) {
  return FixedWidthSerde<T>::width(v);
}

template <typename T>
T roundTrip(const T& v) {
  std::vector<std::uint8_t> buf(serdeWidth(v));
  EXPECT_EQ(FixedWidthSerde<T>::encode(buf.data(), v), buf.data() + buf.size())
      << "width must match the encoded size";
  T out{};
  EXPECT_EQ(FixedWidthSerde<T>::decode(buf.data(), out),
            buf.data() + buf.size());
  return out;
}

TEST(Serde, Integers) {
  EXPECT_EQ(roundTrip<std::uint8_t>(0xAB), 0xAB);
  EXPECT_EQ(roundTrip<std::uint32_t>(0xDEADBEEF), 0xDEADBEEFu);
  EXPECT_EQ(roundTrip<std::int64_t>(-1234567890123LL), -1234567890123LL);
  EXPECT_EQ(serdeWidth(std::uint32_t{7}), 4u);
  EXPECT_EQ(serdeWidth(std::uint64_t{7}), 8u);
}

TEST(Serde, Doubles) {
  EXPECT_DOUBLE_EQ(roundTrip(3.14159), 3.14159);
  EXPECT_DOUBLE_EQ(roundTrip(-0.0), -0.0);
  EXPECT_EQ(serdeWidth(1.0), 8u);
}

TEST(Serde, Pair) {
  auto p = std::make_pair(std::uint32_t{42}, 2.5);
  EXPECT_EQ(roundTrip(p), p);
  EXPECT_EQ(serdeWidth(p), 12u);
}

TEST(Serde, NestedPair) {
  std::pair<std::uint32_t, std::pair<std::uint64_t, double>> p{
      1, {2, 3.0}};
  EXPECT_EQ(roundTrip(p), p);
  EXPECT_EQ(serdeWidth(p), 20u);
}

TEST(Serde, Tuple) {
  auto t = std::make_tuple(std::uint32_t{1}, 2.0, std::uint8_t{3});
  EXPECT_EQ(roundTrip(t), t);
  EXPECT_EQ(serdeWidth(t), 13u);
}

TEST(Serde, VectorOfDoubles) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(roundTrip(v), v);
  EXPECT_EQ(serdeWidth(v), 4u + 3 * 8u);
}

TEST(Serde, EmptyVector) {
  std::vector<double> v;
  EXPECT_EQ(roundTrip(v), v);
  EXPECT_EQ(serdeWidth(v), 4u);
}

TEST(Serde, VectorOfPairs) {
  std::vector<std::pair<std::uint32_t, double>> v{{1, 1.5}, {2, 2.5}};
  EXPECT_EQ(roundTrip(v), v);
  EXPECT_EQ(serdeWidth(v), 4u + 2 * 12u);
}

TEST(Serde, SmallVec) {
  SmallVec<double, 4> v{1.0, 2.0};
  auto out = roundTrip(v);
  EXPECT_EQ(out, v);
  EXPECT_EQ(serdeWidth(v), 4u + 2 * 8u);
}

TEST(Serde, SmallVecSpilled) {
  SmallVec<double, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i * 0.5);
  EXPECT_EQ(roundTrip(v), v);
}

TEST(Serde, Array) {
  std::array<std::uint32_t, 3> a{7, 8, 9};
  EXPECT_EQ(roundTrip(a), a);
  EXPECT_EQ(serdeWidth(a), 12u);
}

TEST(Serde, SequentialRecordsInOneBuffer) {
  std::vector<std::pair<std::uint32_t, double>> recs;
  for (std::uint32_t i = 0; i < 100; ++i) {
    recs.emplace_back(i, static_cast<double>(i) * 0.5);
  }
  std::vector<std::uint8_t> buf;
  fixedWidthEncodeAppend(buf, recs);
  EXPECT_EQ(buf.size(), 100u * 12u);
  std::vector<std::pair<std::uint32_t, double>> back;
  fixedWidthDecodeStream(buf.data(), buf.size(), back);
  ASSERT_EQ(back.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(back[i].first, i);
    EXPECT_DOUBLE_EQ(back[i].second, i * 0.5);
  }
}

}  // namespace
}  // namespace cstf
