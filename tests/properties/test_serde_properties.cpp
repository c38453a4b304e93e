// Serde round-trip property sweeps over randomly generated structures:
// any sequence of supported values written into one buffer must read back
// identically, and byteSize must predict encoded length exactly (the byte
// metrics of every experiment depend on it).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "cstf/records.hpp"
#include "la/row.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf {
namespace {

la::Row randomRow(Pcg32& rng, std::size_t rank) {
  la::Row r;
  for (std::size_t i = 0; i < rank; ++i) r.push_back(rng.nextDouble(-5, 5));
  return r;
}

tensor::Nonzero randomNonzero(Pcg32& rng, ModeId order) {
  tensor::Nonzero nz;
  nz.order = order;
  for (ModeId m = 0; m < order; ++m) nz.idx[m] = rng.nextU32() % 100000;
  nz.val = rng.nextDouble(-10, 10);
  return nz;
}

struct SerdeCase {
  std::uint64_t seed;
  std::size_t records;
  ModeId order;
  std::size_t rank;
};

class SerdeRoundTrip : public testing::TestWithParam<SerdeCase> {};

TEST_P(SerdeRoundTrip, NonzeroStream) {
  const auto& c = GetParam();
  Pcg32 rng(c.seed);
  std::vector<tensor::Nonzero> in;
  std::vector<std::uint8_t> buf;
  std::size_t predicted = 0;
  for (std::size_t i = 0; i < c.records; ++i) {
    in.push_back(randomNonzero(rng, c.order));
    predicted += serdeSize(in.back());
    serdeWrite(buf, in.back());
  }
  ASSERT_EQ(buf.size(), predicted);
  Reader r(buf.data(), buf.size());
  for (const auto& expected : in) {
    ASSERT_EQ(serdeRead<tensor::Nonzero>(r), expected);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST_P(SerdeRoundTrip, KeyedCarryStream) {
  const auto& c = GetParam();
  Pcg32 rng(c.seed + 1);
  using Rec = std::pair<Index, cstf_core::Carry>;
  std::vector<Rec> in;
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < c.records; ++i) {
    cstf_core::Carry carry{randomNonzero(rng, c.order),
                           randomRow(rng, c.rank)};
    in.push_back({rng.nextU32(), std::move(carry)});
    serdeWrite(buf, in.back());
    ASSERT_EQ(buf.size() >= serdeSize(in.back()), true);
  }
  Reader r(buf.data(), buf.size());
  for (const auto& expected : in) {
    ASSERT_EQ(serdeRead<Rec>(r), expected);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST_P(SerdeRoundTrip, QRecordStream) {
  const auto& c = GetParam();
  Pcg32 rng(c.seed + 2);
  std::vector<cstf_core::QRecord> in;
  std::vector<std::uint8_t> buf;
  std::size_t predicted = 0;
  for (std::size_t i = 0; i < c.records; ++i) {
    cstf_core::QRecord rec;
    rec.nz = randomNonzero(rng, c.order);
    const std::size_t qlen = 1 + rng.nextBounded(4);
    for (std::size_t q = 0; q < qlen; ++q) {
      rec.enqueue(randomRow(rng, c.rank));
    }
    predicted += serdeSize(rec);
    serdeWrite(buf, rec);
    in.push_back(std::move(rec));
  }
  ASSERT_EQ(buf.size(), predicted);
  Reader r(buf.data(), buf.size());
  for (const auto& expected : in) {
    ASSERT_EQ(serdeRead<cstf_core::QRecord>(r), expected);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST_P(SerdeRoundTrip, MixedHeterogeneousStream) {
  const auto& c = GetParam();
  Pcg32 rng(c.seed + 3);
  std::vector<std::uint8_t> buf;
  // Interleave different record types; the reader must stay in sync.
  std::vector<double> doubles;
  std::vector<std::pair<std::uint64_t, std::string>> strings;
  for (std::size_t i = 0; i < c.records; ++i) {
    doubles.push_back(rng.nextGaussian());
    serdeWrite(buf, doubles.back());
    strings.push_back({rng.nextU64(),
                       std::string(rng.nextBounded(20), 'x')});
    serdeWrite(buf, strings.back());
  }
  Reader r(buf.data(), buf.size());
  for (std::size_t i = 0; i < c.records; ++i) {
    EXPECT_EQ(serdeRead<double>(r), doubles[i]);
    EXPECT_EQ((serdeRead<std::pair<std::uint64_t, std::string>>(r)),
              strings[i]);
  }
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerdeRoundTrip,
    testing::Values(SerdeCase{1, 10, 3, 1}, SerdeCase{2, 100, 3, 2},
                    SerdeCase{3, 50, 4, 4}, SerdeCase{4, 200, 5, 2},
                    SerdeCase{5, 25, 2, 8}, SerdeCase{6, 500, 3, 2},
                    SerdeCase{7, 40, 8, 3}),
    [](const testing::TestParamInfo<SerdeCase>& info) {
      const auto& c = info.param;
      return "s" + std::to_string(c.seed) + "_n" +
             std::to_string(c.records) + "_o" + std::to_string(c.order) +
             "_r" + std::to_string(c.rank);
    });

}  // namespace
}  // namespace cstf
