// Record-codec round-trip property sweeps over randomly generated
// structures: any sequence of supported values encoded into one buffer
// must be exactly the little-endian layout testsupport::LeBytes spells out
// and must decode back identically, so width() predicts encoded length
// exactly (the byte metrics of every experiment depend on it).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/strings.hpp"
#include "cstf/records.hpp"
#include "la/row.hpp"
#include "support/le_bytes.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf {
namespace {

using testsupport::LeBytes;

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

/// Encode `in` as one stream, compare it with `want`, decode it back.
template <typename T>
void expectStream(const std::vector<T>& in, const LeBytes& want) {
  std::vector<std::uint8_t> buf;
  fixedWidthEncodeAppend(buf, in);
  ASSERT_EQ(buf, want.bytes);
  std::vector<T> back;
  fixedWidthDecodeStream(buf.data(), buf.size(), back);
  ASSERT_EQ(back, in);
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
  LeBytes want;
  for (std::size_t i = 0; i < c.records; ++i) {
    in.push_back(randomNonzero(rng, c.order));
    want.nonzero(in.back());
  }
  expectStream(in, want);
}

TEST_P(SerdeRoundTrip, KeyedCarryStream) {
  const auto& c = GetParam();
  Pcg32 rng(c.seed + 1);
  using Rec = std::pair<Index, cstf_core::Carry>;
  std::vector<Rec> in;
  LeBytes want;
  for (std::size_t i = 0; i < c.records; ++i) {
    cstf_core::Carry carry{randomNonzero(rng, c.order),
                           randomRow(rng, c.rank)};
    in.push_back({rng.nextU32(), std::move(carry)});
    want.put(in.back().first).carry(in.back().second);
  }
  expectStream(in, want);
}

TEST_P(SerdeRoundTrip, QRecordStream) {
  const auto& c = GetParam();
  Pcg32 rng(c.seed + 2);
  std::vector<cstf_core::QRecord> in;
  LeBytes want;
  for (std::size_t i = 0; i < c.records; ++i) {
    cstf_core::QRecord rec;
    rec.nz = randomNonzero(rng, c.order);
    const std::size_t qlen = 1 + rng.nextBounded(4);
    for (std::size_t q = 0; q < qlen; ++q) {
      rec.enqueue(randomRow(rng, c.rank));
    }
    want.qrecord(rec);
    in.push_back(std::move(rec));
  }
  expectStream(in, want);
}

TEST_P(SerdeRoundTrip, MixedHeterogeneousStream) {
  const auto& c = GetParam();
  Pcg32 rng(c.seed + 3);
  // Interleave different record types, one of variable length, in one
  // buffer; decoding with a moving cursor must stay in sync.
  using Tagged = std::pair<std::uint64_t, std::vector<std::uint8_t>>;
  std::vector<double> doubles;
  std::vector<Tagged> tagged;
  LeBytes want;
  std::size_t total = 0;
  for (std::size_t i = 0; i < c.records; ++i) {
    doubles.push_back(rng.nextGaussian());
    tagged.push_back({rng.nextU64(),
                      std::vector<std::uint8_t>(rng.nextBounded(20), 'x')});
    want.put(doubles.back()).put(tagged.back().first).seq(tagged.back().second);
    total += FixedWidthSerde<double>::width(doubles.back()) +
             FixedWidthSerde<Tagged>::width(tagged.back());
  }
  std::vector<std::uint8_t> buf(total);
  std::uint8_t* dst = buf.data();
  for (std::size_t i = 0; i < c.records; ++i) {
    dst = FixedWidthSerde<double>::encode(dst, doubles[i]);
    dst = FixedWidthSerde<Tagged>::encode(dst, tagged[i]);
  }
  ASSERT_EQ(dst, buf.data() + buf.size());
  ASSERT_EQ(buf, want.bytes);
  const std::uint8_t* src = buf.data();
  for (std::size_t i = 0; i < c.records; ++i) {
    double d = 0.0;
    Tagged t;
    src = FixedWidthSerde<double>::decode(src, d);
    src = FixedWidthSerde<Tagged>::decode(src, t);
    EXPECT_EQ(d, doubles[i]);
    EXPECT_EQ(t, tagged[i]);
  }
  EXPECT_EQ(src, buf.data() + buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerdeRoundTrip,
    testing::Values(SerdeCase{1, 10, 3, 1}, SerdeCase{2, 100, 3, 2},
                    SerdeCase{3, 50, 4, 4}, SerdeCase{4, 200, 5, 2},
                    SerdeCase{5, 25, 2, 8}, SerdeCase{6, 500, 3, 2},
                    SerdeCase{7, 40, 8, 3}),
    [](const testing::TestParamInfo<SerdeCase>& info) {
      const auto& c = info.param;
      return strprintf("s%llu_n%zu_o%u_r%zu",
                       static_cast<unsigned long long>(c.seed), c.records,
                       unsigned(c.order), c.rank);
    });

}  // namespace
}  // namespace cstf
