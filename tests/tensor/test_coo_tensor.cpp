#include "tensor/coo_tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/serde.hpp"

namespace cstf::tensor {
namespace {

TEST(Nonzero, Make3AndIndex) {
  Nonzero nz = makeNonzero3(1, 2, 3, 4.5);
  EXPECT_EQ(nz.order, 3);
  EXPECT_EQ(nz[0], 1u);
  EXPECT_EQ(nz[2], 3u);
  EXPECT_DOUBLE_EQ(nz.val, 4.5);
}

TEST(Nonzero, MakeFromVector) {
  Nonzero nz = makeNonzero({5, 6, 7, 8, 9}, -1.0);
  EXPECT_EQ(nz.order, 5);
  EXPECT_EQ(nz[4], 9u);
}

TEST(Nonzero, SerdeRoundTripEncodesOnlyUsedIndices) {
  using Codec = FixedWidthSerde<Nonzero>;
  Nonzero nz3 = makeNonzero3(10, 20, 30, 1.25);
  EXPECT_EQ(Codec::width(nz3), 1u + 3 * 4u + 8u);
  std::vector<std::uint8_t> buf(Codec::width(nz3));
  Codec::encode(buf.data(), nz3);
  Nonzero back;
  EXPECT_EQ(Codec::decode(buf.data(), back), buf.data() + buf.size());
  EXPECT_EQ(back, nz3);

  Nonzero nz4 = makeNonzero4(1, 2, 3, 4, 0.5);
  EXPECT_EQ(Codec::width(nz4), 1u + 4 * 4u + 8u);
}

TEST(CooTensor, BasicAccessors) {
  CooTensor t({4, 5, 6}, {makeNonzero3(0, 1, 2, 1.0)}, "tiny");
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.dim(1), 5u);
  EXPECT_EQ(t.nnz(), 1u);
  EXPECT_EQ(t.maxModeSize(), 6u);
  EXPECT_EQ(t.name(), "tiny");
}

TEST(CooTensor, Density) {
  CooTensor t({10, 10, 10},
              {makeNonzero3(0, 0, 0, 1.0), makeNonzero3(1, 1, 1, 1.0)});
  EXPECT_DOUBLE_EQ(t.density(), 2.0 / 1000.0);
}

TEST(CooTensor, Norm) {
  CooTensor t({2, 2, 2},
              {makeNonzero3(0, 0, 0, 3.0), makeNonzero3(1, 1, 1, 4.0)});
  EXPECT_DOUBLE_EQ(t.norm(), 5.0);
}

TEST(CooTensor, CoalesceSumsDuplicates) {
  CooTensor t({3, 3, 3},
              {makeNonzero3(1, 1, 1, 2.0), makeNonzero3(0, 0, 0, 1.0),
               makeNonzero3(1, 1, 1, 3.0)});
  t.coalesce();
  ASSERT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.nonzeros()[0], makeNonzero3(0, 0, 0, 1.0));
  EXPECT_EQ(t.nonzeros()[1], makeNonzero3(1, 1, 1, 5.0));
}

TEST(CooTensor, CoalesceDropsCancellations) {
  CooTensor t({2, 2, 2},
              {makeNonzero3(0, 1, 0, 2.0), makeNonzero3(0, 1, 0, -2.0)});
  t.coalesce();
  EXPECT_EQ(t.nnz(), 0u);
}

TEST(CooTensor, ValidateAcceptsGood) {
  CooTensor t({2, 3, 4}, {makeNonzero3(1, 2, 3, 1.0)});
  EXPECT_NO_THROW(t.validate());
}

TEST(CooTensor, ValidateRejectsOutOfRangeIndex) {
  CooTensor t({2, 3, 4}, {makeNonzero3(2, 0, 0, 1.0)});
  EXPECT_THROW(t.validate(), Error);
}

TEST(CooTensor, ValidateRejectsWrongOrder) {
  CooTensor t({2, 3, 4}, {makeNonzero4(0, 0, 0, 0, 1.0)});
  EXPECT_THROW(t.validate(), Error);
}

TEST(CooTensor, RejectsZeroOrder) {
  EXPECT_THROW(CooTensor({}, {}), Error);
}

}  // namespace
}  // namespace cstf::tensor
