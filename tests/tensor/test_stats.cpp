#include "tensor/stats.hpp"

#include <gtest/gtest.h>

#include "tensor/generator.hpp"

namespace cstf::tensor {
namespace {

TEST(TensorStats, HandComputedTinyTensor) {
  // Mode 0: index 0 has 3 nonzeros, index 1 has 1.
  CooTensor t({2, 4, 4},
              {makeNonzero3(0, 0, 0, 1.0), makeNonzero3(0, 1, 1, 2.0),
               makeNonzero3(0, 2, 2, 3.0), makeNonzero3(1, 3, 3, 4.0)});
  const TensorStats s = analyzeTensor(t);
  EXPECT_EQ(s.nnz, 4u);
  EXPECT_DOUBLE_EQ(s.minValue, 1.0);
  EXPECT_DOUBLE_EQ(s.maxValue, 4.0);
  EXPECT_DOUBLE_EQ(s.meanValue, 2.5);

  ASSERT_EQ(s.modes.size(), 3u);
  const ModeStats& m0 = s.modes[0];
  EXPECT_EQ(m0.dimension, 2u);
  EXPECT_EQ(m0.usedIndices, 2u);
  EXPECT_EQ(m0.maxSliceNnz, 3u);
  EXPECT_DOUBLE_EQ(m0.meanSliceNnz, 2.0);
  // Top 1% of 2 used indices = 1 index = the heavy one: 3/4.
  EXPECT_DOUBLE_EQ(m0.top1PercentShare, 0.75);

  const ModeStats& m1 = s.modes[1];
  EXPECT_EQ(m1.usedIndices, 4u);
  EXPECT_EQ(m1.maxSliceNnz, 1u);
  EXPECT_NEAR(m1.gini, 0.0, 1e-12);  // perfectly uniform
}

TEST(TensorStats, UniformTensorHasLowSkew) {
  const TensorStats s =
      analyzeTensor(generateRandom({{500, 500, 500}, 20000, {}, 9}));
  for (const ModeStats& m : s.modes) {
    EXPECT_LT(m.gini, 0.5);
    EXPECT_LT(m.top1PercentShare, 0.05);
  }
}

TEST(TensorStats, ZipfTensorIsSkewed) {
  GeneratorOptions o;
  o.dims = {2000, 2000, 2000};
  o.nnz = 30000;
  o.zipfSkew = {1.0, 0.0, 0.0};
  o.seed = 10;
  const TensorStats s = analyzeTensor(generateRandom(o));
  EXPECT_GT(s.modes[0].gini, s.modes[1].gini + 0.2);
  EXPECT_GT(s.modes[0].top1PercentShare,
            3.0 * s.modes[1].top1PercentShare);
}

TEST(TensorStats, PaperAnalogsHaveRealisticHeadMass) {
  // The analogs must be skewed, but no single index should dominate a mode
  // the way a naive small-domain Zipf would (which would poison the
  // distributed benchmarks with one straggler task).
  for (const char* name : {"delicious3d-s", "nell1-s"}) {
    const TensorStats s = analyzeTensor(paperAnalog(name, 0.2));
    for (const ModeStats& m : s.modes) {
      const double headShare =
          double(m.maxSliceNnz) / double(s.nnz);
      EXPECT_LT(headShare, 0.05) << name;  // hottest index < 5% of nnz
      EXPECT_GT(m.gini, 0.2) << name;      // but clearly non-uniform
    }
  }
}

TEST(TensorStats, HotSliceShowsInModeStats) {
  CooTensor skewed({10, 10, 10},
                   {makeNonzero3(0, 0, 0, 1.0), makeNonzero3(0, 1, 1, 1.0),
                    makeNonzero3(0, 2, 2, 1.0), makeNonzero3(1, 3, 3, 1.0)});
  const TensorStats s = analyzeTensor(skewed);
  // Mode 0: slice 0 holds 3 of the 4 nonzeros over 2 used indices.
  EXPECT_EQ(s.modes[0].maxSliceNnz, 3u);
  EXPECT_DOUBLE_EQ(s.modes[0].meanSliceNnz, 2.0);
}

TEST(TensorStats, EmptyTensor) {
  CooTensor t({5, 5, 5}, {});
  const TensorStats s = analyzeTensor(t);
  EXPECT_EQ(s.nnz, 0u);
  for (const ModeStats& m : s.modes) {
    EXPECT_EQ(m.usedIndices, 0u);
    EXPECT_EQ(m.maxSliceNnz, 0u);
  }
}

TEST(TensorStats, FormatContainsKeyFigures) {
  CooTensor t({4, 4, 4}, {makeNonzero3(1, 2, 3, 7.5)}, "demo");
  const std::string text = formatStats(t, analyzeTensor(t));
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("nnz 1"), std::string::npos);
  EXPECT_NE(text.find("mode 3"), std::string::npos);
}

}  // namespace
}  // namespace cstf::tensor
