#include "tensor/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <string>

namespace cstf::tensor {
namespace {

TEST(Generator, ProducesRequestedShape) {
  GeneratorOptions o;
  o.dims = {100, 200, 50};
  o.nnz = 5000;
  CooTensor t = generateRandom(o);
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.dims(), o.dims);
  // Distinct-coordinate sampling hits the requested count exactly.
  EXPECT_EQ(t.nnz(), 5000u);
  t.validate();
}

TEST(Generator, DeterministicPerSeed) {
  GeneratorOptions o;
  o.dims = {50, 50, 50};
  o.nnz = 1000;
  o.seed = 99;
  CooTensor a = generateRandom(o);
  CooTensor b = generateRandom(o);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t i = 0; i < a.nnz(); ++i) {
    EXPECT_EQ(a.nonzeros()[i], b.nonzeros()[i]);
  }
}

TEST(Generator, SeedChangesData) {
  GeneratorOptions o;
  o.dims = {50, 50, 50};
  o.nnz = 100;
  o.seed = 1;
  CooTensor a = generateRandom(o);
  o.seed = 2;
  CooTensor b = generateRandom(o);
  bool anyDiff = a.nnz() != b.nnz();
  for (std::size_t i = 0; !anyDiff && i < a.nnz(); ++i) {
    anyDiff = !(a.nonzeros()[i] == b.nonzeros()[i]);
  }
  EXPECT_TRUE(anyDiff);
}

TEST(Generator, ValuesPositiveAndBounded) {
  GeneratorOptions o;
  o.dims = {20, 20, 20};
  o.nnz = 500;
  o.valueMax = 5.0;
  const CooTensor t = generateRandom(o);
  for (const Nonzero& nz : t.nonzeros()) {
    EXPECT_GT(nz.val, 0.0);
    EXPECT_LE(nz.val, 5.0);
  }
}

TEST(Generator, ZipfModeIsSkewedUniformIsNot) {
  GeneratorOptions o;
  o.dims = {1000, 1000, 1000};
  o.nnz = 20000;
  o.zipfSkew = {1.2, 0.0, 0.0};
  CooTensor t = generateRandom(o);

  std::map<Index, int> mode0;
  std::map<Index, int> mode1;
  for (const Nonzero& nz : t.nonzeros()) {
    ++mode0[nz.idx[0]];
    ++mode1[nz.idx[1]];
  }
  const auto maxCount = [](const std::map<Index, int>& m) {
    int best = 0;
    for (const auto& [k, c] : m) best = std::max(best, c);
    return best;
  };
  // The Zipf head index absorbs far more mass than any uniform index.
  EXPECT_GT(maxCount(mode0), 5 * maxCount(mode1));
}

TEST(Generator, PaperAnalogsMatchTable5Shape) {
  // Scaled-down analogs preserve Table 5's orders, relative mode sizes and
  // nonzero counts (within coalescing loss).
  struct Expect {
    const char* name;
    int order;
    Index maxMode;
    std::size_t nnz;
  };
  const Expect expected[] = {
      {"delicious3d-s", 3, 17300, 140000},
      {"nell1-s", 3, 25500, 144000},
      {"synt3d-s", 3, 15000, 200000},
      {"flickr-s", 4, 28000, 112000},
      {"delicious4d-s", 4, 17300, 140000},
  };
  for (const auto& e : expected) {
    CooTensor t = paperAnalog(e.name, 0.1);  // small for test speed
    EXPECT_EQ(int(t.order()), e.order) << e.name;
    EXPECT_EQ(t.maxModeSize(), Index(e.maxMode * 0.1)) << e.name;
    EXPECT_EQ(t.nnz(), std::size_t(e.nnz * 0.1)) << e.name;
    t.validate();
  }
}

TEST(Generator, PaperAnalogNamesCoverTable5) {
  EXPECT_EQ(paperAnalogNames().size(), 5u);
}

TEST(Generator, UnknownAnalogThrows) {
  EXPECT_THROW(paperAnalog("no-such-tensor"), Error);
}

TEST(Generator, AnalogRefusesScalesNoModeCanHold) {
  // Each refusal happens before any allocation and names preset and scale.
  for (const double scale : {0.0, -1.0, std::nan(""), HUGE_VAL, 1e9}) {
    try {
      paperAnalogOptions("flickr-s", scale);
      FAIL() << "scale " << scale << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("flickr-s"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("scale"), std::string::npos);
    }
  }
  // Just under the limit is still a valid preset: 28000 x 1.5e5 rows.
  EXPECT_EQ(paperAnalogOptions("flickr-s", 1.5e5).dims[1], 4200000000u);
}

TEST(Generator, LowRankMaskedModeSamplesDistinctCells) {
  CooTensor t = generateLowRank({20, 20, 20}, 2, 500, 7);
  EXPECT_EQ(t.nnz(), 500u);
  t.validate();
}

TEST(Generator, LowRankFullGridIsExactlyLowRank) {
  // nnz >= cells emits the complete grid; the resulting COO tensor is a
  // dense rank-2 tensor, verifiable through its unfoldings: every mode-n
  // unfolding has rank <= 2, so any 3x3 minor... — cheaper: the Frobenius
  // norm of the full grid must match the model norm computed analytically
  // by modelNormSq in reference_ops (covered there); here check coverage.
  CooTensor t = generateLowRank({6, 5, 4}, 2, 120, 8);
  EXPECT_EQ(t.nnz(), 120u);  // all 6*5*4 cells present (none exactly zero)
  t.validate();
  bool sawNegative = false;
  for (const Nonzero& nz : t.nonzeros()) sawNegative |= nz.val < 0.0;
  EXPECT_TRUE(sawNegative) << "Gaussian factors produce mixed-sign values";
}

TEST(Generator, LowRankNoiseChangesValues) {
  CooTensor clean = generateLowRank({10, 10, 10}, 2, 100, 3, 0.0);
  CooTensor noisy = generateLowRank({10, 10, 10}, 2, 100, 3, 0.5);
  ASSERT_EQ(clean.nnz(), noisy.nnz());
  bool differ = false;
  for (std::size_t i = 0; i < clean.nnz() && !differ; ++i) {
    differ = clean.nonzeros()[i].val != noisy.nonzeros()[i].val;
  }
  EXPECT_TRUE(differ);
}

TEST(ZipfStream, UnionOfBaseAndDeltasIsThePlainTensor) {
  const std::vector<Index> dims = {30, 20, 10};
  const CooTensor full = generateZipf(dims, 800, 0.8, 77);
  const ZipfStream s = generateZipfStream(dims, 800, 0.8, 77, 4);
  EXPECT_GT(s.base.nnz(), 0u);
  ASSERT_EQ(s.deltas.size(), 4u);
  CooTensor replayed = materializeStream(s.base, s.deltas);
  ASSERT_EQ(replayed.nnz(), full.nnz());
  EXPECT_TRUE(replayed.nonzeros() == full.nonzeros())
      << "replaying the split must recover the plain generateZipf tensor";
}

TEST(ZipfStream, SplitIsDeterministicAndSeeded) {
  const std::vector<Index> dims = {25, 25, 25};
  const ZipfStream a = generateZipfStream(dims, 500, 0.6, 5, 3);
  const ZipfStream b = generateZipfStream(dims, 500, 0.6, 5, 3);
  EXPECT_TRUE(a.base.nonzeros() == b.base.nonzeros());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(a.deltas[i].entries == b.deltas[i].entries) << i;
  }
  const ZipfStream c = generateZipfStream(dims, 500, 0.6, 6, 3);
  EXPECT_FALSE(c.base.nonzeros() == a.base.nonzeros());
}

TEST(ZipfStream, BatchesAreDisjointWithMonotoneSeqs) {
  const ZipfStream s = generateZipfStream({40, 30, 20}, 600, 0.9, 13, 5);
  std::size_t total = s.base.nnz();
  std::set<std::array<Index, kMaxOrder>> coords;
  for (const Nonzero& nz : s.base.nonzeros()) coords.insert(nz.idx);
  for (std::size_t b = 0; b < s.deltas.size(); ++b) {
    EXPECT_EQ(s.deltas[b].seq, b + 1);
    EXPECT_EQ(s.deltas[b].dims, s.base.dims());
    s.deltas[b].validate();
    total += s.deltas[b].entries.size();
    for (const Nonzero& nz : s.deltas[b].entries) {
      EXPECT_TRUE(coords.insert(nz.idx).second)
          << "coordinate assigned to two pieces of the split";
    }
  }
  EXPECT_EQ(total, 600u);
  EXPECT_EQ(coords.size(), 600u);
}

TEST(ZipfStream, RejectsDegenerateKnobs) {
  EXPECT_THROW(generateZipfStream({10, 10}, 50, 0.5, 1, 0), Error);
  EXPECT_THROW(generateZipfStream({10, 10}, 50, 0.5, 1, 2, 0.0), Error);
  EXPECT_THROW(generateZipfStream({10, 10}, 50, 0.5, 1, 2, 1.0), Error);
}

TEST(ZipfStream, KeepsBothSidesNonEmptyOnExtremeFraction) {
  // deltaFraction ~1: nearly every draw lands in a delta, but the base
  // must still be non-empty so a warm start exists.
  const ZipfStream s = generateZipfStream({8, 8, 8}, 60, 0.5, 3, 2, 0.999);
  EXPECT_GT(s.base.nnz(), 0u);
}

TEST(Generator, RejectsBadOptions) {
  GeneratorOptions o;
  o.dims = {};
  o.nnz = 10;
  EXPECT_THROW(generateRandom(o), Error);
  o.dims = {10, 10};
  o.nnz = 0;
  EXPECT_THROW(generateRandom(o), Error);
  o.dims = {10, 0};
  o.nnz = 5;
  EXPECT_THROW(generateRandom(o), Error);
}

}  // namespace
}  // namespace cstf::tensor
