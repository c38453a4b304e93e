// Query engine: point predictions bit-identical to the dense
// reconstruction oracle, batched == point, and top-k exact against brute
// force — with pruning on or off, at any thread count. Query and model
// validation runs on both providers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/engine.hpp"
#include "serve/sharded_engine.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::serve {
namespace {

CpModel randomModel(std::vector<Index> dims, std::size_t rank,
                    std::uint64_t seed) {
  CpModel m;
  m.rank = rank;
  m.dims = std::move(dims);
  Pcg32 rng(seed);
  m.lambda.resize(rank);
  for (auto& l : m.lambda) l = rng.nextDouble(0.5, 2.0);
  for (const Index d : m.dims) {
    la::Matrix f(d, rank);
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t r = 0; r < rank; ++r) f(i, r) = rng.nextGaussian();
    }
    m.factors.push_back(std::move(f));
  }
  return m;
}

/// Reference top-k: score every row of `mode` exactly the way the engine
/// does (lambda folded into mode 0, query vector built mode-ascending),
/// then sort by (score desc, index asc).
std::vector<TopKEntry> bruteForceTopK(const CpModel& model, ModeId mode,
                                      const std::vector<Index>& fixed,
                                      std::size_t k) {
  const std::size_t rank = model.rank;
  const ModeId order = static_cast<ModeId>(model.dims.size());
  auto foldedRow = [&](ModeId m, Index i, std::size_t r) {
    const double v = model.factors[m](i, r);
    return m == 0 ? model.lambda[r] * v : v;
  };
  std::vector<double> w(rank);
  bool first = true;
  for (ModeId m = 0; m < order; ++m) {
    if (m == mode) continue;
    for (std::size_t r = 0; r < rank; ++r) {
      w[r] = first ? foldedRow(m, fixed[m], r)
                   : w[r] * foldedRow(m, fixed[m], r);
    }
    first = false;
  }
  std::vector<TopKEntry> all(model.dims[mode]);
  for (Index i = 0; i < model.dims[mode]; ++i) {
    double s = 0.0;
    for (std::size_t r = 0; r < rank; ++r) s += w[r] * foldedRow(mode, i, r);
    all[i] = {i, s};
  }
  std::sort(all.begin(), all.end(), [](const TopKEntry& a,
                                       const TopKEntry& b) {
    return a.score > b.score || (a.score == b.score && a.index < b.index);
  });
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(Engine, PredictIsBitIdenticalToDenseReconstruction) {
  const CpModel model = randomModel({4, 3, 5}, 3, 17);
  const Engine engine(model, 1);
  const std::vector<double> dense =
      tensor::denseReconstruction(model.dims, model.factors, model.lambda);
  std::size_t cell = 0;
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 3; ++j) {
      for (Index k = 0; k < 5; ++k) {
        EXPECT_EQ(engine.predict({i, j, k}), dense[cell])
            << "(" << i << "," << j << "," << k << ")";
        ++cell;
      }
    }
  }
}

TEST(Engine, PredictBitIdenticalOnOrder4) {
  const CpModel model = randomModel({3, 4, 2, 5}, 4, 23);
  const Engine engine(model, 1);
  const std::vector<double> dense =
      tensor::denseReconstruction(model.dims, model.factors, model.lambda);
  std::size_t cell = 0;
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) {
      for (Index k = 0; k < 2; ++k) {
        for (Index l = 0; l < 5; ++l) {
          EXPECT_EQ(engine.predict({i, j, k, l}), dense[cell]);
          ++cell;
        }
      }
    }
  }
}

TEST(Engine, TopKMatchesBruteForceOnEveryMode) {
  const CpModel model = randomModel({60, 45, 30}, 5, 31);
  const Engine engine(model, 2);
  const std::vector<Index> fixed = {7, 11, 3};
  for (ModeId mode = 0; mode < 3; ++mode) {
    for (const std::size_t k : {std::size_t(1), std::size_t(5),
                                std::size_t(17)}) {
      const auto expect = bruteForceTopK(model, mode, fixed, k);
      const TopKResult got = engine.topK(mode, fixed, k);
      ASSERT_EQ(got.entries.size(), expect.size())
          << "mode " << int(mode) << " k " << k;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.entries[i].index, expect[i].index)
            << "mode " << int(mode) << " k " << k << " pos " << i;
        EXPECT_EQ(got.entries[i].score, expect[i].score)
            << "mode " << int(mode) << " k " << k << " pos " << i;
      }
    }
  }
}

TEST(Engine, PruningNeverChangesTheAnswer) {
  // 1100 rows: two full scan blocks plus a partial one.
  const CpModel model = randomModel({1100, 40, 24}, 6, 71);
  const Engine engine(model, 4);
  Pcg32 rng(8);
  TopKOptions pruned;
  pruned.prune = true;
  TopKOptions brute;
  brute.prune = false;
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<Index> fixed = {0, rng.nextBounded(40),
                                      rng.nextBounded(24)};
    const TopKResult a = engine.topK(0, fixed, 10, pruned);
    const TopKResult b = engine.topK(0, fixed, 10, brute);
    EXPECT_EQ(a.entries, b.entries) << "trial " << trial;
    // Brute force touches every row; pruning must never scan more.
    EXPECT_EQ(b.stats.rowsScanned, 1100u);
    EXPECT_EQ(b.stats.rowsPruned, 0u);
    EXPECT_EQ(a.stats.rowsScanned + a.stats.rowsPruned, 1100u);
    EXPECT_LE(a.stats.rowsScanned, b.stats.rowsScanned);
  }
}

TEST(Engine, PruningActuallyPrunesOnSkewedModels) {
  // Mode-0 rows with fast-decaying magnitude: the norm bound should cut
  // off most of the scan once the heap is full.
  CpModel model = randomModel({2000, 30, 30}, 4, 3);
  for (std::size_t i = 0; i < 2000; ++i) {
    const double scale = 1.0 / (1.0 + double(i));
    for (std::size_t r = 0; r < 4; ++r) model.factors[0](i, r) *= scale;
  }
  const Engine engine(model, 4);
  const TopKResult r = engine.topK(0, {0, 5, 9}, 10);
  EXPECT_EQ(r.entries.size(), 10u);
  EXPECT_GT(r.stats.rowsPruned, 1000u)
      << "scanned " << r.stats.rowsScanned;
  const auto expect = bruteForceTopK(model, 0, {0, 5, 9}, 10);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r.entries[i].index, expect[i].index) << "pos " << i;
    EXPECT_EQ(r.entries[i].score, expect[i].score) << "pos " << i;
  }
}

TEST(Engine, ResultIndependentOfThreadCount) {
  // Mode 0 spans three scan blocks.
  const CpModel model = randomModel({1100, 25, 25}, 4, 13);
  const Engine one(model, 1);
  const Engine many(model, 8);
  for (ModeId mode = 0; mode < 3; ++mode) {
    const TopKResult a = one.topK(mode, {1, 2, 3}, 12);
    const TopKResult b = many.topK(mode, {1, 2, 3}, 12);
    EXPECT_EQ(a.entries, b.entries) << "mode " << int(mode);
  }
}

TEST(Engine, KLargerThanTheModeReturnsEveryRowSorted) {
  const CpModel model = randomModel({9, 8, 7}, 2, 41);
  const Engine engine(model, 2);
  const TopKResult r = engine.topK(0, {0, 4, 5}, 100);
  ASSERT_EQ(r.entries.size(), 9u);
  for (std::size_t i = 1; i < r.entries.size(); ++i) {
    EXPECT_GE(r.entries[i - 1].score, r.entries[i].score);
  }
}

/// Query and model validation every provider must enforce; `make` builds
/// the provider under test from a model.
template <typename Make>
void expectValidation(Make make) {
  const CpModel model = randomModel({6, 5, 4}, 2, 1);
  const auto provider = make(model);
  EXPECT_THROW(provider->predict({0, 0}), Error);        // wrong arity
  EXPECT_THROW(provider->predict({6, 0, 0}), Error);     // out of range
  EXPECT_THROW(provider->topK(3, {0, 0, 0}, 5), Error);  // bad mode
  EXPECT_THROW(provider->topK(0, {0, 5, 0}, 5), Error);  // fixed out of range
  EXPECT_THROW(provider->topK(0, {0, 0}, 5), Error);     // wrong arity
  EXPECT_THROW(provider->topK(0, {0, 0, 0}, 0), Error);  // k == 0

  CpModel bad = model;
  bad.lambda[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(make(bad), Error);
  CpModel shortLambda = model;
  shortLambda.lambda.pop_back();
  EXPECT_THROW(make(shortLambda), Error);

  // Non-finite factor entries are refused up front, naming mode and row.
  struct Poison {
    std::size_t mode, row;
    double value;
    const char* where;
  };
  for (const Poison& p :
       {Poison{1, 3, std::numeric_limits<double>::quiet_NaN(), "mode 2, row 3"},
        Poison{0, 5, std::numeric_limits<double>::infinity(), "mode 1, row 5"},
        Poison{2, 2, -std::numeric_limits<double>::infinity(),
               "mode 3, row 2"}}) {
    CpModel poisoned = model;
    poisoned.factors[p.mode](p.row, 1) = p.value;
    try {
      make(poisoned);
      ADD_FAILURE() << "accepted a non-finite entry at " << p.where;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(p.where), std::string::npos)
          << e.what();
    }
  }
}

TEST(Engine, ValidatesQueriesAndModels) {
  expectValidation(
      [](const CpModel& m) { return std::make_unique<Engine>(m, 1); });
}

TEST(ShardedEngine, ValidatesQueriesAndModels) {
  expectValidation([](const CpModel& m) {
    ShardedEngineOptions o;
    o.numShards = 3;
    o.threads = 1;
    o.liveMetrics = nullptr;
    return std::make_unique<ShardedEngine>(m, o);
  });
}

TEST(Engine, ExposesModelMetadata) {
  CpModel model = randomModel({6, 5, 4}, 2, 1);
  model.finalFit = 0.25;
  const Engine engine(model, 1);
  EXPECT_EQ(engine.order(), 3);
  EXPECT_EQ(engine.rank(), 2u);
  EXPECT_EQ(engine.dims(), (std::vector<Index>{6, 5, 4}));
  EXPECT_EQ(engine.lambda(), model.lambda);
  EXPECT_EQ(engine.finalFit(), 0.25);
}

}  // namespace
}  // namespace cstf::serve
