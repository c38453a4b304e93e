#include <gtest/gtest.h>

#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::cstf_core {
namespace {

sparkle::ClusterConfig testCluster() {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return cfg;
}

TEST(QcooEngine, FirstSweepMatchesReference3Order) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{25, 30, 20}, 400, {}, 60});
  auto fs = randomFactors(t.dims(), 2, 1);
  auto X = tensorToRdd(ctx, t).cache();
  QcooEngine engine(ctx, X, t.dims(), fs);
  for (ModeId mode = 0; mode < 3; ++mode) {
    EXPECT_EQ(engine.nextMode(), mode);
    la::Matrix got = engine.mttkrpNext(fs);
    la::Matrix ref = tensor::referenceMttkrp(t, fs, mode);
    EXPECT_LT(got.maxAbsDiff(ref), 1e-10) << "mode " << int(mode);
  }
  EXPECT_EQ(engine.nextMode(), 0);  // wrapped around
}

TEST(QcooEngine, FirstSweepMatchesReference4Order) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{10, 14, 12, 8}, 300, {}, 61});
  auto fs = randomFactors(t.dims(), 2, 2);
  auto X = tensorToRdd(ctx, t).cache();
  QcooEngine engine(ctx, X, t.dims(), fs);
  for (ModeId mode = 0; mode < 4; ++mode) {
    la::Matrix got = engine.mttkrpNext(fs);
    EXPECT_LT(got.maxAbsDiff(tensor::referenceMttkrp(t, fs, mode)), 1e-10);
  }
}

TEST(QcooEngine, TracksFactorUpdatesBetweenModes) {
  // The ALS pattern: factor n changes right after MTTKRP n. QCOO must pick
  // the *updated* rows up through its single join, and reuse queued rows
  // for the untouched modes.
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{15, 18, 12}, 300, {}, 62});
  auto fs = randomFactors(t.dims(), 2, 3);
  auto X = tensorToRdd(ctx, t).cache();
  QcooEngine engine(ctx, X, t.dims(), fs);

  Pcg32 rng(99);
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (ModeId mode = 0; mode < 3; ++mode) {
      la::Matrix got = engine.mttkrpNext(fs);
      la::Matrix ref = tensor::referenceMttkrp(t, fs, mode);
      ASSERT_LT(got.maxAbsDiff(ref), 1e-10)
          << "sweep " << sweep << " mode " << int(mode);
      // Simulate the ALS update with fresh random values.
      fs[mode] = la::Matrix::random(t.dim(mode), 2, rng);
    }
  }
}

TEST(QcooEngine, JoinModeIsPreviousMode) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{8, 8, 8, 8}, 100, {}, 63});
  auto fs = randomFactors(t.dims(), 2, 4);
  QcooEngine engine(ctx, tensorToRdd(ctx, t), t.dims(), fs);
  EXPECT_EQ(engine.joinMode(), 3);  // mode-1 MTTKRP joins A_N (Table 2)
  engine.mttkrpNext(fs);
  EXPECT_EQ(engine.joinMode(), 0);
  engine.mttkrpNext(fs);
  EXPECT_EQ(engine.joinMode(), 1);
}

TEST(QcooEngine, SteadyStateUsesTwoShuffleOpsPerMttkrp) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{10, 10, 10}, 200, {}, 64});
  auto fs = randomFactors(t.dims(), 2, 5);
  auto X = tensorToRdd(ctx, t).cache();
  QcooEngine engine(ctx, X, t.dims(), fs);
  engine.mttkrpNext(fs);  // includes lazy init-chain materialization

  const auto afterFirst = ctx.metrics().totals().shuffleOps;
  engine.mttkrpNext(fs);
  const auto afterSecond = ctx.metrics().totals().shuffleOps;
  engine.mttkrpNext(fs);
  const auto afterThird = ctx.metrics().totals().shuffleOps;

  EXPECT_EQ(afterSecond - afterFirst, 2u)
      << "Table 4: QCOO needs 2 shuffles per MTTKRP";
  EXPECT_EQ(afterThird - afterSecond, 2u);
  // The first MTTKRP additionally pays the N-1 queue-seeding joins.
  EXPECT_EQ(afterFirst, 2u + 2u);
}

TEST(QcooEngine, QueueInitCostLandsInFirstMttkrpScope) {
  // Figure 5: QCOO's mode-1 MTTKRP carries the queue-initialization
  // overhead; later modes are cheaper.
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{20, 20, 20}, 1000, {}, 65});
  auto fs = randomFactors(t.dims(), 2, 6);
  auto X = tensorToRdd(ctx, t).cache();
  QcooEngine engine(ctx, X, t.dims(), fs);
  for (ModeId mode = 0; mode < 3; ++mode) {
    sparkle::ScopedStage scope(ctx.metrics(),
                               "MTTKRP-" + std::to_string(mode + 1));
    engine.mttkrpNext(fs);
  }
  const auto m1 = ctx.metrics().totalsForScope("MTTKRP-1");
  const auto m2 = ctx.metrics().totalsForScope("MTTKRP-2");
  EXPECT_GT(m1.simTimeSec, m2.simTimeSec);
  EXPECT_GT(m1.shuffleOps, m2.shuffleOps);
}

TEST(QcooEngine, RankChangeMidRunThrows) {
  sparkle::Context ctx(testCluster(), 2);
  auto t = tensor::generateRandom({{6, 6, 6}, 50, {}, 66});
  auto fs = randomFactors(t.dims(), 2, 7);
  QcooEngine engine(ctx, tensorToRdd(ctx, t), t.dims(), fs);
  auto bad = randomFactors(t.dims(), 3, 8);
  EXPECT_THROW(engine.mttkrpNext(bad), Error);
}

TEST(QcooEngine, QRecordSerdeRoundTrip) {
  QRecord rec;
  rec.nz = tensor::makeNonzero3(1, 2, 3, 4.0);
  rec.enqueue(la::Row{1.0, 2.0});
  rec.enqueue(la::Row{3.0, 4.0});
  std::vector<std::uint8_t> buf;
  fixedWidthEncodeAppend(buf, std::vector<QRecord>{rec});
  EXPECT_EQ(buf.size(), 21u + 4u + 2 * (4u + 16u));
  std::vector<QRecord> back;
  fixedWidthDecodeStream(buf.data(), buf.size(), back);
  EXPECT_EQ(back, std::vector<QRecord>{rec});
}

TEST(QcooEngine, CarrySerdeRoundTrip) {
  Carry c;
  c.nz = tensor::makeNonzero4(9, 8, 7, 6, -2.5);
  c.partial = la::Row{0.5, 0.25, 0.125};
  std::vector<std::uint8_t> buf;
  fixedWidthEncodeAppend(buf, std::vector<Carry>{c});
  EXPECT_EQ(buf.size(), 25u + 4u + 3 * 8u);
  std::vector<Carry> back;
  fixedWidthDecodeStream(buf.data(), buf.size(), back);
  EXPECT_EQ(back, std::vector<Carry>{c});
}

}  // namespace
}  // namespace cstf::cstf_core
