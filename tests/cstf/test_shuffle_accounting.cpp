// Measured shuffle traffic vs the paper's claims: QCOO must move fewer
// bytes and fewer shuffle streams than COO, and BIGtensor more than both.
#include <gtest/gtest.h>

#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

namespace cstf::cstf_core {
namespace {

sparkle::ClusterConfig cluster8() {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = 8;
  cfg.coresPerNode = 2;
  return cfg;
}

/// Total shuffle bytes of one full CP-ALS iteration at steady state
/// (iteration 2, so QCOO's queue-init cost is excluded).
struct IterTraffic {
  std::uint64_t remote = 0;
  std::uint64_t local = 0;
  std::uint64_t records = 0;
  std::uint64_t ops = 0;
};

/// Run CP-ALS for `iters` iterations in a fresh context and return the
/// cumulative shuffle totals.
sparkle::MetricsTotals totalsAfter(Backend b, const tensor::CooTensor& t,
                                   int iters) {
  sparkle::Context ctx(cluster8(), 2);
  CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = iters;
  o.backend = b;
  o.computeFit = false;
  cpAls(ctx, t, o);
  return ctx.metrics().totals();
}

IterTraffic steadyStateIteration(Backend b, const tensor::CooTensor& t) {
  // The delta between a 2-iteration and a 1-iteration run isolates one
  // steady-state iteration, excluding tensor distribution and QCOO's
  // one-time queue seeding.
  const auto t1 = totalsAfter(b, t, 1);
  const auto t2 = totalsAfter(b, t, 2);
  IterTraffic out;
  out.remote = t2.shuffleBytesRemote - t1.shuffleBytesRemote;
  out.local = t2.shuffleBytesLocal - t1.shuffleBytesLocal;
  out.records = t2.shuffleRecords - t1.shuffleRecords;
  out.ops = t2.shuffleOps - t1.shuffleOps;
  return out;
}

class ShuffleAccounting3d : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tensor_ = new tensor::CooTensor(
        tensor::generateRandom({{300, 250, 200}, 8000, {}, 90}));
    coo_ = new IterTraffic(steadyStateIteration(Backend::kCoo, *tensor_));
    qcoo_ = new IterTraffic(steadyStateIteration(Backend::kQcoo, *tensor_));
  }
  static void TearDownTestSuite() {
    delete tensor_;
    delete coo_;
    delete qcoo_;
    tensor_ = nullptr;
    coo_ = nullptr;
    qcoo_ = nullptr;
  }
  static tensor::CooTensor* tensor_;
  static IterTraffic* coo_;
  static IterTraffic* qcoo_;
};

tensor::CooTensor* ShuffleAccounting3d::tensor_ = nullptr;
IterTraffic* ShuffleAccounting3d::coo_ = nullptr;
IterTraffic* ShuffleAccounting3d::qcoo_ = nullptr;

TEST_F(ShuffleAccounting3d, ShuffleOpCountsMatchTable4) {
  EXPECT_EQ(coo_->ops, 9u);   // N^2
  EXPECT_EQ(qcoo_->ops, 6u);  // 2N
}

TEST_F(ShuffleAccounting3d, QcooMovesFewerBytes) {
  const double saving =
      1.0 - double(qcoo_->remote) / double(coo_->remote);
  // Paper measures 35% on delicious3d (Fig. 4a); the analysis predicts
  // ~33%. Accept the band the substitution can honestly claim.
  EXPECT_GT(saving, 0.15) << "QCOO must reduce remote shuffle volume";
  EXPECT_LT(saving, 0.55);
}

TEST_F(ShuffleAccounting3d, QcooReducesLocalBytesToo) {
  EXPECT_LT(qcoo_->local, coo_->local);  // Fig. 4b
}

TEST_F(ShuffleAccounting3d, QcooShufflesFewerRecords) {
  // 3 nnz-sized streams per MTTKRP for COO vs 2 for QCOO (plus factor
  // streams): the record-count ratio drives the paper's measured savings.
  EXPECT_LT(qcoo_->records, coo_->records);
}

TEST(ShuffleAccounting, BigtensorMovesMoreThanCoo) {
  auto t = tensor::generateRandom({{150, 120, 100}, 4000, {}, 91});
  const auto coo = steadyStateIteration(Backend::kCoo, t);
  const auto big = steadyStateIteration(Backend::kBigtensor, t);
  EXPECT_GT(big.remote, coo.remote);
  EXPECT_EQ(big.ops, 12u);  // 4 shuffles x 3 modes
}

TEST(ShuffleAccounting, FourOrderSavingsInPaperBand) {
  auto t = tensor::generateRandom({{80, 90, 70, 40}, 6000, {}, 92});
  const auto coo = steadyStateIteration(Backend::kCoo, t);
  const auto qcoo = steadyStateIteration(Backend::kQcoo, t);
  EXPECT_EQ(coo.ops, 16u);
  EXPECT_EQ(qcoo.ops, 8u);
  const double saving = 1.0 - double(qcoo.remote) / double(coo.remote);
  // Paper: 31% measured on flickr, 25% predicted.
  EXPECT_GT(saving, 0.1);
  EXPECT_LT(saving, 0.6);
}

TEST(ShuffleAccounting, RemoteBytesScaleWithNnz) {
  auto small = tensor::generateRandom({{100, 100, 100}, 2000, {}, 93});
  auto large = tensor::generateRandom({{100, 100, 100}, 8000, {}, 93});
  const auto a = steadyStateIteration(Backend::kCoo, small);
  const auto b = steadyStateIteration(Backend::kCoo, large);
  const double ratio = double(b.remote) / double(a.remote);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(ByteMeters, SourceBroadcastAndCacheBytesArePinned) {
  // The meters besides the shuffle's, pinned by literals: source reads,
  // broadcast volume and serialized-cache reads of a 3-iteration CP-ALS
  // over a serialized tensor cache, on a join-chain and a broadcast plan.
  // 400 order-3 nonzeros encode in 400 x 21 = 8400 bytes.
  const auto t = tensor::generateZipf({14, 11, 9}, 400, 1.1, 72);
  struct PlanCase {
    const char* plan;
    sparkle::LocalKernel kernel;
    std::uint64_t sourceBytes;
    std::uint64_t broadcastBytes;
    std::uint64_t cacheBytesDeserialized;
  };
  const std::vector<PlanCase> cases = {
      {"join-chain CSTF-COO", sparkle::LocalKernel::kCoo, 13296, 0, 67200},
      {"broadcast-local, csf kernel", sparkle::LocalKernel::kCsf, 8400,
       24612, 75600},
  };
  // Exact meters: a surprise node death would recompute partitions.
  sparkle::ClusterConfig cfg = cluster8();
  cfg.faults.allowEnvChaos = false;
  for (const PlanCase& c : cases) {
    cfg.localKernel = c.kernel;
    sparkle::Context ctx(cfg, 2);
    CpAlsOptions o;
    o.rank = 2;
    o.maxIterations = 3;
    o.tolerance = 0.0;
    o.tensorStorage = sparkle::StorageLevel::kSerialized;
    EXPECT_EQ(cpAls(ctx, t, o).report.plan, c.plan);
    const auto totals = ctx.metrics().totals();
    EXPECT_EQ(totals.sourceBytesRead, c.sourceBytes) << c.plan;
    EXPECT_EQ(totals.broadcastBytes, c.broadcastBytes) << c.plan;
    EXPECT_EQ(totals.cacheBytesDeserialized, c.cacheBytesDeserialized)
        << c.plan;
  }

  // The cached tensor's footprint: exact bytes when serialized, the same
  // bytes times the raw expansion factor when raw.
  sparkle::Context ctx(cfg, 2);
  for (const auto& [level, bytes] :
       {std::pair{sparkle::StorageLevel::kRaw, std::uint64_t{21000}},
        std::pair{sparkle::StorageLevel::kSerialized, std::uint64_t{8400}}}) {
    auto rdd = tensorToRdd(ctx, t);
    rdd.cache(level);
    rdd.materialize();
    EXPECT_EQ(rdd.cachedMemoryBytes(), bytes);
  }
}

}  // namespace
}  // namespace cstf::cstf_core
