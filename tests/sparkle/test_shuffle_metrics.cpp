#include <gtest/gtest.h>

#include <vector>

#include "sparkle/sparkle.hpp"
#include "support/shuffle_all.hpp"

namespace cstf::sparkle {
namespace {

using testsupport::shuffleAll;
using KV = std::pair<std::uint32_t, double>;

ClusterConfig cfgNodes(int nodes) {
  ClusterConfig cfg;
  cfg.numNodes = nodes;
  cfg.coresPerNode = 2;
  return cfg;
}

std::vector<KV> makeData(std::uint32_t n) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i, double(i)});
  return v;
}

TEST(ShuffleMetrics, TotalBytesMatchSerializedSizePlusEnvelope) {
  Context ctx(cfgNodes(4), 2);
  const auto data = makeData(500);
  const std::uint64_t payload = 500 * 12;  // u32 key + f64 value each

  shuffleAll(parallelize(ctx, data, 8), ctx.hashPartitioner(8)).materialize();
  const auto t = ctx.metrics().totals();
  EXPECT_EQ(t.shuffleRecords, 500u);
  EXPECT_EQ(t.shuffleBytesRemote + t.shuffleBytesLocal,
            payload + 500 * ctx.config().recordEnvelopeBytes);
}

TEST(ShuffleMetrics, SingleNodeClusterHasNoRemoteBytes) {
  Context ctx(cfgNodes(1), 2);
  shuffleAll(parallelize(ctx, makeData(200), 4), ctx.hashPartitioner(4))
      .materialize();
  const auto t = ctx.metrics().totals();
  EXPECT_EQ(t.shuffleBytesRemote, 0u);
  EXPECT_GT(t.shuffleBytesLocal, 0u);
}

TEST(ShuffleMetrics, RemoteFractionGrowsWithNodes) {
  // With round-robin placement and hash partitioning, the expected remote
  // fraction is (n-1)/n — the reason QCOO's savings matter more on bigger
  // clusters (paper §6.4).
  double prevFraction = 0.0;
  for (int nodes : {2, 4, 8, 16}) {
    Context ctx(cfgNodes(nodes), 2);
    shuffleAll(parallelize(ctx, makeData(2000), 32), ctx.hashPartitioner(32))
        .materialize();
    const auto t = ctx.metrics().totals();
    const double fraction =
        double(t.shuffleBytesRemote) /
        double(t.shuffleBytesRemote + t.shuffleBytesLocal);
    EXPECT_NEAR(fraction, double(nodes - 1) / nodes, 0.1);
    EXPECT_GT(fraction, prevFraction);
    prevFraction = fraction;
  }
}

TEST(ShuffleMetrics, ScopeTagsStages) {
  Context ctx(cfgNodes(4), 2);
  {
    ScopedStage scope(ctx.metrics(), "MTTKRP-1");
    shuffleAll(parallelize(ctx, makeData(100), 4), ctx.hashPartitioner(4))
        .materialize();
  }
  shuffleAll(parallelize(ctx, makeData(100), 4), ctx.hashPartitioner(4))
      .materialize();

  const auto scoped = ctx.metrics().totalsForScope("MTTKRP-1");
  const auto all = ctx.metrics().totals();
  EXPECT_EQ(scoped.shuffleOps, 1u);
  EXPECT_EQ(all.shuffleOps, 2u);
  EXPECT_LT(scoped.shuffleBytesRemote + scoped.shuffleBytesLocal,
            all.shuffleBytesRemote + all.shuffleBytesLocal);
}

TEST(ShuffleMetrics, NestedScopesJoinWithSlash) {
  Context ctx(cfgNodes(2), 2);
  {
    ScopedStage outer(ctx.metrics(), "iter-1");
    ScopedStage inner(ctx.metrics(), "MTTKRP-2");
    parallelize(ctx, makeData(10), 2).count();
  }
  parallelize(ctx, makeData(10), 2).count();
  const auto stages = ctx.metrics().stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].scope, "iter-1/MTTKRP-2");
  EXPECT_EQ(stages[1].scope, "");
}

TEST(ShuffleMetrics, LazinessNoStagesBeforeAction) {
  Context ctx(cfgNodes(4), 2);
  auto rdd =
      shuffleAll(parallelize(ctx, makeData(100), 4), ctx.hashPartitioner(4))
          .mapValues([](const double& v) { return v + 1; });
  EXPECT_EQ(ctx.metrics().stages().size(), 0u);
  rdd.materialize();
  EXPECT_GT(ctx.metrics().stages().size(), 0u);
}

TEST(ShuffleMetrics, ShuffleMaterializesOnce) {
  Context ctx(cfgNodes(4), 2);
  auto rdd =
      shuffleAll(parallelize(ctx, makeData(100), 4), ctx.hashPartitioner(4));
  rdd.materialize();
  const auto before = ctx.metrics().totals().shuffleOps;
  rdd.count();
  rdd.collect();
  EXPECT_EQ(ctx.metrics().totals().shuffleOps, before);
}

TEST(ShuffleMetrics, BroadcastMetersBytes) {
  Context ctx(cfgNodes(8), 2);
  std::vector<double> gram(4, 1.0);
  auto b = broadcast(ctx, gram);
  EXPECT_EQ(b.value().size(), 4u);
  const auto t = ctx.metrics().totals();
  EXPECT_EQ(t.broadcastBytes, 36u * 7);  // u32 count + 4 doubles
}

TEST(ShuffleMetrics, EnvelopeBytesConfigurable) {
  ClusterConfig a = cfgNodes(4);
  a.recordEnvelopeBytes = 0;
  ClusterConfig b = cfgNodes(4);
  b.recordEnvelopeBytes = 100;

  std::uint64_t bytesA = 0;
  std::uint64_t bytesB = 0;
  {
    Context ctx(a, 2);
    shuffleAll(parallelize(ctx, makeData(100), 4), ctx.hashPartitioner(4))
        .materialize();
    const auto t = ctx.metrics().totals();
    bytesA = t.shuffleBytesRemote + t.shuffleBytesLocal;
  }
  {
    Context ctx(b, 2);
    shuffleAll(parallelize(ctx, makeData(100), 4), ctx.hashPartitioner(4))
        .materialize();
    const auto t = ctx.metrics().totals();
    bytesB = t.shuffleBytesRemote + t.shuffleBytesLocal;
  }
  EXPECT_EQ(bytesB - bytesA, 100u * 100u);
}

TEST(ShuffleMetrics, ResetClears) {
  Context ctx(cfgNodes(4), 2);
  shuffleAll(parallelize(ctx, makeData(10), 2), ctx.hashPartitioner(2))
      .materialize();
  EXPECT_GT(ctx.metrics().stages().size(), 0u);
  ctx.metrics().reset();
  EXPECT_EQ(ctx.metrics().stages().size(), 0u);
  EXPECT_DOUBLE_EQ(ctx.metrics().simTimeSec(), 0.0);
}

TEST(BroadcastMetering, SourceNodePaysNoInboundBytes) {
  // Regression: broadcast() used to charge the serialized payload as
  // inbound network bytes on ALL nodes, source included. The source node
  // (node 0) already holds the value and must pay nothing.
  Context ctx(cfgNodes(8), 2);
  std::vector<double> payload(100, 1.5);
  const std::uint64_t bytes = 804;  // u32 count + 100 doubles
  auto bc = broadcast(ctx, payload, "test-bcast");
  EXPECT_EQ(bc.value().size(), 100u);

  const auto stages = ctx.metrics().stages();
  ASSERT_EQ(stages.size(), 1u);
  const StageMetrics& s = stages[0];
  EXPECT_EQ(s.kind, StageKind::kBroadcast);
  EXPECT_EQ(s.broadcastBytes, bytes * 7);
  ASSERT_EQ(s.nodeBytesInRemote.size(), 8u);
  EXPECT_EQ(s.nodeBytesInRemote[0], 0u) << "source must not pay inbound";
  std::uint64_t inbound = 0;
  for (std::uint64_t b : s.nodeBytesInRemote) inbound += b;
  EXPECT_EQ(inbound, bytes * 7)
      << "total inbound must equal the metered broadcast volume";
  for (std::size_t nIdx = 1; nIdx < 8; ++nIdx) {
    EXPECT_EQ(s.nodeBytesInRemote[nIdx], bytes) << "node " << nIdx;
  }
}

TEST(BroadcastMetering, SingleNodeClusterPaysNothing) {
  Context ctx(cfgNodes(1), 2);
  broadcast(ctx, std::vector<double>(50, 2.0), "solo-bcast");
  const auto stages = ctx.metrics().stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].broadcastBytes, 0u);
  ASSERT_EQ(stages[0].nodeBytesInRemote.size(), 1u);
  EXPECT_EQ(stages[0].nodeBytesInRemote[0], 0u);
  // With no receivers the stage costs only the fixed scheduling overhead —
  // no network phase.
  EXPECT_DOUBLE_EQ(stages[0].simTimeSec, ctx.config().stageOverheadSec);
}

}  // namespace
}  // namespace cstf::sparkle
