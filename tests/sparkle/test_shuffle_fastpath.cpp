// Property tests for the zero-copy shuffle fast path: two clusters that
// differ ONLY in `enableShuffleFastPath` must produce identical reduce-side
// blocks AND bit-identical StageMetrics (remote/local byte split, record
// counts, per-task shuffleBytesOut, work counters) on every record shape
// the CSTF dataflows ship — that is the contract that lets the fast path
// exist without perturbing the paper's byte accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cstf/records.hpp"
#include "sparkle/sparkle.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::sparkle {
namespace {

using KV = std::pair<std::uint32_t, double>;

ClusterConfig clusterCfg(bool fastPath, int nodes = 4) {
  ClusterConfig cfg;
  cfg.numNodes = nodes;
  cfg.coresPerNode = 2;
  cfg.enableShuffleFastPath = fastPath;
  return cfg;
}

/// Everything observable about one shuffled RDD: the per-partition blocks
/// and the metrics of every shuffle stage the job ran.
template <typename T>
struct ShuffleObservation {
  std::vector<std::vector<T>> blocks;
  std::vector<StageMetrics> shuffleStages;
  MetricsTotals totals;
};

template <typename T>
ShuffleObservation<T> observe(Context& ctx, Rdd<T> rdd) {
  rdd.materialize();
  ShuffleObservation<T> obs;
  obs.blocks.resize(rdd.numPartitions());
  for (std::size_t p = 0; p < rdd.numPartitions(); ++p) {
    TaskContext tc;
    Block<T> block = rdd.dataset()->partition(p, tc);
    obs.blocks[p].assign(block->begin(), block->end());
  }
  for (const auto& s : ctx.metrics().stages()) {
    if (s.kind == StageKind::kShuffle) obs.shuffleStages.push_back(s);
  }
  obs.totals = ctx.metrics().totals();
  return obs;
}

void expectSameStage(const StageMetrics& fast, const StageMetrics& slow) {
  EXPECT_EQ(fast.shuffleRecords, slow.shuffleRecords);
  EXPECT_EQ(fast.shuffleBytesRemote, slow.shuffleBytesRemote);
  EXPECT_EQ(fast.shuffleBytesLocal, slow.shuffleBytesLocal);
  EXPECT_EQ(fast.work.recordsProcessed, slow.work.recordsProcessed);
  EXPECT_EQ(fast.work.recordsEmitted, slow.work.recordsEmitted);
  EXPECT_EQ(fast.work.flops, slow.work.flops);
  ASSERT_EQ(fast.tasks.size(), slow.tasks.size());
  std::uint64_t fastTaskBytes = 0;
  std::uint64_t slowTaskBytes = 0;
  for (std::size_t i = 0; i < fast.tasks.size(); ++i) {
    EXPECT_EQ(fast.tasks[i].partition, slow.tasks[i].partition);
    EXPECT_EQ(fast.tasks[i].node, slow.tasks[i].node);
    EXPECT_EQ(fast.tasks[i].shuffleBytesOut, slow.tasks[i].shuffleBytesOut);
    EXPECT_EQ(fast.tasks[i].work.recordsProcessed,
              slow.tasks[i].work.recordsProcessed);
    EXPECT_EQ(fast.tasks[i].work.recordsEmitted,
              slow.tasks[i].work.recordsEmitted);
    fastTaskBytes += fast.tasks[i].shuffleBytesOut;
    slowTaskBytes += slow.tasks[i].shuffleBytesOut;
  }
  // Per-task attribution must tile the stage totals exactly on both paths.
  EXPECT_EQ(fastTaskBytes, fast.shuffleBytesRemote + fast.shuffleBytesLocal);
  EXPECT_EQ(slowTaskBytes, slow.shuffleBytesRemote + slow.shuffleBytesLocal);
}

template <typename T>
void expectSameObservation(const ShuffleObservation<T>& fast,
                           const ShuffleObservation<T>& slow) {
  ASSERT_EQ(fast.blocks.size(), slow.blocks.size());
  for (std::size_t p = 0; p < fast.blocks.size(); ++p) {
    EXPECT_EQ(fast.blocks[p], slow.blocks[p]) << "partition " << p;
  }
  ASSERT_EQ(fast.shuffleStages.size(), slow.shuffleStages.size());
  for (std::size_t i = 0; i < fast.shuffleStages.size(); ++i) {
    expectSameStage(fast.shuffleStages[i], slow.shuffleStages[i]);
  }
  EXPECT_EQ(fast.totals.shuffleRecords, slow.totals.shuffleRecords);
  EXPECT_EQ(fast.totals.shuffleBytesRemote, slow.totals.shuffleBytesRemote);
  EXPECT_EQ(fast.totals.shuffleBytesLocal, slow.totals.shuffleBytesLocal);
}

/// Run `build` against a fast-path and a slow-path context and assert the
/// observations are indistinguishable.
template <typename Build>
void expectPathEquivalence(Build build, int nodes = 4) {
  Context fastCtx(clusterCfg(/*fastPath=*/true, nodes), 2);
  Context slowCtx(clusterCfg(/*fastPath=*/false, nodes), 2);
  auto fast = observe(fastCtx, build(fastCtx));
  auto slow = observe(slowCtx, build(slowCtx));
  expectSameObservation(fast, slow);
}

std::vector<KV> makeKvData(std::uint32_t n) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i * 7919u, double(i)});
  return v;
}

std::vector<std::pair<Index, cstf_core::Carry>> makeCarryData(
    std::uint32_t n) {
  std::vector<std::pair<Index, cstf_core::Carry>> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cstf_core::Carry c;
    c.nz = tensor::makeNonzero3(i % 97, i % 89, i % 83, 0.5 * i);
    c.partial = la::Row{1.0 + i, 2.0 + i};
    v.emplace_back(i % 97, std::move(c));
  }
  return v;
}

std::vector<std::pair<Index, cstf_core::QRecord>> makeQRecordData(
    std::uint32_t n) {
  std::vector<std::pair<Index, cstf_core::QRecord>> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cstf_core::QRecord q;
    q.nz = tensor::makeNonzero3(i % 97, i % 89, i % 83, -0.25 * i);
    q.enqueue(la::Row{1.0 * i, 2.0});
    q.enqueue(la::Row{3.0, 4.0 * i});
    v.emplace_back(i % 89, std::move(q));
  }
  return v;
}

TEST(ShuffleFastPath, KvBlocksAndMetricsMatchSlowPath) {
  expectPathEquivalence([](Context& ctx) {
    return parallelize(ctx, makeKvData(5000), 8)
        .partitionBy(ctx.hashPartitioner(8));
  });
}

TEST(ShuffleFastPath, CooCarryBlocksAndMetricsMatchSlowPath) {
  // COO dataflow: pair<Index, Carry> is what cstf ships between join hops.
  expectPathEquivalence([](Context& ctx) {
    return parallelize(ctx, makeCarryData(3000), 8)
        .partitionBy(ctx.hashPartitioner(8));
  });
}

TEST(ShuffleFastPath, QcooRecordBlocksAndMetricsMatchSlowPath) {
  // QCOO dataflow: pair<Index, QRecord> with a queue of factor rows.
  expectPathEquivalence([](Context& ctx) {
    return parallelize(ctx, makeQRecordData(3000), 8)
        .partitionBy(ctx.hashPartitioner(8));
  });
}

TEST(ShuffleFastPath, RowPairsMatchSlowPath) {
  expectPathEquivalence([](Context& ctx) {
    std::vector<std::pair<Index, la::Row>> data;
    for (std::uint32_t i = 0; i < 2000; ++i) {
      data.emplace_back(i % 53, la::Row{0.5 * i, -1.0 * i});
    }
    return parallelize(ctx, data, 6).partitionBy(ctx.hashPartitioner(6));
  });
}

TEST(ShuffleFastPath, CombinerPathMatchesSlowPath) {
  // reduceByKey with map-side combining reorders records through the
  // combiner map before bucketing; the fast path must still be invisible.
  expectPathEquivalence([](Context& ctx) {
    std::vector<KV> data;
    for (std::uint32_t i = 0; i < 4000; ++i) data.push_back({i % 37, 1.0});
    return parallelize(ctx, data, 8)
        .reduceByKey([](const double& a, const double& b) { return a + b; },
                     nullptr, /*mapSideCombine=*/true);
  });
}

TEST(ShuffleFastPath, MixedWidthRecordsFallBackAndStillMatch) {
  // Nonzero width depends on the order each record carries; a partition
  // mixing order-3 and order-4 nonzeros defeats the uniform-width check,
  // so the fast path must fall back to per-record serde — and the result
  // must still be byte-identical to the slow path.
  expectPathEquivalence([](Context& ctx) {
    std::vector<std::pair<std::uint32_t, tensor::Nonzero>> data;
    for (std::uint32_t i = 0; i < 1500; ++i) {
      if (i % 2 == 0) {
        data.emplace_back(i, tensor::makeNonzero3(i, i + 1, i + 2, 1.0 * i));
      } else {
        data.emplace_back(i,
                          tensor::makeNonzero4(i, i + 1, i + 2, i + 3, 2.0));
      }
    }
    return parallelize(ctx, data, 4).partitionBy(ctx.hashPartitioner(4));
  });
}

TEST(ShuffleFastPath, SingleNodeKeepsEverythingLocalOnBothPaths) {
  expectPathEquivalence(
      [](Context& ctx) {
        return parallelize(ctx, makeKvData(1000), 4)
            .partitionBy(ctx.hashPartitioner(4));
      },
      /*nodes=*/1);
}

TEST(ShuffleFastPath, ByteFormulaUnchangedByFastPath) {
  // The metered total must still follow payload + envelope exactly (the
  // invariant test_shuffle_metrics pins for the slow path).
  Context ctx(clusterCfg(/*fastPath=*/true), 2);
  const auto data = makeKvData(500);
  std::uint64_t payload = 0;
  for (const auto& kv : data) payload += serdeSize(kv);
  parallelize(ctx, data, 8).partitionBy(ctx.hashPartitioner(8)).materialize();
  const auto t = ctx.metrics().totals();
  EXPECT_EQ(t.shuffleRecords, 500u);
  EXPECT_EQ(t.shuffleBytesRemote + t.shuffleBytesLocal,
            payload + 500 * ctx.config().recordEnvelopeBytes);
}

TEST(ShuffleFastPath, BufferPoolRecyclesAcrossStages) {
  // Steady-state iteration (the CP-ALS shape): the same shuffle run twice
  // must be served from pooled buffers the second time around.
  Context ctx(clusterCfg(/*fastPath=*/true), 2);
  auto source = parallelize(ctx, makeKvData(4000), 8);

  source.partitionBy(ctx.hashPartitioner(8)).materialize();
  const auto first = ctx.bufferPool().stats();
  EXPECT_GT(first.acquires, 0u);
  EXPECT_GT(first.releases, 0u);

  source.partitionBy(ctx.hashPartitioner(8)).materialize();
  const auto second = ctx.bufferPool().stats();
  EXPECT_GT(second.hits, first.hits);
  EXPECT_GT(second.bytesReused, first.bytesReused);
}

TEST(ShuffleFastPath, BufferPoolIdleWhenFastPathDisabled) {
  Context ctx(clusterCfg(/*fastPath=*/false), 2);
  parallelize(ctx, makeKvData(1000), 4)
      .partitionBy(ctx.hashPartitioner(4))
      .materialize();
  // Slow-path buckets are still parked on release for future fast stages,
  // but no acquisitions happen while the fast path is off.
  EXPECT_EQ(ctx.bufferPool().stats().hits, 0u);
}

TEST(ShuffleFastPath, ChainedShufflesStayEquivalent) {
  // Two shuffle hops back to back (partitionBy then groupByKey-style
  // repartition) — stage list must match one-for-one.
  expectPathEquivalence([](Context& ctx) {
    return parallelize(ctx, makeKvData(3000), 8)
        .partitionBy(ctx.hashPartitioner(8))
        .mapValues([](const double& v) { return v * 2.0; })
        .partitionBy(ctx.hashPartitioner(5));
  });
}

}  // namespace
}  // namespace cstf::sparkle
