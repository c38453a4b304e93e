// join and combineByKey each fuse a map into a neighbouring step: the
// join runs the map that follows it on each match, either updating its
// left records where they lie or emitting what the map returns, and
// combineByKey turns values into combiners inside the shuffle's map-side
// combine. Each must emit the same records in the same order, and record
// the same stages with the same counters, as the operators it stands for
// — under task faults and node loss too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "la/row.hpp"
#include "sparkle/sparkle.hpp"

namespace cstf::sparkle {
namespace {

using KV = std::pair<std::uint32_t, double>;
using KW = std::pair<std::uint32_t, int>;

ClusterConfig cluster(double taskFailureRate = 0.0) {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  cfg.taskFailureRate = taskFailureRate;
  // Both sides of a comparison run the same plan; a CSTF_CHAOS node loss
  // would hit them alike, but the node-loss case below sets its own.
  cfg.faults.allowEnvChaos = false;
  return cfg;
}

/// Kill `node` at every shuffle stage of the job (first attempt only).
ClusterConfig nodeLossCluster(int node) {
  ClusterConfig cfg = cluster();
  for (std::uint64_t s = 1; s <= 16; ++s) {
    cfg.faults.schedule.push_back({s, node});
  }
  cfg.faults.stageRetryDelaySec = 0.0;
  return cfg;
}

/// Every deterministic field of two stage logs (host wall times aside).
void expectSameStages(const std::vector<StageMetrics>& a,
                      const std::vector<StageMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i) + " " + a[i].label);
    EXPECT_EQ(a[i].stageId, b[i].stageId);
    EXPECT_EQ(a[i].shuffleOpId, b[i].shuffleOpId);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].scope, b[i].scope);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].work.recordsProcessed, b[i].work.recordsProcessed);
    EXPECT_EQ(a[i].work.recordsEmitted, b[i].work.recordsEmitted);
    EXPECT_EQ(a[i].work.flops, b[i].work.flops);
    EXPECT_EQ(a[i].work.sourceBytesRead, b[i].work.sourceBytesRead);
    EXPECT_EQ(a[i].work.cacheBytesDeserialized,
              b[i].work.cacheBytesDeserialized);
    EXPECT_EQ(a[i].shuffleRecords, b[i].shuffleRecords);
    EXPECT_EQ(a[i].shuffleBytesRemote, b[i].shuffleBytesRemote);
    EXPECT_EQ(a[i].shuffleBytesLocal, b[i].shuffleBytesLocal);
    EXPECT_EQ(a[i].broadcastBytes, b[i].broadcastBytes);
    EXPECT_EQ(a[i].taskRetries, b[i].taskRetries);
    EXPECT_EQ(a[i].lostNodes, b[i].lostNodes);
    EXPECT_EQ(a[i].recomputedMapTasks, b[i].recomputedMapTasks);
    EXPECT_EQ(a[i].evictedCacheBlocks, b[i].evictedCacheBlocks);
    EXPECT_EQ(a[i].simTimeSec, b[i].simTimeSec);
    EXPECT_EQ(a[i].reduceRecordsByPartition, b[i].reduceRecordsByPartition);
    EXPECT_EQ(a[i].nodeBytesInRemote, b[i].nodeBytesInRemote);
    ASSERT_EQ(a[i].tasks.size(), b[i].tasks.size());
    for (std::size_t t = 0; t < a[i].tasks.size(); ++t) {
      const TaskRecord& x = a[i].tasks[t];
      const TaskRecord& y = b[i].tasks[t];
      EXPECT_EQ(x.partition, y.partition);
      EXPECT_EQ(x.node, y.node);
      EXPECT_EQ(x.work.recordsProcessed, y.work.recordsProcessed);
      EXPECT_EQ(x.work.recordsEmitted, y.work.recordsEmitted);
      EXPECT_EQ(x.work.flops, y.work.flops);
      EXPECT_EQ(x.work.sourceBytesRead, y.work.sourceBytesRead);
      EXPECT_EQ(x.shuffleBytesOut, y.shuffleBytesOut);
      EXPECT_EQ(x.simTimeSec, y.simTimeSec);
    }
  }
}

// ---- join -------------------------------------------------------------------

TEST(Join, EmitsLiteralRecordsAndCounters) {
  // One partition, so the output order is the left order and then each
  // key's right values in arrival order.
  const std::vector<KV> leftRecs{{1, 1.0}, {2, 2.0}, {3, 3.0}, {1, 4.0}};
  const std::vector<KW> rightRecs{{1, 10}, {1, 20}, {2, 30}};
  const std::vector<KV> want{
      {110, 10.0}, {120, 20.0}, {230, 60.0}, {110, 40.0}, {120, 80.0}};
  for (const bool inPlace : {false, true}) {
    SCOPED_TRACE(inPlace ? "in place" : "emitting");
    Context ctx(cluster(), 2);
    const Rdd<KV> left = parallelize(ctx, leftRecs, 1);
    const Rdd<KW> right = parallelize(ctx, rightRecs, 1);
    auto part = ctx.hashPartitioner(1);
    const Rdd<KV> out =
        inPlace ? left.join(
                      right,
                      [](KV& kv, const int& w) {
                        kv.first = kv.first * 100 + w;
                        kv.second *= w;
                      },
                      2.0, part, "j")
                : left.join(
                      right,
                      [](const KV& kv, const int& w) {
                        return KV(kv.first * 100 + w, kv.second * w);
                      },
                      2.0, part, "j");
    EXPECT_EQ(out.collect("out"), want);
    EXPECT_EQ(out.partitioning(), nullptr);
    const std::vector<StageMetrics> stages = ctx.metrics().stages();
    ASSERT_EQ(stages.size(), 3u);
    EXPECT_EQ(stages[0].label, "j:left");
    EXPECT_EQ(stages[1].label, "j:right");
    EXPECT_EQ(stages[0].shuffleOpId, stages[1].shuffleOpId);
    // The join's task: 4 left + 3 right + 5 emitted records processed,
    // 5 emitted, 2 flops per emitted record; the decodes charge nothing.
    const StageMetrics& result = stages[2];
    EXPECT_EQ(result.kind, StageKind::kResult);
    EXPECT_EQ(result.work.recordsProcessed, 12u);
    EXPECT_EQ(result.work.recordsEmitted, 5u);
    EXPECT_EQ(result.work.flops, 10u);
    EXPECT_EQ(result.work.sourceBytesRead, 0u);
  }
}

/// Not idempotent, so an update applied twice to one record (a retry that
/// saw a failed attempt's edits, a shared block edited by an earlier
/// reader) changes the output; also re-keys.
void update(KV& kv, const int& w) {
  kv.second = kv.second * 3.0 + w;
  kv.first = (kv.first * 7 + 1) % 53;
}

constexpr double kFlops = 2.5;

/// How the left side reaches the join.
enum class Left {
  kShuffled,           // shuffled by the join: the owned decode
  kPrePartitioned,     // already partitioned by the join's partitioner
  kCachedPartitioned,  // the same, cached
};

std::vector<KV> leftData() {
  std::vector<KV> v;
  for (std::uint32_t i = 0; i < 600; ++i) {
    v.push_back({(i * 2654435761u) % 101, 0.25 * i});
  }
  return v;
}

/// Keys 0, 2, 4, ... < 101 (odd left keys go unmatched), each `copies`
/// times with distinct values.
std::vector<KW> rightData(int copies) {
  std::vector<KW> v;
  for (int c = 0; c < copies; ++c) {
    for (std::uint32_t k = 0; k < 101; k += 2) {
      v.push_back({k, static_cast<int>(k) * 10 + c});
    }
  }
  return v;
}

struct JoinRun {
  std::vector<KV> records;
  std::vector<StageMetrics> stages;
  std::vector<KV> leftAfter;  // the left side read back after the join
};

/// One join of leftData() with rightData(copies) that applies `update` in
/// place (`inPlace`) or to a copy it emits.
JoinRun runJoin(const ClusterConfig& cfg, Left how, int copies,
                bool inPlace) {
  Context ctx(cfg, 3);
  auto part = ctx.hashPartitioner(5);
  Rdd<KV> left = parallelize(ctx, leftData(), 4);
  if (how != Left::kShuffled) {
    // A pass-through merge leaves the records partitioned by `part`
    // (leftData() has duplicate keys, so keep the first value).
    left = left.reduceByKey([](double&, const double&) {}, part);
  }
  if (how == Left::kCachedPartitioned) left.cache();
  const Rdd<KW> right = parallelize(ctx, rightData(copies), 3);

  Rdd<KV> out = inPlace ? left.join(right, update, kFlops, part, "j")
                        : left.join(
                              right,
                              [](const KV& kv, const int& w) {
                                KV rec = kv;
                                update(rec, w);
                                return rec;
                              },
                              kFlops, part, "j");
  JoinRun run;
  run.records = out.collect("out");
  run.stages = ctx.metrics().stages();
  run.leftAfter = left.collect("left");
  return run;
}

void expectSameJoin(const ClusterConfig& cfg, Left how, int copies) {
  const JoinRun inPlace = runJoin(cfg, how, copies, true);
  const JoinRun emitted = runJoin(cfg, how, copies, false);
  ASSERT_FALSE(emitted.records.empty());
  EXPECT_EQ(inPlace.records, emitted.records);
  expectSameStages(inPlace.stages, emitted.stages);
  EXPECT_EQ(inPlace.leftAfter, emitted.leftAfter);
}

// JoinUpdate.*: the in-place form of join against the emitting form
// (copy, update, return) on the same inputs.

TEST(JoinUpdate, DropsUnmatchedLeftKeysLikeJoinThenMap) {
  const JoinRun run = runJoin(cluster(), Left::kShuffled, 1, true);
  // Odd keys have no right record: about half of the left is dropped.
  EXPECT_LT(run.records.size(), leftData().size());
  EXPECT_GT(run.records.size(), leftData().size() / 4);
  expectSameJoin(cluster(), Left::kShuffled, 1);
}

TEST(JoinUpdate, DuplicateRightKeysEmitCopiesInArrivalOrder) {
  const JoinRun once = runJoin(cluster(), Left::kShuffled, 1, true);
  const JoinRun thrice = runJoin(cluster(), Left::kShuffled, 3, true);
  EXPECT_EQ(thrice.records.size(), 3 * once.records.size());
  expectSameJoin(cluster(), Left::kShuffled, 3);
}

TEST(JoinUpdate, PrePartitionedLeftIsCopiedNotEdited) {
  expectSameJoin(cluster(), Left::kPrePartitioned, 1);
  expectSameJoin(cluster(), Left::kPrePartitioned, 3);
}

TEST(JoinUpdate, CachedLeftIsCopiedNotEdited) {
  // The cached blocks are shared with every later reader: the join must
  // leave them as they were, so a second join sees the same left side.
  for (const int copies : {1, 3}) {
    SCOPED_TRACE(copies);
    Context ctx(cluster(), 3);
    auto part = ctx.hashPartitioner(5);
    auto left = parallelize(ctx, leftData(), 4)
                    .reduceByKey([](double&, const double&) {}, part);
    left.cache();
    const std::vector<KV> before = left.collect();
    const Rdd<KW> right = parallelize(ctx, rightData(copies), 3);
    const std::vector<KV> first =
        left.join(right, update, kFlops, part).collect();
    const std::vector<KV> second =
        left.join(right, update, kFlops, part).collect();
    EXPECT_EQ(left.collect(), before);
    EXPECT_EQ(first, second);
    expectSameJoin(cluster(), Left::kCachedPartitioned, copies);
  }
}

TEST(JoinUpdate, RetriedTasksReDecodeAndMatchJoinThenMap) {
  // At rate 0.4 many join tasks fail after updating their records; the
  // retry decodes afresh, so no edit of a failed attempt reaches it.
  const ClusterConfig faulty = cluster(0.4);
  for (const Left how :
       {Left::kShuffled, Left::kPrePartitioned, Left::kCachedPartitioned}) {
    for (const int copies : {1, 3}) {
      SCOPED_TRACE(static_cast<int>(how) * 10 + copies);
      const JoinRun clean = runJoin(cluster(), how, copies, true);
      const JoinRun inPlace = runJoin(faulty, how, copies, true);
      std::uint64_t retries = 0;
      for (const StageMetrics& s : inPlace.stages) retries += s.taskRetries;
      EXPECT_GT(retries, 0u);
      EXPECT_EQ(inPlace.records, clean.records);
      expectSameJoin(faulty, how, copies);
    }
  }
}

TEST(JoinUpdate, NodeLossRecoversLikeJoinThenMap) {
  for (const Left how : {Left::kShuffled, Left::kCachedPartitioned}) {
    SCOPED_TRACE(static_cast<int>(how));
    const JoinRun clean = runJoin(cluster(), how, 3, true);
    const JoinRun lossy = runJoin(nodeLossCluster(1), how, 3, true);
    std::uint64_t lost = 0;
    for (const StageMetrics& s : lossy.stages) lost += s.lostNodes;
    EXPECT_GT(lost, 0u);
    EXPECT_EQ(lossy.records, clean.records);
    expectSameJoin(nodeLossCluster(1), how, 3);
  }
}

// ---- combineByKey -----------------------------------------------------------

constexpr std::uint32_t kRank = 3;

/// Element k of value v's contribution to its key's row.
double term(double v, std::uint32_t k) { return v * (k + 1) + 0.1 * k; }

la::Row createRow(const double& v) {
  la::Row row(kRank);
  for (std::uint32_t k = 0; k < kRank; ++k) row[k] = term(v, k);
  return row;
}

void addValue(la::Row& acc, const double& v) {
  for (std::uint32_t k = 0; k < kRank; ++k) acc[k] += term(v, k);
}

std::vector<KV> combineData() {
  std::vector<KV> v;
  for (std::uint32_t i = 0; i < 900; ++i) {
    v.push_back({(i * 7) % 41, 1.0 / (1 + i)});
  }
  return v;
}

struct Combined {
  std::vector<std::pair<std::uint32_t, la::Row>> rows;
  std::vector<StageMetrics> stages;
};

Combined runCombine(bool fused, bool mapSideCombine, bool prePartitioned) {
  Context ctx(cluster(), 3);
  auto part = ctx.hashPartitioner(4);
  Rdd<KV> in = parallelize(ctx, combineData(), 5);
  if (prePartitioned) {
    in = in.reduceByKey([](double& a, const double& b) { a += b; }, part);
  }
  Rdd<std::pair<std::uint32_t, la::Row>> out =
      fused ? in.combineByKey(createRow, addValue, la::rowAddInPlace, part,
                              mapSideCombine, 1.5 * kRank, kRank, "c")
            : in.mapValues(createRow, 1.5 * kRank)
                  .reduceByKey(la::rowAddInPlace, part, mapSideCombine,
                               kRank, "c");
  Combined c;
  c.rows = out.collect("out");
  c.stages = ctx.metrics().stages();
  return c;
}

TEST(CombineByKey, MatchesMapValuesThenReduceByKeyBitForBit) {
  for (const bool prePartitioned : {false, true}) {
    for (const bool combine : {true, false}) {
      SCOPED_TRACE(std::string(prePartitioned ? "narrow" : "shuffled") +
                   (combine ? ", map-side combine" : ", no combine"));
      const Combined fused = runCombine(true, combine, prePartitioned);
      const Combined plain = runCombine(false, combine, prePartitioned);
      ASSERT_EQ(fused.rows.size(), 41u);
      ASSERT_EQ(fused.rows.size(), plain.rows.size());
      for (std::size_t i = 0; i < fused.rows.size(); ++i) {
        EXPECT_EQ(fused.rows[i].first, plain.rows[i].first);
        ASSERT_EQ(fused.rows[i].second.size(), kRank);
        ASSERT_EQ(plain.rows[i].second.size(), kRank);
        EXPECT_EQ(std::memcmp(fused.rows[i].second.data(),
                              plain.rows[i].second.data(),
                              kRank * sizeof(double)),
                  0)
            << "key " << fused.rows[i].first;
      }
      expectSameStages(fused.stages, plain.stages);
    }
  }
}

TEST(CombineByKey, MapSideCombineShipsOneCombinerPerKeyAndTask) {
  const Combined combined = runCombine(true, true, false);
  const Combined plain = runCombine(true, false, false);
  ASSERT_EQ(combined.stages.front().kind, StageKind::kShuffle);
  // Five map tasks, 41 keys: each task ships at most one row per key.
  EXPECT_LE(combined.stages.front().shuffleRecords, 5u * 41u);
  EXPECT_EQ(plain.stages.front().shuffleRecords, combineData().size());
}

}  // namespace
}  // namespace cstf::sparkle
