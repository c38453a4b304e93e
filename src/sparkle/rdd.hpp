// Rdd<T>: the typed user-facing handle over the dataset DAG.
//
// Only the operators CSTF-COO, CSTF-QCOO, BIGtensor and the broadcast
// local path run, with Spark's semantics:
//  * transformations (`map`, `mapValues`, `mapPartitionsWithCounters`) are
//    lazy and return new Rdds sharing lineage; `mapValues` preserves
//    partitioning, `map` does not;
//  * `join`/`combineByKey`/`reduceByKey` shuffle only the sides that are
//    not already partitioned by the target partitioner; `join` runs the
//    map that follows it in its own task;
//  * actions (`collect`, `foreachPartition`, `count`, `materialize`)
//    execute a job: materialize all shuffle dependencies, then run one
//    result task per partition;
//  * `cache`/`unpersist` memoize partitions, `snapshot` detaches lineage,
//    and `parallelize`, `generate` and `broadcast` bring in-process data
//    into the engine.
//
// Per-record flop hints (`map`, `mapValues`, `join`, reduceByKey's
// flopsPerMerge) feed the deterministic cluster time model; they do not
// change results.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sparkle/dataset.hpp"
#include "sparkle/shuffle.hpp"

namespace cstf::sparkle {

namespace detail {

template <typename T>
struct PairTraits {
  static constexpr bool isPair = false;
};
template <typename A, typename B>
struct PairTraits<std::pair<A, B>> {
  static constexpr bool isPair = true;
  using Key = A;
  using Value = B;
};

}  // namespace detail

template <typename T>
class Rdd {
 public:
  using element_type = T;

  Rdd(Context* ctx, std::shared_ptr<Dataset<T>> ds)
      : ctx_(ctx), ds_(std::move(ds)) {}

  Context* context() const { return ctx_; }
  const std::shared_ptr<Dataset<T>>& dataset() const { return ds_; }
  /// Stable id of the underlying dataset — the key for cache-time
  /// partition artifacts (Context::putPartitionArtifact and friends).
  std::uint64_t datasetId() const { return ds_->id(); }
  std::size_t numPartitions() const { return ds_->numPartitions(); }
  std::shared_ptr<Partitioner> partitioning() const {
    return ds_->outputPartitioning();
  }

  // ---- caching -----------------------------------------------------------

  /// Persist computed partitions (no-op in Hadoop mode, where MapReduce
  /// cannot keep datasets resident between jobs). Raw storage is the
  /// paper's choice for iterative tensor algorithms (§4.1); kSerialized
  /// trades read-back CPU for a smaller memory footprint.
  const Rdd& cache(StorageLevel level = StorageLevel::kRaw) const {
    if (ctx_->cachingEnabled()) ds_->enableCache(level);
    return *this;
  }

  const Rdd& unpersist() const {
    ds_->unpersist();
    return *this;
  }

  bool isCached() const { return ds_->isCached(); }
  StorageLevel storageLevel() const { return ds_->storageLevel(); }
  /// Estimated executor memory held by this RDD's cache.
  std::uint64_t cachedMemoryBytes() const { return ds_->cachedMemoryBytes(); }

  // ---- narrow transformations ---------------------------------------------

  /// `flopsPerRecord` attributes flops to each record for the time model.
  template <typename F, typename Out = std::invoke_result_t<F, const T&>>
  Rdd<Out> map(F f, double flopsPerRecord = 0.0) const {
    auto ds = std::make_shared<MapDataset<T, Out, F>>(
        ctx_, ds_, std::move(f), flopsPerRecord,
        /*preservesPartitioning=*/false);
    return Rdd<Out>(ctx_, std::move(ds));
  }

  /// f: (partitionIndex, const std::vector<T>&, TaskCounters&) ->
  /// std::vector<Out>. The body meters its own work (flops, emitted
  /// records) against the task's counters — for partition-local kernels
  /// whose cost is not proportional to input size.
  template <typename F,
            typename C = std::invoke_result_t<F, std::size_t,
                                              const std::vector<T>&,
                                              TaskCounters&>,
            typename Out = typename C::value_type>
  Rdd<Out> mapPartitionsWithCounters(
      F f, bool preservesPartitioning = false) const {
    auto ds = std::make_shared<MapPartitionsWithCountersDataset<T, Out, F>>(
        ctx_, ds_, std::move(f), preservesPartitioning);
    return Rdd<Out>(ctx_, std::move(ds));
  }

  // ---- pair transformations ------------------------------------------------

  template <typename F, typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value,
            typename V2 = std::invoke_result_t<F, const V&>>
  Rdd<std::pair<K, V2>> mapValues(F f, double flopsPerRecord = 0.0) const {
    auto g = [h = std::move(f)](const std::pair<K, V>& kv) {
      return std::pair<K, V2>(kv.first, h(kv.second));
    };
    auto ds = std::make_shared<MapDataset<T, std::pair<K, V2>, decltype(g)>>(
        ctx_, ds_, std::move(g), flopsPerRecord,
        /*preservesPartitioning=*/true);
    return Rdd<std::pair<K, V2>>(ctx_, std::move(ds));
  }

  /// Inner join on `part` (when null: this side's partitioner, else the
  /// other side's, else the default hash partitioner), shuffling only the
  /// sides not already partitioned by it; both shuffle stages share one
  /// logical shuffle-op id. Calls f(rec, w) for each left record rec and
  /// each right value w of its key, in left order and then right-side
  /// arrival order. An f that returns void updates rec in place (it may
  /// rewrite both key and value) and the join emits the updated records;
  /// any other f's results are emitted. `flopsPerRecord` is charged per
  /// emitted record, as map charges it. Like map's, the result is not
  /// partitioned. See HashJoinDataset.
  template <typename W, typename F, typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value,
            typename Out = JoinOutput<K, V, W, F>>
  Rdd<Out> join(const Rdd<std::pair<K, W>>& other, F f,
                double flopsPerRecord = 0.0,
                std::shared_ptr<Partitioner> part = nullptr,
                const std::string& label = "join") const {
    if (!part) {
      if (ds_->outputPartitioning()) {
        part = ds_->outputPartitioning();
      } else if (other.dataset()->outputPartitioning()) {
        part = other.dataset()->outputPartitioning();
      } else {
        part = ctx_->hashPartitioner();
      }
    }
    const std::uint64_t opId = ctx_->metrics().nextShuffleOpId();
    std::shared_ptr<Dataset<std::pair<K, V>>> lhs = ds_;
    if (!samePartitioning(lhs->outputPartitioning(), part)) {
      lhs = std::make_shared<ShuffledDataset<K, V>>(ctx_, lhs, part,
                                                    label + ":left", opId);
    }
    std::shared_ptr<Dataset<std::pair<K, W>>> rhs = other.dataset();
    if (!samePartitioning(rhs->outputPartitioning(), part)) {
      rhs = std::make_shared<ShuffledDataset<K, W>>(ctx_, rhs, part,
                                                    label + ":right", opId);
    }
    auto ds = std::make_shared<HashJoinDataset<K, V, W, F>>(
        ctx_, std::move(lhs), std::move(rhs), std::move(f), flopsPerRecord);
    return Rdd<Out>(ctx_, std::move(ds));
  }

  /// reduceByKey. When the input is already partitioned by `part` this is a
  /// narrow local merge (Spark's behaviour); otherwise one shuffle, with
  /// optional map-side combining. `f(acc, x)` merges `x` into `acc` in
  /// place, so a merge allocates nothing; values meet in arrival order.
  /// The identity case of combineByKey: each value is its own combiner.
  template <typename F, typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value>
  Rdd<T> reduceByKey(F f, std::shared_ptr<Partitioner> part = nullptr,
                     bool mapSideCombine = true, double flopsPerMerge = 0.0,
                     const std::string& label = "reduceByKey") const {
    InPlaceMerge<V> func = std::move(f);
    return combineByKey(std::function<V(const V&)>(), func, func,
                        std::move(part), mapSideCombine, 0.0, flopsPerMerge,
                        label);
  }

  /// combineByKey (Spark's, with in-place merges). Per key, `create(v)`
  /// turns a map task's first value into a combiner C, `mergeValue(c, v)`
  /// folds each later value of that task into it, and
  /// `mergeCombiners(c, c2)` merges the tasks' combiners on the reduce side
  /// in map-partition order. Without map-side combine every value ships
  /// as create(v). When mergeValue(c, v) does what
  /// mergeCombiners(c, create(v)) does, the result equals
  /// mapValues(create, createFlops).reduceByKey(mergeCombiners, part,
  /// mapSideCombine, flopsPerMerge, label) record for record, and so do
  /// the stages and their counters; only the C built for every merged
  /// value is never made. An empty std::function `create` makes each value
  /// its own combiner (C = V): that is reduceByKey. On an input already
  /// partitioned by `part` this is the narrow mapValues(create) + merge.
  template <typename Create, typename MergeValue, typename MergeCombiners,
            typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value,
            typename C = std::invoke_result_t<Create&, const V&>>
  Rdd<std::pair<K, C>> combineByKey(
      Create create, MergeValue mergeValue, MergeCombiners mergeCombiners,
      std::shared_ptr<Partitioner> part = nullptr, bool mapSideCombine = true,
      double createFlops = 0.0, double flopsPerMerge = 0.0,
      const std::string& label = "combineByKey") const {
    using Out = std::pair<K, C>;
    std::function<C(const V&)> createFn = std::move(create);
    if (!part) {
      part = ds_->outputPartitioning() ? ds_->outputPartitioning()
                                       : ctx_->hashPartitioner();
    }
    std::shared_ptr<Dataset<Out>> input;
    if (!samePartitioning(ds_->outputPartitioning(), part)) {
      const std::uint64_t opId = ctx_->metrics().nextShuffleOpId();
      input = std::make_shared<ShuffledDataset<K, V, C>>(
          ctx_, ds_, part, label, opId,
          mapSideCombine ? InPlaceMerge<C, V>(std::move(mergeValue))
                         : nullptr,
          mapSideCombine ? flopsPerMerge : 0.0, std::move(createFn),
          createFlops);
    } else if (createFn) {
      auto g = [h = std::move(createFn)](const T& kv) {
        return Out(kv.first, h(kv.second));
      };
      input = std::make_shared<MapDataset<T, Out, decltype(g)>>(
          ctx_, ds_, std::move(g), createFlops,
          /*preservesPartitioning=*/true);
    } else {
      if constexpr (std::is_same_v<C, V>) input = ds_;
    }
    CSTF_CHECK(input != nullptr, "combineByKey needs a create step");
    auto ds = std::make_shared<ReduceByKeyMergeDataset<K, C>>(
        ctx_, std::move(input), InPlaceMerge<C>(std::move(mergeCombiners)),
        flopsPerMerge);
    return Rdd<Out>(ctx_, std::move(ds));
  }

  // ---- actions --------------------------------------------------------------

  std::vector<T> collect(const std::string& label = "collect") const {
    std::vector<std::vector<T>> parts(numPartitions());
    runResultStage(label, [&](std::size_t p, Block<T> block) {
      parts[p].assign(block->begin(), block->end());
    });
    std::size_t total = 0;
    for (const auto& v : parts) total += v.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& v : parts) {
      out.insert(out.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
    }
    return out;
  }

  /// Run `fn(p, records)` once per partition as one result stage, handing
  /// each partition to the driver-side sink where it lies instead of
  /// copying it out (collectRows writes reduced rows straight into a
  /// matrix). The sink is unmetered, so the stage records exactly what
  /// collect() would. Sinks run concurrently on distinct partitions and
  /// rerun with a retried task, so `fn` must write only state its
  /// partition owns and be idempotent.
  template <typename F>
  void foreachPartition(const std::string& label, F fn) const {
    runResultStage(label,
                   [&](std::size_t p, Block<T> block) { fn(p, *block); });
  }

  std::size_t count(const std::string& label = "count") const {
    std::vector<std::size_t> counts(numPartitions(), 0);
    runResultStage(label, [&](std::size_t p, Block<T> block) {
      counts[p] = block->size();
    });
    return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  }

  /// Force materialization of the whole lineage without moving data to the
  /// driver. With cache() enabled this is Spark's idiomatic warm-up.
  void materialize(const std::string& label = "materialize") const {
    runResultStage(label, [](std::size_t, Block<T>) {});
  }

  /// Detach from lineage: an Rdd over this dataset's current partition
  /// contents (shared-pointer copies, no data movement, no metrics).
  /// Models holding a fully materialized in-memory RDD while its upstream
  /// shuffle data gets garbage-collected — Spark's ContextCleaner does this
  /// automatically; here it keeps iterative lineages (QCOO's queue RDD)
  /// from retaining every past iteration's shuffle blocks. Call only on a
  /// materialized/cached dataset: computing through snapshot() is unmetered.
  Rdd<T> snapshot() const {
    ds_->ensureReady();
    std::vector<Block<T>> blocks(numPartitions());
    ctx_->pool().parallelFor(numPartitions(), [&](std::size_t p) {
      TaskContext tc;
      tc.partitionId = p;
      blocks[p] = ds_->partition(p, tc);
    });
    auto d = std::make_shared<BlocksDataset<T>>(ctx_, std::move(blocks),
                                                ds_->outputPartitioning());
    return Rdd<T>(ctx_, std::move(d));
  }

 private:
  /// Execute one task per partition (materializing shuffle deps first) and
  /// record a result-stage metrics entry.
  void runResultStage(
      const std::string& label,
      const std::function<void(std::size_t, Block<T>)>& sink) const {
    const auto t0 = std::chrono::steady_clock::now();
    TraceSpan stageSpan(ctx_->trace(), "result:" + label, "stage");
    ds_->ensureReady();
    const std::size_t nParts = numPartitions();
    StageMetrics m;
    m.stageId = ctx_->metrics().nextStageId();
    m.kind = StageKind::kResult;
    m.label = label;
    m.tasks.resize(nParts);
    ctx_->pool().parallelFor(nParts, [&](std::size_t p) {
      m.tasks[p] = runTask(ctx_, m.stageId, p, label, [&](TaskContext& tc) {
        sink(p, ds_->partition(p, tc));
      });
    });
    m.wallTimeSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (stageSpan.active()) {
      std::uint64_t records = 0;
      for (const TaskRecord& task : m.tasks) {
        records += task.work.recordsProcessed;
      }
      stageSpan.arg("tasks", std::uint64_t{nParts});
      stageSpan.arg("records", records);
    }
    ctx_->metrics().record(std::move(m));
  }

  Context* ctx_;
  std::shared_ptr<Dataset<T>> ds_;
};

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

template <typename T>
Rdd<T> parallelize(Context& ctx, std::vector<T> data,
                   std::size_t numPartitions = 0) {
  if (numPartitions == 0) numPartitions = ctx.defaultParallelism();
  auto ds = std::make_shared<ParallelizeDataset<T>>(&ctx, std::move(data),
                                                    numPartitions);
  return Rdd<T>(&ctx, std::move(ds));
}

/// Records produced on demand by f(i) for i in [0, count).
template <typename F, typename T = std::invoke_result_t<F, std::size_t>>
Rdd<T> generate(Context& ctx, std::size_t count, F f,
                std::size_t numPartitions = 0) {
  if (numPartitions == 0) numPartitions = ctx.defaultParallelism();
  auto ds = std::make_shared<GeneratorDataset<T, F>>(&ctx, count, std::move(f),
                                                     numPartitions);
  return Rdd<T>(&ctx, std::move(ds));
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

/// Read-only value shipped once to every node (linear fan-out model). Tiny
/// in this codebase — gram matrices are R x R — but metered for honesty.
template <typename T>
class Broadcast {
 public:
  explicit Broadcast(std::shared_ptr<const T> v) : v_(std::move(v)) {}
  const T& value() const { return *v_; }

 private:
  std::shared_ptr<const T> v_;
};

template <typename T>
Broadcast<T> broadcast(Context& ctx, T value,
                       const std::string& label = "broadcast") {
  const std::uint64_t bytes = FixedWidthSerde<T>::width(value);
  const ClusterConfig& cfg = ctx.config();
  StageMetrics m;
  m.kind = StageKind::kBroadcast;
  m.label = label;
  m.broadcastBytes = bytes * (cfg.numNodes > 0 ? cfg.numNodes - 1 : 0);
  // Each of the numNodes - 1 receivers pulls one copy over its own link;
  // the source node (node 0, where the driver-side value lives) pays no
  // inbound cost — matching broadcastBytes above.
  m.nodeBytesInRemote.assign(cfg.numNodes, bytes);
  if (!m.nodeBytesInRemote.empty()) m.nodeBytesInRemote[0] = 0;
  ctx.metrics().record(std::move(m));
  return Broadcast<T>(std::make_shared<const T>(std::move(value)));
}

}  // namespace cstf::sparkle
