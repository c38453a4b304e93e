// Rdd<T>: the typed user-facing handle over the dataset DAG.
//
// API and semantics follow Spark:
//  * transformations are lazy and return new Rdds sharing lineage;
//  * `mapValues`/`filter` preserve partitioning, `map`/`keyBy` do not;
//  * `join`/`reduceByKey`/`partitionBy` shuffle only the sides that are not
//    already partitioned by the target partitioner;
//  * actions (`collect`, `count`, `reduce`) execute a job: materialize all
//    shuffle dependencies, then run one result task per partition.
//
// Per-record flop hints (`mapWithFlops`, reduceByKey's flopsPerMerge) feed
// the deterministic cluster time model; they do not change results.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
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

  /// Spark-compatible alias.
  const Rdd& persist(StorageLevel level) const { return cache(level); }

  const Rdd& unpersist() const {
    ds_->unpersist();
    return *this;
  }

  bool isCached() const { return ds_->isCached(); }
  StorageLevel storageLevel() const { return ds_->storageLevel(); }
  /// Estimated executor memory held by this RDD's cache.
  std::uint64_t cachedMemoryBytes() const { return ds_->cachedMemoryBytes(); }

  // ---- narrow transformations ---------------------------------------------

  template <typename F, typename Out = std::invoke_result_t<F, const T&>>
  Rdd<Out> map(F f) const {
    return mapWithFlops(std::move(f), 0.0);
  }

  /// map with a per-record flop attribution for the time model.
  template <typename F, typename Out = std::invoke_result_t<F, const T&>>
  Rdd<Out> mapWithFlops(F f, double flopsPerRecord) const {
    auto ds = std::make_shared<MapDataset<T, Out, F>>(
        ctx_, ds_, std::move(f), flopsPerRecord,
        /*preservesPartitioning=*/false, "map");
    return Rdd<Out>(ctx_, std::move(ds));
  }

  template <typename F>
  Rdd<T> filter(F f) const {
    auto ds = std::make_shared<FilterDataset<T, F>>(ctx_, ds_, std::move(f));
    return Rdd<T>(ctx_, std::move(ds));
  }

  template <typename F,
            typename C = std::invoke_result_t<F, const T&>,
            typename Out = typename C::value_type>
  Rdd<Out> flatMap(F f) const {
    auto ds =
        std::make_shared<FlatMapDataset<T, Out, F>>(ctx_, ds_, std::move(f));
    return Rdd<Out>(ctx_, std::move(ds));
  }

  /// f: const std::vector<T>& -> std::vector<Out>
  template <typename F,
            typename C = std::invoke_result_t<F, const std::vector<T>&>,
            typename Out = typename C::value_type>
  Rdd<Out> mapPartitions(F f, bool preservesPartitioning = false) const {
    auto ds = std::make_shared<MapPartitionsDataset<T, Out, F>>(
        ctx_, ds_, std::move(f), preservesPartitioning);
    return Rdd<Out>(ctx_, std::move(ds));
  }

  /// f: (partitionIndex, const std::vector<T>&) -> std::vector<Out>
  template <typename F,
            typename C = std::invoke_result_t<F, std::size_t,
                                              const std::vector<T>&>,
            typename Out = typename C::value_type>
  Rdd<Out> mapPartitionsWithIndex(F f,
                                  bool preservesPartitioning = false) const {
    auto ds = std::make_shared<MapPartitionsWithIndexDataset<T, Out, F>>(
        ctx_, ds_, std::move(f), preservesPartitioning);
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

  /// Distinct elements (one shuffle). Requires KeyHash<T> and Serde<T>.
  Rdd<T> distinct(std::shared_ptr<Partitioner> part = nullptr) const {
    auto keyed = map([](const T& x) {
      return std::pair<T, std::uint8_t>(x, std::uint8_t{1});
    });
    auto reduced = keyed.reduceByKey(
        [](const std::uint8_t& a, const std::uint8_t&) { return a; },
        std::move(part), /*mapSideCombine=*/true, 0.0, "distinct");
    return reduced.map(
        [](const std::pair<T, std::uint8_t>& kv) { return kv.first; });
  }

  /// Pair every element with its global index (two passes, like Spark:
  /// first count per partition, then assign offsets).
  Rdd<std::pair<std::uint64_t, T>> zipWithIndex() const {
    auto counts = mapPartitions([](const std::vector<T>& part) {
                    return std::vector<std::uint64_t>{part.size()};
                  }).collect("zipWithIndex-counts");
    auto offsets = std::make_shared<std::vector<std::uint64_t>>(
        counts.size() + 1, 0);
    for (std::size_t p = 0; p < counts.size(); ++p) {
      (*offsets)[p + 1] = (*offsets)[p] + counts[p];
    }
    return mapPartitionsWithIndex(
        [offsets](std::size_t p, const std::vector<T>& part) {
          std::vector<std::pair<std::uint64_t, T>> out;
          out.reserve(part.size());
          std::uint64_t idx = (*offsets)[p];
          for (const T& x : part) out.emplace_back(idx++, x);
          return out;
        });
  }

  template <typename F, typename K = std::invoke_result_t<F, const T&>>
  Rdd<std::pair<K, T>> keyBy(F f) const {
    return map([g = std::move(f)](const T& x) {
      return std::pair<K, T>(g(x), x);
    });
  }

  Rdd<T> unionWith(const Rdd<T>& other) const {
    auto ds = std::make_shared<UnionDataset<T>>(ctx_, ds_, other.ds_);
    return Rdd<T>(ctx_, std::move(ds));
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
        /*preservesPartitioning=*/true, "mapValues");
    return Rdd<std::pair<K, V2>>(ctx_, std::move(ds));
  }

  /// Repartition by key. Skipped (returns *this) when already partitioned
  /// by the given partitioner.
  template <typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>>
  Rdd<T> partitionBy(std::shared_ptr<Partitioner> part,
                     const std::string& label = "partitionBy") const {
    using K = typename detail::PairTraits<TT>::Key;
    using V = typename detail::PairTraits<TT>::Value;
    if (samePartitioning(ds_->outputPartitioning(), part)) return *this;
    const std::uint64_t opId = ctx_->metrics().nextShuffleOpId();
    auto ds = std::make_shared<ShuffledDataset<K, V>>(ctx_, ds_, part, label,
                                                      opId);
    return Rdd<T>(ctx_, std::move(ds));
  }

  /// Inner join. Shuffles only sides not already partitioned by `part`
  /// (both shuffle stages share one logical shuffle-op id).
  template <typename W, typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value>
  Rdd<std::pair<K, std::pair<V, W>>> join(
      const Rdd<std::pair<K, W>>& other,
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
    auto ds = std::make_shared<JoinDataset<K, V, W>>(ctx_, std::move(lhs),
                                                     std::move(rhs), part);
    return Rdd<std::pair<K, std::pair<V, W>>>(ctx_, std::move(ds));
  }

  /// cogroup: for every key, collect ALL values from both sides. One
  /// logical shuffle op (sides already partitioned by `part` stay put).
  template <typename W, typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value>
  Rdd<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>> cogroup(
      const Rdd<std::pair<K, W>>& other,
      std::shared_ptr<Partitioner> part = nullptr,
      const std::string& label = "cogroup") const {
    if (!part) {
      part = ds_->outputPartitioning() ? ds_->outputPartitioning()
                                       : ctx_->hashPartitioner();
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
    auto ds = std::make_shared<CoGroupDataset<K, V, W>>(ctx_, std::move(lhs),
                                                        std::move(rhs), part);
    return Rdd<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>>(
        ctx_, std::move(ds));
  }

  /// Left outer join: every left record appears once per matching right
  /// value, or once with an empty optional when unmatched.
  template <typename W, typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value>
  Rdd<std::pair<K, std::pair<V, std::optional<W>>>> leftOuterJoin(
      const Rdd<std::pair<K, W>>& other,
      std::shared_ptr<Partitioner> part = nullptr) const {
    using Out = std::pair<K, std::pair<V, std::optional<W>>>;
    return cogroup(other, std::move(part), "leftOuterJoin")
        .flatMap([](const std::pair<
                     K, std::pair<std::vector<V>, std::vector<W>>>& kv) {
          std::vector<Out> out;
          const auto& [vs, ws] = kv.second;
          for (const V& v : vs) {
            if (ws.empty()) {
              out.push_back({kv.first, {v, std::nullopt}});
            } else {
              for (const W& w : ws) out.push_back({kv.first, {v, w}});
            }
          }
          return out;
        });
  }

  /// combineByKey (Spark's general aggregation): createCombiner lifts the
  /// first value of a key into the accumulator type C, mergeValue folds
  /// further values in, mergeCombiners merges accumulators across
  /// partitions. With mapSideCombine, each map task pre-aggregates its
  /// partition before the shuffle.
  template <typename CreateFn, typename MergeValueFn, typename MergeCombFn,
            typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value,
            typename C = std::invoke_result_t<CreateFn, const V&>>
  Rdd<std::pair<K, C>> combineByKey(CreateFn create, MergeValueFn mergeValue,
                                    MergeCombFn mergeCombiners,
                                    std::shared_ptr<Partitioner> part = nullptr,
                                    bool mapSideCombine = true) const {
    if (!part) {
      part = ds_->outputPartitioning() ? ds_->outputPartitioning()
                                       : ctx_->hashPartitioner();
    }
    auto localCombine = [create, mergeValue](
                            const std::vector<std::pair<K, V>>& partIn) {
      std::unordered_map<K, C, StdKeyHash<K>> acc;
      acc.reserve(partIn.size());
      for (const auto& [k, v] : partIn) {
        auto it = acc.find(k);
        if (it == acc.end()) {
          acc.emplace(k, create(v));
        } else {
          it->second = mergeValue(it->second, v);
        }
      }
      return std::vector<std::pair<K, C>>(acc.begin(), acc.end());
    };
    if (mapSideCombine) {
      return mapPartitions(localCombine)
          .reduceByKey(mergeCombiners, part, /*mapSideCombine=*/false, 0.0,
                       "combineByKey");
    }
    // Shuffle raw values, then aggregate within each (complete) partition.
    return partitionBy(part, "combineByKey")
        .mapPartitions(localCombine, /*preservesPartitioning=*/true);
  }

  /// reduceByKey. When the input is already partitioned by `part` this is a
  /// narrow local merge (Spark's behaviour); otherwise one shuffle, with
  /// optional map-side combining.
  template <typename F, typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value>
  Rdd<T> reduceByKey(F f, std::shared_ptr<Partitioner> part = nullptr,
                     bool mapSideCombine = true, double flopsPerMerge = 0.0,
                     const std::string& label = "reduceByKey") const {
    if (!part) {
      part = ds_->outputPartitioning() ? ds_->outputPartitioning()
                                       : ctx_->hashPartitioner();
    }
    std::function<V(const V&, const V&)> func = f;
    std::shared_ptr<Dataset<T>> input = ds_;
    if (!samePartitioning(input->outputPartitioning(), part)) {
      const std::uint64_t opId = ctx_->metrics().nextShuffleOpId();
      input = std::make_shared<ShuffledDataset<K, V>>(
          ctx_, input, part, label, opId, mapSideCombine ? func : nullptr,
          mapSideCombine ? flopsPerMerge : 0.0);
    }
    auto ds = std::make_shared<ReduceByKeyMergeDataset<K, V>>(
        ctx_, std::move(input), func, flopsPerMerge);
    return Rdd<T>(ctx_, std::move(ds));
  }

  /// groupByKey: all values per key in one record. Prefer reduceByKey /
  /// combineByKey when an aggregation exists (this one shuffles every
  /// value, like Spark's).
  template <typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key,
            typename V = typename detail::PairTraits<TT>::Value>
  Rdd<std::pair<K, std::vector<V>>> groupByKey(
      std::shared_ptr<Partitioner> part = nullptr) const {
    if (!part) {
      part = ds_->outputPartitioning() ? ds_->outputPartitioning()
                                       : ctx_->hashPartitioner();
    }
    return partitionBy(part, "groupByKey")
        .mapPartitions(
            [](const std::vector<std::pair<K, V>>& partIn) {
              std::unordered_map<K, std::vector<V>, StdKeyHash<K>> groups;
              for (const auto& [k, v] : partIn) groups[k].push_back(v);
              std::vector<std::pair<K, std::vector<V>>> out;
              out.reserve(groups.size());
              for (auto& kv : groups) out.push_back(std::move(kv));
              return out;
            },
            /*preservesPartitioning=*/true);
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

  std::size_t count(const std::string& label = "count") const {
    std::vector<std::size_t> counts(numPartitions(), 0);
    runResultStage(label, [&](std::size_t p, Block<T> block) {
      counts[p] = block->size();
    });
    return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  }

  /// Commutative/associative reduction to the driver. Throws on empty Rdd.
  template <typename F>
  T reduce(F f, const std::string& label = "reduce") const {
    std::vector<std::optional<T>> partials(numPartitions());
    runResultStage(label, [&](std::size_t p, Block<T> block) {
      std::optional<T> acc;
      for (const T& x : *block) {
        if (acc) {
          acc = f(*acc, x);
        } else {
          acc = x;
        }
      }
      partials[p] = std::move(acc);
    });
    std::optional<T> result;
    for (auto& part : partials) {
      if (!part) continue;
      if (result) {
        result = f(*result, *part);
      } else {
        result = std::move(part);
      }
    }
    CSTF_CHECK(result.has_value(), "reduce on an empty Rdd");
    return *result;
  }

  /// First `n` elements in partition order. Scans partitions one at a time
  /// and stops as soon as `n` records are gathered (truncating within the
  /// last partition), so first() on a narrow lineage computes — and meters —
  /// only the partitions it actually touched instead of collecting the
  /// whole RDD. Shuffle dependencies still materialize fully, as in Spark.
  std::vector<T> take(std::size_t n, const std::string& label = "take") const {
    std::vector<T> out;
    if (n == 0) return out;
    const auto t0 = std::chrono::steady_clock::now();
    TraceSpan stageSpan(ctx_->trace(), "result:" + label, "stage");
    ds_->ensureReady();
    const std::size_t nParts = numPartitions();
    const std::uint64_t stageId = ctx_->metrics().nextStageId();
    const ClusterConfig& cfg = ctx_->config();
    std::vector<TaskRecord> tasks;
    for (std::size_t p = 0; p < nParts && out.size() < n; ++p) {
      const auto tt0 = std::chrono::steady_clock::now();
      TaskContext taskResult;
      Block<T> block;
      runTaskWithRetries(ctx_, stageId, p, label, taskResult,
                         [&](TaskContext& tc) {
        block = ds_->partition(p, tc);
      });
      const std::size_t want =
          std::min(n - out.size(), block->size());
      out.insert(out.end(), block->begin(),
                 block->begin() + static_cast<std::ptrdiff_t>(want));
      TaskRecord task;
      task.partition = static_cast<std::uint32_t>(p);
      task.node = static_cast<std::uint32_t>(cfg.nodeOfPartition(p));
      task.work = taskResult.counters;
      task.wallTimeSec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - tt0)
                             .count();
      tasks.push_back(std::move(task));
    }

    StageMetrics m;
    m.stageId = stageId;
    m.kind = StageKind::kResult;
    m.label = label;
    StageCost cost;
    cost.nodeComputeSec.assign(cfg.numNodes, 0.0);
    for (TaskRecord& task : tasks) {
      m.work += task.work;
      const double sec = ctx_->metrics().computeSecondsOf(task.work);
      task.simTimeSec = sec;
      cost.maxTaskSec = std::max(cost.maxTaskSec, sec);
      cost.nodeComputeSec[static_cast<std::size_t>(task.node)] += sec;
    }
    for (auto& sec : cost.nodeComputeSec) sec /= cfg.coresPerNode;
    if (cfg.mode == ExecutionMode::kHadoop) cost.jobsStarted = 1;
    m.wallTimeSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (stageSpan.active()) {
      stageSpan.arg("tasks", std::uint64_t{tasks.size()});
      stageSpan.arg("records", m.work.recordsProcessed);
    }
    m.tasks = std::move(tasks);
    ctx_->metrics().record(std::move(m), cost);
    return out;
  }

  /// First element; throws on an empty Rdd.
  T first() const {
    auto head = take(1, "first");
    CSTF_CHECK(!head.empty(), "first() on an empty Rdd");
    return head.front();
  }

  /// Per-key record counts, returned to the driver.
  template <typename TT = T,
            typename = std::enable_if_t<detail::PairTraits<TT>::isPair>,
            typename K = typename detail::PairTraits<TT>::Key>
  std::vector<std::pair<K, std::uint64_t>> countByKey() const {
    auto counted = mapValues([](const auto&) { return std::uint64_t{1}; })
                       .reduceByKey([](const std::uint64_t& a,
                                       const std::uint64_t& b) {
                         return a + b;
                       },
                       nullptr, true, 0.0, "countByKey");
    return counted.collect("countByKey");
  }

  /// Spark's toDebugString: indented lineage of this Rdd, shuffle
  /// boundaries marked. For humans and tests, not for parsing.
  std::string toDebugString() const {
    std::string out;
    std::function<void(const DatasetBase*, int)> walk =
        [&](const DatasetBase* d, int depth) {
          out.append(static_cast<std::size_t>(depth) * 2, ' ');
          out += "(" + std::to_string(d->numPartitions()) + ") " +
                 d->opName() + " [#" + std::to_string(d->id()) + "]\n";
          for (const DatasetBase* p : d->parents()) walk(p, depth + 1);
        };
    walk(ds_.get(), 0);
    return out;
  }

  /// Force materialization of the whole lineage without moving data to the
  /// driver. With cache() enabled this is Spark's idiomatic warm-up.
  void materialize(const std::string& label = "materialize") const {
    runResultStage(label, [](std::size_t, Block<T>) {});
  }

  /// Spark's checkpoint(): materialize, write to reliable storage (the
  /// disk model meters the write), and detach from lineage so recovery
  /// reads the checkpoint instead of recomputing. Returns the
  /// checkpointed Rdd.
  Rdd<T> checkpoint(const std::string& label = "checkpoint") const {
    Rdd<T> snap = snapshot();
    std::uint64_t bytes = 0;
    {
      TaskContext tc;
      for (std::size_t p = 0; p < snap.numPartitions(); ++p) {
        Block<T> block = snap.dataset()->partition(p, tc);
        for (const T& rec : *block) bytes += serdeSize(rec);
      }
    }
    StageMetrics m;
    m.kind = StageKind::kResult;
    m.label = label;
    StageCost cost;
    cost.diskBytes = bytes;
    if (ctx_->config().mode == ExecutionMode::kHadoop) cost.jobsStarted = 1;
    ctx_->metrics().record(std::move(m), cost);
    return snap;
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
    const std::uint64_t stageId = ctx_->metrics().nextStageId();
    const ClusterConfig& cfg = ctx_->config();
    std::vector<TaskRecord> tasks(nParts);
    ctx_->pool().parallelFor(nParts, [&](std::size_t p) {
      TraceRecorder& rec = ctx_->trace();
      const double traceTs = rec.enabled() ? rec.nowMicros() : 0.0;
      const auto tt0 = std::chrono::steady_clock::now();
      ctx_->noteTaskStarted(stageId, static_cast<std::uint32_t>(p));
      TaskContext taskResult;
      runTaskWithRetries(ctx_, stageId, p, label, taskResult,
                         [&](TaskContext& tc) {
        Block<T> block = ds_->partition(p, tc);
        sink(p, std::move(block));
      });
      TaskRecord& task = tasks[p];
      task.partition = static_cast<std::uint32_t>(p);
      task.node = static_cast<std::uint32_t>(cfg.nodeOfPartition(p));
      task.work = taskResult.counters;
      task.wallTimeSec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - tt0)
                             .count();
      ctx_->noteTaskFinished(stageId, static_cast<std::uint32_t>(p));
      if (rec.enabled()) {
        rec.recordComplete(
            "task:" + label + " p" + std::to_string(p), "task", traceTs,
            rec.nowMicros() - traceTs,
            {{"records", std::to_string(task.work.recordsProcessed)}});
      }
    });

    StageMetrics m;
    m.stageId = stageId;
    m.kind = StageKind::kResult;
    m.label = label;
    StageCost cost;
    cost.nodeComputeSec.assign(cfg.numNodes, 0.0);
    for (std::size_t p = 0; p < nParts; ++p) {
      m.work += tasks[p].work;
      const double sec = ctx_->metrics().computeSecondsOf(tasks[p].work);
      tasks[p].simTimeSec = sec;
      cost.maxTaskSec = std::max(cost.maxTaskSec, sec);
      cost.nodeComputeSec[cfg.nodeOfPartition(p)] += sec;
    }
    for (auto& sec : cost.nodeComputeSec) sec /= cfg.coresPerNode;
    if (cfg.mode == ExecutionMode::kHadoop) cost.jobsStarted = 1;
    m.wallTimeSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (stageSpan.active()) {
      stageSpan.arg("tasks", std::uint64_t{nParts});
      stageSpan.arg("records", m.work.recordsProcessed);
    }
    m.tasks = std::move(tasks);
    ctx_->metrics().record(std::move(m), cost);
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
  const std::uint64_t bytes = serdeSize(value);
  const ClusterConfig& cfg = ctx.config();
  StageMetrics m;
  m.kind = StageKind::kBroadcast;
  m.label = label;
  m.broadcastBytes = bytes * (cfg.numNodes > 0 ? cfg.numNodes - 1 : 0);
  StageCost cost;
  // Each of the numNodes - 1 receivers pulls one copy over its own link;
  // the source node (node 0, where the driver-side value lives) pays no
  // inbound cost — matching broadcastBytes above.
  cost.nodeShuffleBytesInRemote.assign(cfg.numNodes, bytes);
  if (!cost.nodeShuffleBytesInRemote.empty()) {
    cost.nodeShuffleBytesInRemote[0] = 0;
  }
  ctx.metrics().record(std::move(m), cost);
  return Broadcast<T>(std::make_shared<const T>(std::move(value)));
}

}  // namespace cstf::sparkle
