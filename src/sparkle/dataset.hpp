// Dataset DAG nodes: the lazy, lineage-tracked backbone of the engine.
//
// Mirrors Spark's RDD execution model:
//  * narrow transformations (map/mapValues/mapPartitionsWithCounters)
//    pipeline — a task computing partition p of a mapped dataset
//    recursively computes partition p of its parent inside the same task;
//  * `cache()` memoizes computed partitions, truncating lineage exactly the
//    way Spark's persist() does — without it, every downstream stage
//    recomputes the chain from the source (and re-meters the source read);
//  * wide dependencies live in shuffle.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/error.hpp"
#include "common/serde.hpp"
#include "sparkle/context.hpp"
#include "sparkle/partitioner.hpp"

namespace cstf::sparkle {

struct TaskContext {
  TaskCounters counters;
  std::size_t partitionId = 0;
};

/// Deterministic task-failure injection: failure of (stage, partition,
/// attempt) is a pure function of those coordinates, so fault-injected
/// runs stay reproducible.
inline bool injectTaskFailure(const ClusterConfig& cfg,
                              std::uint64_t stageId, std::size_t partition,
                              int attempt) {
  if (cfg.taskFailureRate <= 0.0) return false;
  const std::uint64_t h =
      mix64(mix64(stageId * 0x9e3779b1u) ^
            mix64(partition * 0x85ebca77u + static_cast<unsigned>(attempt)));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < cfg.taskFailureRate;
}

/// Deterministic node-loss injection at a stage's fetch boundary: which
/// node (if any) dies after stage `stageId`'s map side on its `attempt`-th
/// run is a pure function of the FaultPlan. Scheduled events always fire
/// (on attempt 0 of their stage); the rate-driven draw is consulted only
/// when `allowRate` is set, which lets the caller exempt the final stage
/// attempt so sub-1 rates cannot doom a job. Returns the dead node's id,
/// or -1 for no loss.
inline int injectNodeLoss(const ClusterConfig& cfg, std::uint64_t stageId,
                          int attempt, bool allowRate) {
  const FaultPlan& fp = cfg.faults;
  if (attempt == 0) {
    const int scheduled = fp.scheduledLossFor(stageId, cfg.numNodes);
    if (scheduled >= 0) return scheduled;
  }
  if (!allowRate) return -1;
  return fp.rateDrivenLoss(stageId, attempt, cfg.numNodes);
}

/// Runs partition `partition`'s task of stage `stageId` with Spark-style
/// fault tolerance and returns its TaskRecord. A failed attempt (the
/// injected "executor lost after the work" case) is discarded — including
/// its counters — and the body reruns, recomputing any uncached lineage.
/// Bodies must therefore be idempotent in their side effects (every engine
/// task writes to a per-partition slot, so last-write-wins).
///
/// For injection rates below 1 the final attempt is exempt from injection,
/// so a fault-injected run always completes (deterministic injection would
/// otherwise doom some task to kMaxTaskAttempts correlated failures). A
/// rate >= 1 models a hard fault: the job aborts with TaskFailedError
/// after kMaxTaskAttempts attempts, as Spark does. `opLabel` names the
/// operation (e.g. the shuffle label) so the abort message identifies
/// which op on which node died, not just numeric coordinates.
///
/// The record holds the task's placement, the counters of the attempt
/// that succeeded, the host wall seconds of all attempts and, for a map
/// task, what `body` returns: the shuffle bytes it wrote (a result task's
/// body returns nothing). The task is traced as `task:<opLabel> p<N>`.
template <typename Body>
TaskRecord runTask(Context* ctx, std::uint64_t stageId, std::size_t partition,
                   const std::string& opLabel, Body&& body) {
  constexpr bool kMapTask =
      !std::is_void_v<std::invoke_result_t<Body&, TaskContext&>>;
  TraceRecorder& rec = ctx->trace();
  const double traceTs = rec.enabled() ? rec.nowMicros() : 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  const ClusterConfig& cfg = ctx->config();
  TaskRecord task;
  task.partition = static_cast<std::uint32_t>(partition);
  task.node = static_cast<std::uint32_t>(cfg.nodeOfPartition(partition));
  {
    // The live task series see every task end, also one that throws.
    ctx->noteTaskStarted();
    struct Finish {
      Context* ctx;
      ~Finish() { ctx->noteTaskFinished(); }
    } finish{ctx};
    for (int attempt = 0;; ++attempt) {
      TaskContext tc;
      tc.partitionId = partition;
      if constexpr (kMapTask) {
        task.shuffleBytesOut = body(tc);
      } else {
        body(tc);
      }
      const bool lastAttempt = attempt + 1 >= kMaxTaskAttempts;
      const bool mayFail = !lastAttempt || cfg.taskFailureRate >= 1.0;
      if (!mayFail || !injectTaskFailure(cfg, stageId, partition, attempt)) {
        task.work = tc.counters;
        break;
      }
      ctx->metrics().noteTaskRetry(stageId);
      if (lastAttempt) {
        throw TaskFailedError(
            "task '" + opLabel + "' permanently failed after " +
            std::to_string(kMaxTaskAttempts) + " attempts (stage " +
            std::to_string(stageId) + ", partition " +
            std::to_string(partition) + ", node " +
            std::to_string(cfg.nodeOfPartition(partition)) + ")");
      }
    }
  }
  task.wallTimeSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (rec.enabled()) {
    std::vector<std::pair<std::string, std::string>> args{
        {"records", std::to_string(task.work.recordsProcessed)}};
    if constexpr (kMapTask) {
      args.emplace_back("shuffleBytesOut",
                        std::to_string(task.shuffleBytesOut));
    }
    rec.recordComplete("task:" + opLabel + " p" + std::to_string(partition),
                       "task", traceTs, rec.nowMicros() - traceTs,
                       std::move(args));
  }
  return task;
}

/// Immutable computed partition contents, shareable between consumers.
template <typename T>
using Block = std::shared_ptr<const std::vector<T>>;

template <typename T>
Block<T> makeBlock(std::vector<T>&& v) {
  return std::make_shared<const std::vector<T>>(std::move(v));
}

class DatasetBase {
 public:
  DatasetBase(Context* ctx, std::size_t numPartitions)
      : ctx_(ctx), numPartitions_(numPartitions), id_(ctx->nextDatasetId()) {
    CSTF_ASSERT(numPartitions > 0, "dataset needs >= 1 partition");
    ctx_->registerDataset(this);
  }
  virtual ~DatasetBase() {
    ctx_->dropPartitionArtifacts(id_);
    ctx_->unregisterDataset(this);
  }

  DatasetBase(const DatasetBase&) = delete;
  DatasetBase& operator=(const DatasetBase&) = delete;

  std::size_t numPartitions() const { return numPartitions_; }
  std::uint64_t id() const { return id_; }
  Context* context() const { return ctx_; }

  /// Materialize every shuffle dependency beneath this node (post-order),
  /// so that subsequent partition() calls only run narrow chains.
  virtual void ensureReady() = 0;

  /// Partitioner this dataset's output is known to respect, or null.
  const std::shared_ptr<Partitioner>& outputPartitioning() const {
    return partitioning_;
  }

  /// Node-death hook: drop every cached partition block this dataset holds
  /// on `node` (round-robin placement) so lineage recomputes it on next
  /// access. Returns the number of blocks evicted. Datasets without a
  /// cache have nothing to lose.
  virtual std::size_t dropCachedPartitionsOnNode(int node) {
    (void)node;
    return 0;
  }

 protected:
  void setOutputPartitioning(std::shared_ptr<Partitioner> p) {
    partitioning_ = std::move(p);
  }

  Context* ctx_;
  std::size_t numPartitions_;
  std::uint64_t id_;
  std::shared_ptr<Partitioner> partitioning_;
};

/// How cached partitions are held (paper §4.1 / Spark storage levels):
/// kRaw keeps live objects — fast to read back, memory-hungry;
/// kSerialized keeps encoded bytes — compact, but every read pays a
/// metered deserialization cost.
enum class StorageLevel { kNone, kRaw, kSerialized };

template <typename T>
class Dataset : public DatasetBase {
  // Sources, caches and shuffles all meter (and the serialized cache
  // encodes) records through the one record codec.
  static_assert(FixedWidthSerde<T>::value,
                "dataset records need a FixedWidthSerde codec");

 public:
  using element_type = T;
  using DatasetBase::DatasetBase;

  /// Compute (or fetch from cache) the contents of partition `p`.
  Block<T> partition(std::size_t p, TaskContext& tc) {
    CSTF_ASSERT(p < numPartitions_, "partition index out of range");
    switch (level_.load(std::memory_order_acquire)) {
      case StorageLevel::kNone:
        return computePartition(p, tc);
      case StorageLevel::kRaw: {
        {
          std::lock_guard<std::mutex> lock(cacheMutex_);
          if (p < rawCache_.size() && rawCache_[p]) return rawCache_[p];
        }
        Block<T> block = computePartition(p, tc);
        std::lock_guard<std::mutex> lock(cacheMutex_);
        if (rawCache_.size() != numPartitions_) {
          rawCache_.resize(numPartitions_);
        }
        if (!rawCache_[p]) rawCache_[p] = block;
        return rawCache_[p];
      }
      case StorageLevel::kSerialized: {
        std::shared_ptr<const std::vector<std::uint8_t>> bytes;
        {
          std::lock_guard<std::mutex> lock(cacheMutex_);
          if (p < serCache_.size() && serCache_[p]) bytes = serCache_[p];
        }
        if (bytes) {
          // Every hit decodes the whole partition (Spark MEMORY_ONLY_SER).
          std::vector<T> recs;
          fixedWidthDecodeStream(bytes->data(), bytes->size(), recs);
          tc.counters.cacheBytesDeserialized += bytes->size();
          return makeBlock(std::move(recs));
        }
        Block<T> block = computePartition(p, tc);
        auto buf = std::make_shared<std::vector<std::uint8_t>>();
        fixedWidthEncodeAppend(*buf, *block);
        std::lock_guard<std::mutex> lock(cacheMutex_);
        if (serCache_.size() != numPartitions_) {
          serCache_.resize(numPartitions_);
        }
        if (!serCache_[p]) serCache_[p] = std::move(buf);
        return block;
      }
    }
    return computePartition(p, tc);
  }

  /// The contents of partition `p` as records the caller owns and may edit
  /// in place. An uncached dataset hands over computeOwnedPartition's
  /// vector; a cached one is copied, because its block is shared with
  /// every later reader.
  std::vector<T> ownedPartition(std::size_t p, TaskContext& tc) {
    CSTF_ASSERT(p < numPartitions_, "partition index out of range");
    if (level_.load(std::memory_order_acquire) == StorageLevel::kNone) {
      return computeOwnedPartition(p, tc);
    }
    return *partition(p, tc);
  }

  /// Memoize partitions from now on (no-op under Hadoop mode, decided by
  /// the caller via Context::cachingEnabled()).
  void enableCache(StorageLevel level = StorageLevel::kRaw) {
    CSTF_CHECK(level != StorageLevel::kNone,
               "use unpersist() to disable caching");
    level_.store(level, std::memory_order_release);
  }

  std::size_t dropCachedPartitionsOnNode(int node) override {
    if (level_.load(std::memory_order_acquire) == StorageLevel::kNone) {
      return 0;
    }
    const ClusterConfig& cfg = this->ctx_->config();
    std::lock_guard<std::mutex> lock(cacheMutex_);
    std::size_t evicted = 0;
    for (std::size_t p = 0; p < numPartitions_; ++p) {
      if (cfg.nodeOfPartition(p) != node) continue;
      if (p < rawCache_.size() && rawCache_[p]) {
        rawCache_[p].reset();
        ++evicted;
      }
      if (p < serCache_.size() && serCache_[p]) {
        serCache_[p].reset();
        ++evicted;
      }
    }
    return evicted;
  }

  /// Drop memoized partitions and stop caching (Spark unpersist()).
  void unpersist() {
    std::lock_guard<std::mutex> lock(cacheMutex_);
    level_.store(StorageLevel::kNone, std::memory_order_release);
    rawCache_.clear();
    rawCache_.shrink_to_fit();
    serCache_.clear();
    serCache_.shrink_to_fit();
  }

  bool isCached() const {
    return level_.load(std::memory_order_acquire) != StorageLevel::kNone;
  }
  StorageLevel storageLevel() const {
    return level_.load(std::memory_order_acquire);
  }

  /// Estimated executor memory held by this dataset's cache. Serialized
  /// caches report their exact byte footprint; raw caches report the
  /// serialized size scaled by the configured live-object expansion — the
  /// space/CPU trade-off of paper §4.1.
  std::uint64_t cachedMemoryBytes() const {
    std::lock_guard<std::mutex> lock(cacheMutex_);
    std::uint64_t total = 0;
    for (const auto& b : serCache_) {
      if (b) total += b->size();
    }
    double raw = 0.0;
    for (const auto& b : rawCache_) {
      if (!b) continue;
      std::size_t sz = 0;
      for (const T& rec : *b) sz += FixedWidthSerde<T>::width(rec);
      raw += static_cast<double>(sz);
    }
    total += static_cast<std::uint64_t>(
        raw * this->ctx_->config().rawCacheExpansionFactor);
    return total;
  }

 protected:
  virtual Block<T> computePartition(std::size_t p, TaskContext& tc) = 0;

  /// A copy of computePartition's block. A dataset whose every read builds
  /// a new vector that nothing else holds (the shuffle's decode) returns
  /// that vector instead.
  virtual std::vector<T> computeOwnedPartition(std::size_t p,
                                               TaskContext& tc) {
    return *computePartition(p, tc);
  }

 private:
  std::atomic<StorageLevel> level_{StorageLevel::kNone};
  mutable std::mutex cacheMutex_;
  std::vector<Block<T>> rawCache_;
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> serCache_;
};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Dataset backed by driver-provided data, pre-split into blocks. Each read
/// of a partition meters a "source read" of its serialized size — the HDFS
/// scan Spark would perform when lineage reaches the source. Cached reads
/// (Spark mode) pay it once; Hadoop mode pays it per job.
template <typename T>
class ParallelizeDataset final : public Dataset<T> {
 public:
  ParallelizeDataset(Context* ctx, std::vector<T> data,
                     std::size_t numPartitions)
      : Dataset<T>(ctx, numPartitions) {
    blocks_.reserve(numPartitions);
    bytes_.reserve(numPartitions);
    const std::size_t n = data.size();
    std::size_t begin = 0;
    for (std::size_t p = 0; p < numPartitions; ++p) {
      const std::size_t end = n * (p + 1) / numPartitions;
      std::vector<T> part(std::make_move_iterator(data.begin() + begin),
                          std::make_move_iterator(data.begin() + end));
      std::size_t sz = 0;
      for (const T& rec : part) sz += FixedWidthSerde<T>::width(rec);
      bytes_.push_back(sz);
      blocks_.push_back(makeBlock(std::move(part)));
      begin = end;
    }
  }

  void ensureReady() override {}

 protected:
  Block<T> computePartition(std::size_t p, TaskContext& tc) override {
    tc.counters.sourceBytesRead += bytes_[p];
    tc.counters.recordsProcessed += blocks_[p]->size();
    return blocks_[p];
  }

 private:
  std::vector<Block<T>> blocks_;
  std::vector<std::size_t> bytes_;
};

/// Dataset whose records are produced on demand by f(globalIndex). Keeps no
/// copy of the data — lineage recomputation really regenerates it.
template <typename T, typename F>
class GeneratorDataset final : public Dataset<T> {
 public:
  GeneratorDataset(Context* ctx, std::size_t count, F f,
                   std::size_t numPartitions)
      : Dataset<T>(ctx, numPartitions),
        count_(count),
        f_(std::move(f)),
        bytes_(numPartitions, 0),
        bytesKnown_(numPartitions, false) {}

  void ensureReady() override {}

 protected:
  Block<T> computePartition(std::size_t p, TaskContext& tc) override {
    const std::size_t begin = count_ * p / this->numPartitions();
    const std::size_t end = count_ * (p + 1) / this->numPartitions();
    std::vector<T> out;
    out.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) out.push_back(f_(i));
    std::size_t sz;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!bytesKnown_[p]) {
        std::size_t s = 0;
        for (const T& rec : out) s += FixedWidthSerde<T>::width(rec);
        bytes_[p] = s;
        bytesKnown_[p] = true;
      }
      sz = bytes_[p];
    }
    tc.counters.sourceBytesRead += sz;
    tc.counters.recordsProcessed += out.size();
    return makeBlock(std::move(out));
  }

 private:
  std::size_t count_;
  F f_;
  std::mutex mutex_;
  std::vector<std::size_t> bytes_;
  std::vector<bool> bytesKnown_;
};

/// Dataset over already-computed blocks with no upstream lineage. Produced
/// by Rdd::snapshot(); reads meter nothing (the data is resident, exactly
/// like a cached-partition hit).
template <typename T>
class BlocksDataset final : public Dataset<T> {
 public:
  BlocksDataset(Context* ctx, std::vector<Block<T>> blocks,
                std::shared_ptr<Partitioner> partitioning)
      : Dataset<T>(ctx, blocks.size()), blocks_(std::move(blocks)) {
    this->setOutputPartitioning(std::move(partitioning));
  }

  void ensureReady() override {}

 protected:
  Block<T> computePartition(std::size_t p, TaskContext&) override {
    return blocks_[p];
  }

 private:
  std::vector<Block<T>> blocks_;
};

// ---------------------------------------------------------------------------
// Narrow transformations
// ---------------------------------------------------------------------------

/// map / mapValues (the latter preserves partitioning, decided by caller).
template <typename In, typename Out, typename F>
class MapDataset final : public Dataset<Out> {
 public:
  MapDataset(Context* ctx, std::shared_ptr<Dataset<In>> parent, F f,
             double flopsPerRecord, bool preservesPartitioning)
      : Dataset<Out>(ctx, parent->numPartitions()),
        parent_(std::move(parent)),
        f_(std::move(f)),
        flopsPerRecord_(flopsPerRecord) {
    if (preservesPartitioning) {
      this->setOutputPartitioning(parent_->outputPartitioning());
    }
  }

  void ensureReady() override { parent_->ensureReady(); }

 protected:
  Block<Out> computePartition(std::size_t p, TaskContext& tc) override {
    Block<In> in = parent_->partition(p, tc);
    std::vector<Out> out;
    out.reserve(in->size());
    for (const In& x : *in) out.push_back(f_(x));
    tc.counters.recordsProcessed += in->size();
    tc.counters.flops +=
        static_cast<std::uint64_t>(flopsPerRecord_ * in->size());
    return makeBlock(std::move(out));
  }

 private:
  std::shared_ptr<Dataset<In>> parent_;
  F f_;
  double flopsPerRecord_;
};

/// mapPartitionsWithCounters: f(partitionIndex, const std::vector<In>&,
/// TaskCounters&) -> std::vector<Out>. The body sees its partition index
/// and charges work (flops, emitted records) directly to the task's
/// counters — for partition-local kernels whose cost is not a simple
/// function of input size. recordsProcessed is still metered here.
template <typename In, typename Out, typename F>
class MapPartitionsWithCountersDataset final : public Dataset<Out> {
 public:
  MapPartitionsWithCountersDataset(Context* ctx,
                                   std::shared_ptr<Dataset<In>> parent, F f,
                                   bool preservesPartitioning)
      : Dataset<Out>(ctx, parent->numPartitions()),
        parent_(std::move(parent)),
        f_(std::move(f)) {
    if (preservesPartitioning) {
      this->setOutputPartitioning(parent_->outputPartitioning());
    }
  }

  void ensureReady() override { parent_->ensureReady(); }

 protected:
  Block<Out> computePartition(std::size_t p, TaskContext& tc) override {
    Block<In> in = parent_->partition(p, tc);
    std::vector<Out> out = f_(p, *in, tc.counters);
    tc.counters.recordsProcessed += in->size();
    return makeBlock(std::move(out));
  }

 private:
  std::shared_ptr<Dataset<In>> parent_;
  F f_;
};

// Defined here rather than in context.hpp: walking the registry needs the
// complete DatasetBase type. Called at stage boundaries only — map tasks
// are never in flight while a node death is being applied.
inline std::size_t Context::evictCachedBlocksOnNode(int node) {
  std::lock_guard<std::mutex> lock(datasetsMutex_);
  std::size_t evicted = 0;
  for (DatasetBase* d : datasets_) evicted += d->dropCachedPartitionsOnNode(node);
  return evicted;
}

}  // namespace cstf::sparkle
