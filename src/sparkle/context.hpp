// Engine context: owns the executor pool, cluster model and metrics —
// the moral equivalent of a SparkContext.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/metrics_registry.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "sparkle/cluster.hpp"
#include "sparkle/metrics.hpp"
#include "sparkle/partitioner.hpp"

namespace cstf::sparkle {

class DatasetBase;

class Context {
 public:
  /// `defaultParallelism` is the partition count used when an RDD factory
  /// or wide operation is not given one explicitly; 0 picks
  /// max(16, 2 * numNodes) so a 32-node sweep always has work per node.
  explicit Context(ClusterConfig config = {}, std::size_t threads = 0,
                   std::size_t defaultParallelism = 0)
      : config_(config),
        metrics_(&config_),
        pool_(threads),
        defaultParallelism_(defaultParallelism != 0
                                ? defaultParallelism
                                : std::max<std::size_t>(
                                      16, 2 * static_cast<std::size_t>(
                                              config.numNodes))) {
    config_.validate();
    applyChaosFromEnv(config_);
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  const ClusterConfig& config() const { return config_; }
  StageLog& metrics() { return metrics_; }
  const StageLog& metrics() const { return metrics_; }
  cstf::ThreadPool& pool() { return pool_; }
  /// Recycles shuffle map-output buckets (and scratch) across stages, so
  /// steady-state iterations allocate almost nothing on the shuffle path.
  cstf::BufferPool& bufferPool() { return bufferPool_; }
  std::size_t defaultParallelism() const { return defaultParallelism_; }

  /// Span/instant-event sink for this context's execution. Defaults to the
  /// process-global recorder (disabled unless a trace artifact was
  /// requested); tests may point it at a private recorder for isolation.
  TraceRecorder& trace() const { return *trace_; }
  void setTrace(TraceRecorder* recorder) {
    trace_ = recorder != nullptr ? recorder : &globalTrace();
  }

  std::uint64_t nextDatasetId() {
    return nextDatasetId_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A fresh hash partitioner with the given (or default) partition count.
  std::shared_ptr<Partitioner> hashPartitioner(std::size_t numPartitions = 0) {
    return std::make_shared<HashPartitioner>(
        numPartitions != 0 ? numPartitions : defaultParallelism_);
  }

  bool cachingEnabled() const {
    // MapReduce jobs cannot keep datasets resident between jobs; in Hadoop
    // mode cache() is a no-op and lineage recomputes from the source.
    return config_.mode == ExecutionMode::kSpark;
  }

  /// Every live DatasetBase registers here (and unregisters on
  /// destruction) so a simulated node death can reach all cached blocks —
  /// the block-manager directory a Spark driver keeps per executor.
  void registerDataset(DatasetBase* d) {
    std::lock_guard<std::mutex> lock(datasetsMutex_);
    datasets_.insert(d);
  }
  void unregisterDataset(DatasetBase* d) {
    std::lock_guard<std::mutex> lock(datasetsMutex_);
    datasets_.erase(d);
  }

  /// Drop every cached partition block placed on `node` across all live
  /// datasets; returns the number of blocks evicted. Defined in
  /// dataset.hpp (needs the complete DatasetBase type).
  std::size_t evictCachedBlocksOnNode(int node);

  /// Cache-time partition artifacts: auxiliary per-partition structures a
  /// task derives from a cached dataset's block (e.g. a compressed-fiber
  /// tensor layout) and reuses across stages/iterations — the executor-side
  /// sibling of a cached block. Keyed by (dataset id, partition). Stores are
  /// first-write-wins: task retries recompute the artifact from scratch, and
  /// the copy already resident stays authoritative, keeping task bodies
  /// idempotent under fault injection. The returned pointer is always the
  /// resident artifact. Lifetime follows the dataset: DatasetBase's
  /// destructor drops its artifacts alongside its registry entry.
  std::shared_ptr<const void> putPartitionArtifact(
      std::uint64_t datasetId, std::size_t partition,
      std::shared_ptr<const void> value) {
    std::lock_guard<std::mutex> lock(artifactsMutex_);
    auto [it, inserted] =
        artifacts_.try_emplace({datasetId, partition}, std::move(value));
    return it->second;
  }
  std::shared_ptr<const void> getPartitionArtifact(
      std::uint64_t datasetId, std::size_t partition) const {
    std::lock_guard<std::mutex> lock(artifactsMutex_);
    auto it = artifacts_.find({datasetId, partition});
    return it != artifacts_.end() ? it->second : nullptr;
  }
  std::size_t dropPartitionArtifacts(std::uint64_t datasetId) {
    std::lock_guard<std::mutex> lock(artifactsMutex_);
    auto lo = artifacts_.lower_bound({datasetId, 0});
    auto hi = artifacts_.lower_bound({datasetId + 1, 0});
    const auto n = static_cast<std::size_t>(std::distance(lo, hi));
    artifacts_.erase(lo, hi);
    return n;
  }

  /// Per-task live hooks (runTask calls both): count the task
  /// and keep the in-flight gauge, tasks running across every context in
  /// the process, exact.
  void noteTaskStarted() {
    liveTasksStarted_.add();
    liveTasksInflight_.add(1.0);
  }
  void noteTaskFinished() {
    liveTasksInflight_.add(-1.0);
    liveTasksFinished_.add();
  }

 private:
  ClusterConfig config_;
  StageLog metrics_;
  cstf::ThreadPool pool_;
  cstf::BufferPool bufferPool_;
  std::size_t defaultParallelism_;
  TraceRecorder* trace_ = &globalTrace();
  // Live task series in metrics::globalRegistry().
  metrics::Counter& liveTasksStarted_ =
      metrics::globalRegistry().counter("sparkle_tasks_started_total");
  metrics::Counter& liveTasksFinished_ =
      metrics::globalRegistry().counter("sparkle_tasks_finished_total");
  metrics::Gauge& liveTasksInflight_ =
      metrics::globalRegistry().gauge("sparkle_tasks_inflight");
  std::atomic<std::uint64_t> nextDatasetId_{1};
  mutable std::mutex datasetsMutex_;
  std::unordered_set<DatasetBase*> datasets_;
  mutable std::mutex artifactsMutex_;
  std::map<std::pair<std::uint64_t, std::size_t>, std::shared_ptr<const void>>
      artifacts_;
};

}  // namespace cstf::sparkle
