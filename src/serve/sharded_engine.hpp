// Sharded serving fabric: the factor model split row-wise across shards,
// each shard replicated onto simulated nodes, with scatter/gather top-k
// that stays bit-identical to the single-process Engine.
//
// Layout: row i of every mode belongs to shard i mod S (local position
// i div S), and copy c of shard s lives on node (s + c) mod S — one node
// per shard, chained declustering, so no two shards share a full replica
// set and one node death costs at most one copy of any shard. Every shard
// has the same number of copies, min(numReplicas, numShards).
//
// Each shard holds one ShardScan per mode (serve/shard_scan.hpp), so a
// top-k query scatters one sub-query per shard — the same pruned scan the
// single Engine runs, against a floor shared across shards — and gathers
// with the same merge. Scores are dot products over the same row data in
// the same accumulation order, so the gathered entries are bit-identical
// to Engine::topK on the unsharded model.
//
// Failure model: killNode() (or a sparkle::FaultPlan applied at batch
// boundaries via noteBatchBoundary) marks a node dead. Sub-queries poll
// the serving node's liveness as they scan; a mid-scan death aborts the
// sub-query, which retries on the next alive replica in the chain — the
// data is immutable, so a retried scan returns exactly what the aborted
// one would have. When one pass over the chain finds no replica that
// finishes, the query sheds with a typed ShedError; it is counted, never
// lost, never wrong.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/metrics_registry.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "serve/engine.hpp"
#include "serve/model.hpp"
#include "serve/shard_scan.hpp"
#include "sparkle/cluster.hpp"

namespace cstf::serve {

struct ShardedEngineOptions {
  /// Row-wise shards (row i of every mode lives on shard i mod numShards).
  std::size_t numShards = 1;
  /// Copies per shard; 1 = unreplicated. Capped at the node count, which
  /// is the shard count (one node per shard).
  std::size_t numReplicas = 1;
  /// Deterministic node loss applied at batch boundaries: stage =
  /// dispatched batch index (the serving-tier reuse of the shuffle
  /// engine's FaultPlan). Only scheduled events fire here; rate-driven
  /// loss stays a shuffle-engine behaviour.
  sparkle::FaultPlan faults;
  /// Scatter pool width; 0 sizes to the hardware.
  std::size_t threads = 0;
  /// Instrument sink; nullptr disables live metrics.
  metrics::Registry* liveMetrics = &metrics::globalRegistry();
};

/// Point-in-time snapshot for reports and tests.
struct ShardedStats {
  std::size_t shards = 0;
  std::size_t nodes = 0;
  std::size_t totalReplicas = 0;
  std::size_t deadNodes = 0;
  /// Per-shard sub-queries that completed (including after failover).
  std::uint64_t shardQueries = 0;
  /// Sub-query attempts served off the first-choice replica.
  std::uint64_t failovers = 0;
  /// Sub-queries shed because every replica of their shard was down.
  std::uint64_t shedUnavailable = 0;
  std::uint64_t nodesKilled = 0;
};

class ShardedEngine : public TopKProvider {
 public:
  explicit ShardedEngine(CpModel model, ShardedEngineOptions opts = {});

  ModeId order() const override { return static_cast<ModeId>(dims_.size()); }
  std::size_t rank() const { return rank_; }
  const std::vector<Index>& dims() const override { return dims_; }

  std::size_t numShards() const { return numShards_; }
  /// One serving node per shard.
  std::size_t numNodes() const { return numShards_; }
  /// Chained declustering placement: copy c of shard s -> node (s+c) mod S.
  int nodeOfCopy(std::size_t shard, std::size_t copy) const {
    return static_cast<int>((shard + copy) % numNodes());
  }
  bool nodeAlive(int node) const;

  /// Fault injection: the fabric is logically const to queries, so kills
  /// are too (noteBatchBoundary fires them from the dispatch path).
  void killNode(int node) const;
  void reviveNode(int node) const;

  double predict(const std::vector<Index>& indices) const override;

  /// Scatter/gather top-k; bit-identical entries to Engine::topK on the
  /// same model. Throws ShedError when a required shard has no replica
  /// alive. Stats aggregate real work across shards and retries.
  TopKResult topK(ModeId mode, const std::vector<Index>& fixed,
                  std::size_t k, const TopKOptions& opts = {}) const override;

  /// Applies the fault plan's scheduled kills for stage = batch index.
  void noteBatchBoundary(std::uint64_t batchesDispatched) const override;

  ShardedStats stats() const;

 private:
  const double* fetchRow(ModeId mode, Index i) const;
  ScanResult shardTopK(std::size_t s, ModeId mode, const QueryVector& q,
                       std::size_t kk, bool prune,
                       std::atomic<double>& sharedFloor) const;

  std::size_t rank_ = 0;
  std::vector<Index> dims_;
  std::size_t numShards_ = 1;
  /// Copies of every shard.
  std::size_t replicas_ = 1;
  sparkle::FaultPlan faults_;
  /// shards_[s][m]: shard s's rows of mode m.
  std::vector<std::vector<ShardScan>> shards_;
  /// Liveness per node; mutable because fault injection happens on the
  /// (const) query path.
  std::unique_ptr<std::atomic<bool>[]> nodeDead_;
  mutable std::atomic<std::uint64_t> shedUnavailable_{0};
  mutable std::atomic<std::uint64_t> nodesKilled_{0};
  mutable ThreadPool pool_;

  // Counted once each; the `serve_*` series are fed when liveMetrics is set.
  /// Completed sub-queries per shard; stats() reports their sum.
  mutable std::deque<metrics::OwnedCounter> shardQueries_;
  mutable metrics::OwnedCounter failovers_;
  mutable metrics::OwnedCounter shardLost_;
  mutable metrics::OwnedGauge nodesDeadGauge_;
  metrics::OwnedGauge shardsGauge_;
  metrics::OwnedGauge replicasGauge_;
};

}  // namespace cstf::serve
