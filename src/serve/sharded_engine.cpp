#include "serve/sharded_engine.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace cstf::serve {

ShardedEngine::ShardedEngine(CpModel model, ShardedEngineOptions opts)
    : rank_(model.rank),
      dims_(model.dims),
      faults_(std::move(opts.faults)),
      pool_(opts.threads),
      failovers_(opts.liveMetrics, "serve_failover_total"),
      shardLost_(opts.liveMetrics, "serve_shard_lost_total"),
      nodesDeadGauge_(opts.liveMetrics, "serve_nodes_dead"),
      shardsGauge_(opts.liveMetrics, "serve_shards"),
      replicasGauge_(opts.liveMetrics, "serve_replicas_total") {
  numShards_ = opts.numShards;
  // Shard s owns global rows {s, s+S, s+2S, ...} of every mode, built by
  // the same code as Engine's rows, so shard scores are bit-identical.
  shards_ = buildShardScans(std::move(model), numShards_);
  replicas_ =
      std::min(std::max<std::size_t>(1, opts.numReplicas), numNodes());

  nodeDead_ = std::make_unique<std::atomic<bool>[]>(numNodes());
  for (std::size_t n = 0; n < numNodes(); ++n) {
    nodeDead_[n].store(false, std::memory_order_relaxed);
  }

  for (std::size_t s = 0; s < numShards_; ++s) {
    shardQueries_.emplace_back(opts.liveMetrics, "serve_shard_queries_total",
                               metrics::Labels{{"shard", std::to_string(s)}});
  }
  shardsGauge_.set(static_cast<double>(numShards_));
  replicasGauge_.set(static_cast<double>(numShards_ * replicas_));
  nodesDeadGauge_.set(0.0);
}

bool ShardedEngine::nodeAlive(int node) const {
  CSTF_CHECK(node >= 0 && static_cast<std::size_t>(node) < numNodes(),
             "node id out of range");
  return !nodeDead_[node].load(std::memory_order_relaxed);
}

void ShardedEngine::killNode(int node) const {
  CSTF_CHECK(node >= 0 && static_cast<std::size_t>(node) < numNodes(),
             "node id out of range");
  if (nodeDead_[node].exchange(true, std::memory_order_relaxed)) return;
  nodesKilled_.fetch_add(1, std::memory_order_relaxed);
  // Chained declustering puts copy c of shard (node - c) mod S on the node,
  // one copy for each c < replicas_.
  shardLost_.add(replicas_);
  std::size_t deadNodes = 0;
  for (std::size_t n = 0; n < numNodes(); ++n) {
    if (nodeDead_[n].load(std::memory_order_relaxed)) ++deadNodes;
  }
  nodesDeadGauge_.set(static_cast<double>(deadNodes));
}

void ShardedEngine::reviveNode(int node) const {
  CSTF_CHECK(node >= 0 && static_cast<std::size_t>(node) < numNodes(),
             "node id out of range");
  nodeDead_[node].store(false, std::memory_order_relaxed);
  std::size_t deadNodes = 0;
  for (std::size_t n = 0; n < numNodes(); ++n) {
    if (nodeDead_[n].load(std::memory_order_relaxed)) ++deadNodes;
  }
  nodesDeadGauge_.set(static_cast<double>(deadNodes));
}

void ShardedEngine::noteBatchBoundary(std::uint64_t batchesDispatched) const {
  if (faults_.schedule.empty()) return;
  const int victim = faults_.scheduledLossFor(batchesDispatched,
                                              static_cast<int>(numNodes()));
  if (victim >= 0) killNode(victim);
}

const double* ShardedEngine::fetchRow(ModeId mode, Index i) const {
  const std::size_t s = i % numShards_;
  // Copies share the row data; what a dead node takes down is its copies'
  // availability, so a fetch just needs one alive replica.
  for (std::size_t c = 0; c < replicas_; ++c) {
    if (!nodeDead_[nodeOfCopy(s, c)].load(std::memory_order_relaxed)) {
      return shards_[s][mode].row(i / numShards_);
    }
  }
  shedUnavailable_.fetch_add(1, std::memory_order_relaxed);
  throw ShedError(strprintf(
      "shard %zu unavailable: all %zu replicas down (mode %d row %llu)", s,
      replicas_, int(mode) + 1,
      static_cast<unsigned long long>(i)));
}

double ShardedEngine::predict(const std::vector<Index>& indices) const {
  validateQuery(dims_, indices, dims_.size());
  const double* rows[kMaxOrder];
  for (ModeId m = 0; m < order(); ++m) rows[m] = fetchRow(m, indices[m]);
  return cellValue(rows, order(), rank_);
}

ScanResult ShardedEngine::shardTopK(std::size_t s, ModeId mode,
                                    const QueryVector& q, std::size_t kk,
                                    bool prune,
                                    std::atomic<double>& sharedFloor) const {
  const ShardScan& scan = shards_[s][mode];
  if (scan.rows() == 0) return {};
  TopKStats spent;  // aborted attempts' work stays counted — it happened
  bool deviated = false;
  for (std::size_t c = 0; c < replicas_; ++c) {
    const int node = nodeOfCopy(s, c);
    if (nodeDead_[node].load(std::memory_order_relaxed)) {
      deviated = true;
      continue;
    }
    if (deviated) failovers_.add();
    // A mid-scan death of the serving node aborts the scan; the loop moves
    // on to the next replica.
    ScanResult out = scan.scan(0, scan.rows(), q, kk, prune, sharedFloor,
                               &nodeDead_[node]);
    spent += out.stats;
    if (!out.aborted) {
      shardQueries_[s].add();
      out.stats = spent;
      return out;
    }
    deviated = true;
  }
  shedUnavailable_.fetch_add(1, std::memory_order_relaxed);
  throw ShedError(strprintf("shard %zu unavailable: all %zu replicas down",
                            s, replicas_));
}

TopKResult ShardedEngine::topK(ModeId mode, const std::vector<Index>& fixed,
                               std::size_t k, const TopKOptions& opts) const {
  validateTopKQuery(dims_, mode, fixed, k);
  const double* rows[kMaxOrder];
  for (ModeId m = 0; m < order(); ++m) {
    if (m != mode) rows[m] = fetchRow(m, fixed[m]);
  }
  const QueryVector q = queryVector(rows, order(), mode, rank_);

  const std::size_t kk = std::min<std::size_t>(k, dims_[mode]);
  std::atomic<double> sharedFloor{-std::numeric_limits<double>::infinity()};
  std::vector<ScanResult> parts(numShards_);
  // Scatter: one sub-query per shard; the pool rethrows the first ShedError
  // after all shards finish, so a lost shard fails the query loudly rather
  // than returning a silently incomplete merge.
  pool_.parallelFor(numShards_, [&](std::size_t s) {
    parts[s] = shardTopK(s, mode, q, kk, opts.prune, sharedFloor);
  });
  // Gather: each shard's kept set contains every shard member of the
  // global top-k, so the merge reproduces Engine::topK exactly.
  return gatherTopK(parts, kk);
}

ShardedStats ShardedEngine::stats() const {
  ShardedStats st;
  st.shards = numShards_;
  st.nodes = numNodes();
  st.totalReplicas = numShards_ * replicas_;
  for (std::size_t n = 0; n < numNodes(); ++n) {
    if (nodeDead_[n].load(std::memory_order_relaxed)) ++st.deadNodes;
  }
  for (const metrics::OwnedCounter& q : shardQueries_) {
    st.shardQueries += q.value();
  }
  st.failovers = failovers_.value();
  st.shedUnavailable = shedUnavailable_.load(std::memory_order_relaxed);
  st.nodesKilled = nodesKilled_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace cstf::serve
