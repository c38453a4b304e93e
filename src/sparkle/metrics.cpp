#include "sparkle/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"

namespace cstf::sparkle {

const char* stageKindName(StageKind k) {
  switch (k) {
    case StageKind::kShuffle: return "shuffle";
    case StageKind::kResult: return "result";
    case StageKind::kBroadcast: return "broadcast";
  }
  return "?";
}

TaskSkewStats computeTaskSkew(const std::vector<TaskRecord>& tasks) {
  TaskSkewStats s;
  if (tasks.empty()) return s;
  s.tasks = tasks.size();

  std::vector<double> times;
  times.reserve(tasks.size());
  double sum = 0.0;
  double maxSec = -1.0;
  for (const TaskRecord& t : tasks) {
    times.push_back(t.simTimeSec);
    sum += t.simTimeSec;
    if (t.simTimeSec > maxSec) {
      maxSec = t.simTimeSec;
      s.heaviestPartition = t.partition;
    }
  }
  std::sort(times.begin(), times.end());

  // Nearest-rank percentile: the smallest value with at least p% of tasks
  // at or below it.
  auto pct = [&](double p) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * double(times.size()))));
    return times[rank - 1];
  };
  s.meanSec = sum / double(times.size());
  s.p50Sec = pct(50.0);
  s.p95Sec = pct(95.0);
  s.maxSec = times.back();
  if (s.meanSec > 0.0) {
    s.imbalance = s.maxSec / s.meanSec;
  } else {
    // No metered work at all: call it balanced rather than dividing by 0.
    s.imbalance = s.maxSec > 0.0 ? 0.0 : 1.0;
  }
  return s;
}

RecordSkewStats computeRecordSkew(const std::vector<std::uint64_t>& records) {
  RecordSkewStats s;
  if (records.empty()) return s;
  s.partitions = records.size();

  std::vector<std::uint64_t> sorted = records;
  std::uint64_t sum = 0;
  std::uint64_t maxRec = 0;
  for (std::size_t p = 0; p < records.size(); ++p) {
    sum += records[p];
    if (records[p] > maxRec) {
      maxRec = records[p];
      s.heaviestPartition = static_cast<std::uint32_t>(p);
    }
  }
  std::sort(sorted.begin(), sorted.end());

  auto pct = [&](double p) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * double(sorted.size()))));
    return static_cast<double>(sorted[rank - 1]);
  };
  s.meanRecords = static_cast<double>(sum) / double(sorted.size());
  s.p50Records = pct(50.0);
  s.p95Records = pct(95.0);
  s.maxRecords = static_cast<double>(maxRec);
  if (s.meanRecords > 0.0) {
    s.imbalance = s.maxRecords / s.meanRecords;
  } else {
    s.imbalance = 0.0;
  }
  return s;
}

void StageLog::pushScope(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  scopeStack_.push_back(name);
}

void StageLog::popScope() {
  std::lock_guard<std::mutex> lock(mutex_);
  CSTF_ASSERT(!scopeStack_.empty(), "popScope on empty scope stack");
  scopeStack_.pop_back();
}

std::uint64_t StageLog::nextStageId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return nextStageId_++;
}

std::uint64_t StageLog::nextShuffleOpId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return nextShuffleOpId_++;
}

void StageLog::noteTaskRetry(std::uint64_t stageId) {
  taskRetries_.add();
  std::lock_guard<std::mutex> lock(mutex_);
  ++retriesByStage_[stageId];
}

double StageLog::computeSecondsOf(const TaskCounters& c) const {
  const auto& cfg = *config_;
  return static_cast<double>(c.recordsProcessed) / cfg.recordsPerSecPerCore +
         static_cast<double>(c.flops) / cfg.flopsPerSecPerCore +
         static_cast<double>(c.sourceBytesRead) /
             (cfg.diskBytesPerSecPerNode) +
         static_cast<double>(c.cacheBytesDeserialized) /
             cfg.cacheDeserializeBytesPerSecPerCore;
}

void StageLog::record(StageMetrics m) {
  const auto& cfg = *config_;

  // Compute phase: each node runs its tasks on its cores; the stage
  // finishes when the slowest node finishes, and never faster than its
  // longest single task.
  double compute = 0.0;
  std::vector<double> nodeSec(cfg.numNodes, 0.0);
  for (TaskRecord& task : m.tasks) {
    task.simTimeSec = computeSecondsOf(task.work);
    m.work += task.work;
    compute = std::max(compute, task.simTimeSec);
    nodeSec[task.node] += task.simTimeSec;
  }
  for (const double sec : nodeSec) {
    compute = std::max(compute, sec / cfg.coresPerNode);
  }

  // Network phase: each node pulls its remote input over its own link;
  // the slowest node gates the stage.
  double network = 0.0;
  for (const std::uint64_t bytes : m.nodeBytesInRemote) {
    network = std::max(network, static_cast<double>(bytes) /
                                    cfg.networkBytesPerSecPerNode);
  }

  double disk = 0.0;
  double overhead =
      cfg.stageOverheadSec + cfg.stageOverheadPerNodeSec * cfg.numNodes;
  if (cfg.mode == ExecutionMode::kHadoop && m.kind != StageKind::kBroadcast) {
    // Every shuffle or result stage is a MapReduce job. A shuffle's map
    // outputs spill to local disk, reducers read them back, and the job's
    // output is committed to HDFS (approximated by the same volume): three
    // passes spread over all nodes' disks.
    overhead += cfg.jobOverheadSec;
    if (m.kind == StageKind::kShuffle) {
      const std::uint64_t diskBytes =
          3 * (m.shuffleBytesRemote + m.shuffleBytesLocal);
      disk = static_cast<double>(diskBytes) /
             (cfg.diskBytesPerSecPerNode * cfg.numNodes);
    }
  }
  // Node-loss recovery rounds stall the whole stage: failure detection
  // plus resubmission latency, charged once per recovery round.
  overhead += m.recoveryDelaySec;

  m.simTimeSec = compute + network + disk + overhead;

  // Derive the live series from the finalized stage, so heartbeat
  // snapshots show progress mid-run, not only at report time.
  metrics::Registry& live = metrics::globalRegistry();
  live.counter("sparkle_stages_total", {{"kind", stageKindName(m.kind)}})
      .add();
  live.counter("sparkle_shuffle_records_total").add(m.shuffleRecords);
  live.counter("sparkle_shuffle_bytes_remote_total")
      .add(m.shuffleBytesRemote);
  live.counter("sparkle_shuffle_bytes_local_total").add(m.shuffleBytesLocal);
  live.counter("sparkle_broadcast_bytes_total").add(m.broadcastBytes);

  std::lock_guard<std::mutex> lock(mutex_);
  if (m.stageId == 0) m.stageId = nextStageId_++;
  if (m.scope.empty()) {
    for (const auto& part : scopeStack_) {
      if (!m.scope.empty()) m.scope += '/';
      m.scope += part;
    }
  }
  if (const auto it = retriesByStage_.find(m.stageId);
      it != retriesByStage_.end()) {
    m.taskRetries = it->second;
  }
  stages_.push_back(std::move(m));
  liveSimTimeSec_ += stages_.back().simTimeSec;
  live.gauge("sparkle_sim_time_sec").set(liveSimTimeSec_);
}

std::vector<StageMetrics> StageLog::stages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

StageCounts countsOf(const StageMetrics& s) {
  return {.recordsProcessed = s.work.recordsProcessed,
          .flops = s.work.flops,
          .sourceBytesRead = s.work.sourceBytesRead,
          .cacheBytesDeserialized = s.work.cacheBytesDeserialized,
          .shuffleRecords = s.shuffleRecords,
          .shuffleBytesRemote = s.shuffleBytesRemote,
          .shuffleBytesLocal = s.shuffleBytesLocal,
          .broadcastBytes = s.broadcastBytes,
          .taskRetries = s.taskRetries,
          .lostNodes = s.lostNodes,
          .recomputedMapTasks = s.recomputedMapTasks,
          .evictedCacheBlocks = s.evictedCacheBlocks,
          .simTimeSec = s.simTimeSec,
          .wallTimeSec = s.wallTimeSec};
}

MetricsTotals StageLog::totalsLocked(
    const std::string* scopePrefix) const {
  MetricsTotals t;
  std::set<std::uint64_t> ops;
  for (const auto& s : stages_) {
    if (scopePrefix != nullptr && s.scope.rfind(*scopePrefix, 0) != 0) {
      continue;
    }
    ++t.stages;
    if (s.shuffleOpId != 0) ops.insert(s.shuffleOpId);
    t += countsOf(s);
  }
  t.shuffleOps = ops.size();
  return t;
}

MetricsTotals StageLog::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totalsLocked(nullptr);
}

MetricsTotals StageLog::totalsForScope(
    const std::string& scopePrefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totalsLocked(&scopePrefix);
}

std::size_t StageLog::stageCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_.size();
}

RecordSkewStats StageLog::reduceSkewForStagesFrom(
    std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> pooled;
  for (std::size_t i = index; i < stages_.size(); ++i) {
    pooled.insert(pooled.end(), stages_[i].reduceRecordsByPartition.begin(),
                  stages_[i].reduceRecordsByPartition.end());
  }
  return computeRecordSkew(pooled);
}

void StageLog::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_.clear();
  retriesByStage_.clear();
  liveSimTimeSec_ = 0.0;
  taskRetries_.reset();
  lostNodes_.reset();
  recomputedMapTasks_.reset();
  evictedCacheBlocks_.reset();
}

}  // namespace cstf::sparkle
