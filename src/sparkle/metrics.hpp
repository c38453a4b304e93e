// Per-stage execution metrics and the simulated-time model.
//
// This is the engine's equivalent of the Spark metrics service the paper
// uses in §6.5: every shuffle stage records how many records/bytes were
// read remotely vs locally, and every stage's deterministic work counters
// are folded through the ClusterConfig time model into simulated seconds.
// Stages are tagged with the current *scope* (e.g. "MTTKRP-2") so Figure 4's
// per-MTTKRP breakdown can be regenerated by aggregation.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "common/metrics_registry.hpp"
#include "sparkle/cluster.hpp"

namespace cstf::sparkle {

enum class StageKind { kShuffle, kResult, kBroadcast };

const char* stageKindName(StageKind k);

/// One executed task: the work of one partition of one stage. Load
/// imbalance — the dominant failure mode of sparse MTTKRP — only shows up
/// at this granularity; stage totals hide it completely.
struct TaskRecord {
  std::uint32_t partition = 0;
  /// Node the partition is placed on (round-robin model).
  std::uint32_t node = 0;
  TaskCounters work;
  /// Shuffle bytes this task emitted (map-side serialized payload +
  /// envelope + block framing); 0 for result-stage tasks.
  std::uint64_t shuffleBytesOut = 0;
  /// Single-core simulated seconds of this task's work.
  double simTimeSec = 0.0;
  /// Host wall seconds (includes retried attempts).
  double wallTimeSec = 0.0;
};

/// Distribution of per-task simulated times within one stage (or pooled
/// over several stages) — the skew profile Figure-4-style analyses need.
struct TaskSkewStats {
  std::uint64_t tasks = 0;
  double meanSec = 0.0;
  double p50Sec = 0.0;
  double p95Sec = 0.0;
  double maxSec = 0.0;
  /// max/mean; 1.0 for a perfectly balanced stage, 0 when there are no
  /// tasks (or no metered work at all).
  double imbalance = 0.0;
  /// Partition id of the slowest task.
  std::uint32_t heaviestPartition = 0;
};

/// Nearest-rank percentiles over `tasks` (by simTimeSec). Safe on empty.
TaskSkewStats computeTaskSkew(const std::vector<TaskRecord>& tasks);

/// Distribution of *records landing on each reduce partition* of a shuffle
/// (or pooled over several shuffles) — the reduce-task record imbalance
/// that hot tensor-mode keys create under hash partitioning.
struct RecordSkewStats {
  std::uint64_t partitions = 0;
  double meanRecords = 0.0;
  double p50Records = 0.0;
  double p95Records = 0.0;
  double maxRecords = 0.0;
  /// max/mean; 1.0 when perfectly balanced, 0 when there are no records.
  double imbalance = 0.0;
  std::uint32_t heaviestPartition = 0;
};

/// Nearest-rank percentiles over per-partition record counts. Safe on empty.
RecordSkewStats computeRecordSkew(const std::vector<std::uint64_t>& records);

struct StageMetrics {
  std::uint64_t stageId = 0;
  /// Groups the (possibly several) shuffle stages of one logical RDD
  /// operation, e.g. the two sides of a join. 0 = not a shuffle op.
  std::uint64_t shuffleOpId = 0;
  StageKind kind = StageKind::kResult;
  std::string scope;
  std::string label;

  TaskCounters work;
  std::uint64_t shuffleRecords = 0;
  std::uint64_t shuffleBytesRemote = 0;
  std::uint64_t shuffleBytesLocal = 0;
  std::uint64_t broadcastBytes = 0;
  /// Retried task attempts charged to this stage.
  std::uint64_t taskRetries = 0;
  /// Node-loss recovery: nodes that died at this stage's fetch boundary,
  /// map tasks re-run to regenerate their lost outputs, and cached
  /// partition blocks (across all live datasets) their deaths evicted.
  std::uint64_t lostNodes = 0;
  std::uint64_t recomputedMapTasks = 0;
  std::uint64_t evictedCacheBlocks = 0;
  /// Failure-detection + resubmission latency accumulated over this
  /// stage's node-loss recovery rounds; added to the stage overhead.
  double recoveryDelaySec = 0.0;
  double simTimeSec = 0.0;
  double wallTimeSec = 0.0;
  /// Per-partition task records (map-side tasks for shuffle stages, result
  /// tasks for result stages; empty for broadcast/checkpoint entries).
  std::vector<TaskRecord> tasks;
  /// Records fetched by each destination (reduce) partition; only populated
  /// for shuffle stages. Feeds computeRecordSkew.
  std::vector<std::uint64_t> reduceRecordsByPartition;
  /// Remote bytes each node pulled in during this stage (the time model's
  /// network phase reads them) — lets tests and reports audit *who* paid
  /// for a transfer, e.g. that a broadcast's source node pays nothing.
  std::vector<std::uint64_t> nodeBytesInRemote;
};

/// The counters one stage carries, and every report row sums: the run
/// totals, the report's stage rows and its per-mode rows are this block
/// plus their own ids. forEachField is the one field list; +=, -= and the
/// run report's JSON writer all walk it, so a new counter is one member
/// and one entry there.
struct StageCounts {
  std::uint64_t recordsProcessed = 0;
  std::uint64_t flops = 0;
  std::uint64_t sourceBytesRead = 0;
  std::uint64_t cacheBytesDeserialized = 0;
  std::uint64_t shuffleRecords = 0;
  std::uint64_t shuffleBytesRemote = 0;
  std::uint64_t shuffleBytesLocal = 0;
  std::uint64_t broadcastBytes = 0;
  std::uint64_t taskRetries = 0;
  std::uint64_t lostNodes = 0;
  std::uint64_t recomputedMapTasks = 0;
  std::uint64_t evictedCacheBlocks = 0;
  double simTimeSec = 0.0;
  double wallTimeSec = 0.0;

  /// Calls f(name, member pointer) once per field, in report order.
  template <typename F>
  static void forEachField(F&& f) {
    f("recordsProcessed", &StageCounts::recordsProcessed);
    f("flops", &StageCounts::flops);
    f("sourceBytesRead", &StageCounts::sourceBytesRead);
    f("cacheBytesDeserialized", &StageCounts::cacheBytesDeserialized);
    f("shuffleRecords", &StageCounts::shuffleRecords);
    f("shuffleBytesRemote", &StageCounts::shuffleBytesRemote);
    f("shuffleBytesLocal", &StageCounts::shuffleBytesLocal);
    f("broadcastBytes", &StageCounts::broadcastBytes);
    f("taskRetries", &StageCounts::taskRetries);
    f("lostNodes", &StageCounts::lostNodes);
    f("recomputedMapTasks", &StageCounts::recomputedMapTasks);
    f("evictedCacheBlocks", &StageCounts::evictedCacheBlocks);
    f("simTimeSec", &StageCounts::simTimeSec);
    f("wallTimeSec", &StageCounts::wallTimeSec);
  }

  StageCounts& operator+=(const StageCounts& o) {
    forEachField([&](const char*, auto field) { this->*field += o.*field; });
    return *this;
  }
  StageCounts& operator-=(const StageCounts& o) {
    forEachField([&](const char*, auto field) { this->*field -= o.*field; });
    return *this;
  }
};

inline StageCounts operator-(StageCounts a, const StageCounts& b) {
  return a -= b;
}

/// The one place a stage's fields map to its counts.
StageCounts countsOf(const StageMetrics& s);

/// Aggregate over a set of stages (one scope, or the whole run).
struct MetricsTotals : StageCounts {
  std::uint64_t stages = 0;
  std::uint64_t shuffleOps = 0;
};

/// The post-hoc log of one context's finalized stages, which run reports,
/// totals and skew queries read (the live series are metrics::Registry).
class StageLog {
 public:
  /// Stage records and the fault counts below also feed the always-on
  /// `sparkle_*` series of metrics::globalRegistry(), which the heartbeat
  /// samples mid-run.
  explicit StageLog(const ClusterConfig* config) : config_(config) {}

  /// Scope stack: stages recorded while a scope is active are tagged with
  /// it. Nested scopes join with '/'.
  void pushScope(const std::string& name);
  void popScope();

  std::uint64_t nextStageId();
  std::uint64_t nextShuffleOpId();

  /// Fault-tolerance bookkeeping: one count per retried task attempt,
  /// charged to the stage whose task failed (stageId 0 = unattributed).
  void noteTaskRetry(std::uint64_t stageId = 0);
  std::uint64_t taskRetries() const { return taskRetries_.value(); }

  /// Node-loss bookkeeping (run-level counters; per-stage attribution
  /// lives on the StageMetrics the recovering shuffle records).
  void noteNodeLoss(std::uint64_t n = 1) { lostNodes_.add(n); }
  void noteRecomputedMapTasks(std::uint64_t n) {
    recomputedMapTasks_.add(n);
  }
  void noteEvictedCacheBlocks(std::uint64_t n) {
    evictedCacheBlocks_.add(n);
  }
  std::uint64_t lostNodes() const { return lostNodes_.value(); }
  std::uint64_t recomputedMapTasks() const {
    return recomputedMapTasks_.value();
  }
  std::uint64_t evictedCacheBlocks() const {
    return evictedCacheBlocks_.value();
  }

  /// Finalize a stage: runs the cluster time model on the stage itself,
  /// stamps ids/scope, and appends. Thread-safe. The model takes `work`
  /// and each task's simTimeSec from `tasks` (compute phase: the slowest
  /// node's tasks on its cores, never less than the longest task), the
  /// network phase from `nodeBytesInRemote`, and in Hadoop mode a job
  /// start per shuffle or result stage plus a disk pass of 3x a shuffle's
  /// bytes; `recoveryDelaySec` adds to the stage overhead.
  void record(StageMetrics m);

  std::vector<StageMetrics> stages() const;
  MetricsTotals totals() const;
  /// Totals restricted to stages whose scope starts with `scopePrefix`.
  MetricsTotals totalsForScope(const std::string& scopePrefix) const;
  /// Number of stages recorded so far — a cursor for windowed queries.
  std::size_t stageCount() const;
  /// Reduce-side record skew pooled over stages recorded at positions
  /// >= `index` (as returned by stageCount() before the window started).
  RecordSkewStats reduceSkewForStagesFrom(std::size_t index) const;

  void reset();

  /// Convert raw task counters into seconds of single-core compute.
  double computeSecondsOf(const TaskCounters& c) const;

 private:
  MetricsTotals totalsLocked(const std::string* scopePrefix) const;

  const ClusterConfig* config_;
  mutable std::mutex mutex_;
  std::vector<StageMetrics> stages_;
  std::vector<std::string> scopeStack_;
  std::unordered_map<std::uint64_t, std::uint64_t> retriesByStage_;
  std::uint64_t nextStageId_ = 1;
  std::uint64_t nextShuffleOpId_ = 1;
  /// Cumulative simulated seconds mirrored to the live gauge (reset()
  /// rewinds it together with the stage list).
  double liveSimTimeSec_ = 0.0;
  /// Run-level fault counts: reset() rewinds these, while their exported
  /// series stay monotone.
  metrics::OwnedCounter taskRetries_{&metrics::globalRegistry(),
                                     "sparkle_task_retries_total"};
  metrics::OwnedCounter lostNodes_{&metrics::globalRegistry(),
                                   "sparkle_lost_nodes_total"};
  metrics::OwnedCounter recomputedMapTasks_{
      &metrics::globalRegistry(), "sparkle_recomputed_map_tasks_total"};
  metrics::OwnedCounter evictedCacheBlocks_{
      &metrics::globalRegistry(), "sparkle_evicted_cache_blocks_total"};
};

/// RAII scope tag.
class ScopedStage {
 public:
  ScopedStage(StageLog& reg, std::string name) : reg_(reg) {
    reg_.pushScope(std::move(name));
  }
  ~ScopedStage() { reg_.popScope(); }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  StageLog& reg_;
};

}  // namespace cstf::sparkle
