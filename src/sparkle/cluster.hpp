// Cluster model: topology and calibration constants for the simulated
// distributed platform.
//
// The CSTF paper runs on XSEDE Comet (Intel Xeon E5-2680v3, 24 cores/node,
// up to 32 worker nodes, Spark 1.5.2 / Hadoop 2.6). This host has one core,
// so multi-node behaviour is *modeled*: the engine executes the real
// computation (every record really moves through every transformation and
// every shuffle really serializes its records), and this ClusterConfig
// converts the measured work/byte counters into deterministic simulated
// time. Constants below are calibrated so that a tensor scaled 1/1000 from
// the paper's datasets lands near 1/1000 of the paper's reported runtimes;
// see DESIGN.md §2 and EXPERIMENTS.md for the calibration rationale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparkle/local_kernel.hpp"

namespace cstf::sparkle {

/// One scheduled node death: after the map side of stage `afterStage`
/// completes (and before its outputs are fetched), node `node` goes down.
struct NodeLossEvent {
  std::uint64_t afterStage = 0;
  int node = 0;
};

/// Correlated-failure model: where taskFailureRate kills single task
/// *attempts*, a FaultPlan kills whole *nodes* at stage boundaries — the
/// dominant real-cluster failure mode. A dead node takes its cached
/// Dataset blocks and its shuffle map outputs with it; the reduce side
/// then hits FetchFailedError and the engine re-runs only the missing map
/// tasks, recomputing evicted cache blocks from lineage. Injection is
/// deterministic in (seed, stageId, attempt) so faulted runs reproduce.
struct FaultPlan {
  /// Probability that a node dies at any given shuffle-stage boundary.
  /// As with taskFailureRate, rates below 1 exempt the final stage
  /// attempt so runs always complete; a rate >= 1 models a hard fault
  /// and aborts the job after maxStageAttempts.
  double nodeLossRate = 0.0;
  /// Seed for the rate-driven injection hash (independent of data seeds).
  std::uint64_t seed = 0xfa17ed;
  /// Explicit kills, fired on the first attempt of their stage only (a
  /// re-run of the same stage does not re-fire the event).
  std::vector<NodeLossEvent> schedule;
  /// Map-stage re-runs before the job aborts with JobAbortedError
  /// (Spark's spark.stage.maxConsecutiveAttempts).
  int maxStageAttempts = 4;
  /// Simulated seconds charged to the stage per recovery round: failure
  /// detection, executor re-registration, resubmission latency.
  double stageRetryDelaySec = 0.25;
  /// When false, the CSTF_CHAOS environment switch leaves this config
  /// alone — for tests asserting exact metering that a surprise node
  /// death would perturb.
  bool allowEnvChaos = true;

  bool enabled() const { return nodeLossRate > 0.0 || !schedule.empty(); }

  /// Scheduled node death for `stage`: the dead node's id normalized into
  /// [0, numNodes), or -1 when nothing is scheduled there. Callers fire
  /// this on the first attempt of a stage only (a re-run of the same stage
  /// does not re-fire the event). Shared by the shuffle engine (stage =
  /// shuffle stage id) and the serving tier (stage = dispatched batch
  /// index), so one plan drives deterministic loss in either layer.
  int scheduledLossFor(std::uint64_t stage, int numNodes) const {
    for (const NodeLossEvent& ev : schedule) {
      if (ev.afterStage == stage) {
        return ((ev.node % numNodes) + numNodes) % numNodes;
      }
    }
    return -1;
  }

  /// Rate-driven loss draw for (stage, attempt): a pure function of the
  /// plan's seed, so fault-injected runs reproduce. Returns the dead
  /// node's id or -1 for no loss.
  int rateDrivenLoss(std::uint64_t stage, int attempt, int numNodes) const {
    if (nodeLossRate <= 0.0) return -1;
    const std::uint64_t h =
        mix64(mix64(seed ^ stage * 0x9e3779b97f4a7c15ULL) +
              static_cast<std::uint64_t>(attempt));
    if (static_cast<double>(h >> 11) * 0x1.0p-53 >= nodeLossRate) return -1;
    return static_cast<int>(mix64(h) % static_cast<std::uint64_t>(numNodes));
  }
};

/// Which framework behaviour the engine emulates.
///
/// kSpark: lineage caching honored, shuffle blocks held in memory,
///         light per-stage scheduling overhead.
/// kHadoop: caching disabled (MapReduce jobs cannot keep RDDs resident),
///          every stage's input/output passes through the disk model, and
///          each shuffle stage pays a per-job startup overhead — the
///          behaviours §4.3 and §6.4 of the paper credit for BIGtensor's
///          slowdown.
enum class ExecutionMode { kSpark, kHadoop };

/// Attempts per task before the job is failed (the default of Spark's
/// spark.task.maxFailures).
inline constexpr int kMaxTaskAttempts = 4;

struct ClusterConfig {
  /// Worker nodes (the paper sweeps 4, 8, 16, 32).
  int numNodes = 8;
  /// Cores per worker (Comet: 24).
  int coresPerNode = 24;

  /// Key-value records a single core pushes through one transformation per
  /// second. Spark-1.5-era Scala/Java record pipelines with generic
  /// serialization process tiny records at O(10^4..10^5)/s/core; 25k/s/core
  /// reproduces the paper's absolute per-iteration runtimes within ~2x at
  /// the 1/1000 data scale used here.
  double recordsPerSecPerCore = 25e3;
  /// Dense flop throughput per core (vector ops on factor rows).
  double flopsPerSecPerCore = 1e9;
  /// Effective per-node network bandwidth (~1 GbE after protocol overhead).
  double networkBytesPerSecPerNode = 120e6;
  /// Per-node local-disk / HDFS bandwidth.
  double diskBytesPerSecPerNode = 100e6;
  /// Per-stage scheduling/launch latency (Spark task wave startup).
  double stageOverheadSec = 0.05;
  /// Additional per-stage cost per worker node (executor coordination and
  /// the all-to-all shuffle connection setup grow with cluster size). This
  /// is what makes stage *count* increasingly expensive on large clusters —
  /// the effect QCOO's fewer-shuffles design targets.
  double stageOverheadPerNodeSec = 0.0;
  /// Per-MapReduce-job startup cost (JVM spin-up, HDFS commit) in Hadoop
  /// mode; each shuffle stage boundary is a job boundary.
  double jobOverheadSec = 2.5;

  /// Throughput of decoding records out of a serialized-format cache
  /// (Spark's MEMORY_ONLY_SER); raw caching skips this cost entirely,
  /// which is why the paper caches tensors raw (§4.1).
  double cacheDeserializeBytesPerSecPerCore = 100e6;
  /// Memory expansion of raw (live-object) caching relative to the
  /// serialized representation — JVM object headers, references, boxing.
  /// Used only for the cache-memory gauge.
  double rawCacheExpansionFactor = 2.5;

  /// Fixed cost, in bytes, per non-empty shuffle block (one block exists
  /// per (map partition, reduce partition) pair): block headers, index
  /// entries, fetch-request framing. Zero by default so byte metrics
  /// decompose exactly into record payload + envelope; set it to model the
  /// classic "many tiny shuffle blocks" penalty of over-partitioning.
  std::size_t shuffleBlockOverheadBytes = 0;

  /// Serialization framing per shuffled record (JVM object headers, class
  /// descriptors, references). Added to each record's payload in the byte
  /// metrics; with R=2 rows the envelope dominates, which is exactly why
  /// the paper measures ~35% shuffle savings for QCOO when the pure-payload
  /// analysis of its Table 4 predicts ~33% from stream counts alone.
  std::size_t recordEnvelopeBytes = 48;

  /// Probability that any task attempt fails after doing its work (the
  /// "executor lost" case). Failed attempts are retried, recomputing from
  /// lineage exactly as Spark/Hadoop do — the fault-tolerance property
  /// that makes these platforms attractive for data-center tensor
  /// factorization (paper §1, §3). Injection is deterministic in
  /// (stage, partition, attempt), so runs remain reproducible.
  double taskFailureRate = 0.0;

  /// Correlated node-loss injection (see FaultPlan). Off by default.
  FaultPlan faults;

  /// The MTTKRP formulation (see LocalKernel). kCoo keeps the join chains;
  /// kCsf selects the broadcast-local path. Read only by resolvePlan
  /// (cstf/plan.hpp).
  LocalKernel localKernel = LocalKernel::kCoo;

  ExecutionMode mode = ExecutionMode::kSpark;

  /// Round-robin partition placement, Spark's default block distribution.
  int nodeOfPartition(std::size_t p) const {
    CSTF_ASSERT(numNodes > 0, "cluster must have nodes");
    return static_cast<int>(p % static_cast<std::size_t>(numNodes));
  }

  int totalCores() const { return numNodes * coresPerNode; }

  void validate() const {
    CSTF_CHECK(numNodes > 0, "numNodes must be positive");
    CSTF_CHECK(coresPerNode > 0, "coresPerNode must be positive");
    CSTF_CHECK(recordsPerSecPerCore > 0, "record throughput must be positive");
    CSTF_CHECK(flopsPerSecPerCore > 0, "flop throughput must be positive");
    CSTF_CHECK(networkBytesPerSecPerNode > 0, "network bandwidth must be positive");
    CSTF_CHECK(diskBytesPerSecPerNode > 0, "disk bandwidth must be positive");
    CSTF_CHECK(faults.nodeLossRate >= 0.0, "nodeLossRate must be >= 0");
    CSTF_CHECK(faults.maxStageAttempts >= 1, "maxStageAttempts must be >= 1");
    CSTF_CHECK(faults.stageRetryDelaySec >= 0.0,
               "stageRetryDelaySec must be >= 0");
  }
};

/// CSTF_CHAOS: suite-wide node-loss injection for CI chaos runs. When the
/// variable is set (and the config neither defines its own fault plan nor
/// opted out), every Context gets a default node-loss rate — a numeric
/// value in (0, 1) is used as the rate, anything else (e.g. "1", "on")
/// selects a mild default. The retry delay is zeroed so absolute sim-time
/// expectations are perturbed as little as possible; determinism is
/// preserved because injection depends only on (seed, stageId, attempt).
inline void applyChaosFromEnv(ClusterConfig& cfg) {
  if (cfg.faults.enabled() || !cfg.faults.allowEnvChaos) return;
  const char* v = std::getenv("CSTF_CHAOS");
  if (v == nullptr || v[0] == '\0' || (v[0] == '0' && v[1] == '\0')) return;
  char* end = nullptr;
  const double rate = std::strtod(v, &end);
  cfg.faults.nodeLossRate =
      (end != v && *end == '\0' && rate > 0.0 && rate < 1.0) ? rate : 0.05;
  cfg.faults.stageRetryDelaySec = 0.0;
}

}  // namespace cstf::sparkle
