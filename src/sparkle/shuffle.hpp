// Wide dependencies: the shuffle.
//
// A ShuffledDataset cuts the DAG into stages exactly where Spark does. On
// materialization it
//   1. runs one map task per parent partition (optionally turning each
//      value into a combiner and merging equal keys map-side, as Spark's
//      combineByKey and reduceByKey do),
//   2. encodes every record through its FixedWidthSerde codec into
//      exact-size per-destination buckets — so the byte metrics reflect
//      true serde sizes plus the configured per-record envelope,
//   3. "fetches" buckets into destination partitions, classifying bytes as
//      remote or local by the round-robin node placement of source and
//      destination partitions,
//   4. records one StageMetrics entry (with per-node costs) in the stage
//      log, which runs the cluster time model.
// Fetched buckets stay encoded: the task that reads a destination partition
// decodes it (Spark's ShuffledRDD.compute), so its records are allocated
// and freed on that task's thread, and the buckets return to the
// BufferPool when the dataset is destroyed.
//
// Join is then a *narrow* dataset over two co-partitioned shuffles — again
// mirroring Spark, where the two shuffle stages feed a result stage that
// performs the per-partition hash join. A join that only updates its left
// records (JoinUpdateDataset) edits the left shuffle's fresh decode where
// it lies, the way Spark pipelines a map inside the join's task.
#pragma once

#include <bit>
#include <chrono>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "sparkle/dataset.hpp"

namespace cstf::sparkle {

/// Merges `x` into `acc` in place: f(acc, x). Only a void-result callable
/// converts; a plain std::function would take a value-returning merge and
/// silently drop its result.
template <typename Acc, typename X = Acc>
struct InPlaceMerge : std::function<void(Acc&, const X&)> {
  InPlaceMerge(std::nullptr_t = nullptr) {}
  template <typename F>
    requires std::is_void_v<std::invoke_result_t<F&, Acc&, const X&>>
  InPlaceMerge(F f) : std::function<void(Acc&, const X&)>(std::move(f)) {}
};

/// Open-addressing index from keys to dense slots 0, 1, 2, ... in order of
/// first insertion: the one hash table behind the map-side combine, the
/// join build and the reduce-side merge. Callers keep each slot's payload
/// in their own dense array, so the first value of a key seeds its slot,
/// every later value merges into it in arrival order, and the merged
/// records leave in first-arrival order. Keys hash through KeyHash; a probe
/// starts at the hash's top bits, because its low bits pick the partition
/// (hash modulo partition count) and so repeat across one partition's keys.
template <typename K>
class KeySlots {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Room for up to `maxKeys` keys (callers pass their record count) at a
  /// load of at most one half, so a probe run stays short.
  explicit KeySlots(std::size_t maxKeys) {
    std::size_t cap = 16;
    while (cap < 2 * maxKeys) cap *= 2;
    table_.resize(cap);
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
  }

  /// The slot of `k`; a new key takes the next slot number. The flag says
  /// whether `k` was new.
  std::pair<std::uint32_t, bool> insert(const K& k) {
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      Entry& e = table_[i];
      if (e.slot == kNone) {
        CSTF_ASSERT(2 * (std::size_t{size_} + 1) <= table_.size(),
                    "more keys than the KeySlots was sized for");
        e.key = k;
        e.slot = size_;
        return {size_++, true};
      }
      if (e.key == k) return {e.slot, false};
    }
  }

  /// The slot of `k`, or kNone.
  std::uint32_t find(const K& k) const {
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      const Entry& e = table_[i];
      if (e.slot == kNone || e.key == k) return e.slot;
    }
  }

 private:
  struct Entry {
    K key{};
    std::uint32_t slot = kNone;
  };

  std::size_t home(const K& k) const {
    return static_cast<std::size_t>(KeyHash<K>{}(k) >> shift_);
  }

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::uint32_t size_ = 0;
};

/// Shuffles a parent of (K, V) records into (K, C) records, C = V unless a
/// combineByKey turns values into combiners.
template <typename K, typename V, typename C = V>
class ShuffledDataset final : public Dataset<std::pair<K, C>> {
 public:
  using In = std::pair<K, V>;
  using Rec = std::pair<K, C>;
  using Combiner = InPlaceMerge<C, V>;
  using CreateCombiner = std::function<C(const V&)>;

  /// `combiner`, when set, merges values with equal keys *within each map
  /// task before serialization* (Spark map-side combine); the reduce side
  /// still needs its own merge across map tasks. `create`, when set, turns
  /// a value into a combiner: a key's first value in a map task (the
  /// combiner merges the rest into it), or every value without a
  /// combiner. Unset, the value is its own combiner (C = V). Each map task
  /// charges `create` as a mapValues hop would: one processed record and
  /// `createFlopsPerRecord` flops per input value.
  ShuffledDataset(Context* ctx, std::shared_ptr<Dataset<In>> parent,
                  std::shared_ptr<Partitioner> partitioner, std::string label,
                  std::uint64_t shuffleOpId, Combiner combiner = nullptr,
                  double combinerFlopsPerMerge = 0.0,
                  CreateCombiner create = nullptr,
                  double createFlopsPerRecord = 0.0)
      : Dataset<Rec>(ctx, partitioner->numPartitions()),
        parent_(std::move(parent)),
        partitioner_(std::move(partitioner)),
        label_(std::move(label)),
        shuffleOpId_(shuffleOpId),
        combiner_(std::move(combiner)),
        combinerFlopsPerMerge_(combinerFlopsPerMerge),
        create_(std::move(create)),
        createFlopsPerRecord_(createFlopsPerRecord) {
    CSTF_CHECK((std::is_same_v<C, V>) || create_,
               "a shuffle that changes the value type needs a create step");
    this->setOutputPartitioning(partitioner_);
  }

  ~ShuffledDataset() override {
    for (auto& buckets : fetched_) {
      for (auto& bucket : buckets) {
        this->context()->bufferPool().release(std::move(bucket));
      }
    }
  }

  void ensureReady() override {
    std::call_once(once_, [this] {
      parent_->ensureReady();
      materialize();
    });
  }

 protected:
  Block<Rec> computePartition(std::size_t q, TaskContext& tc) override {
    return makeBlock(computeOwnedPartition(q, tc));
  }

  /// Decodes destination q's fetched buckets in map-partition order; every
  /// read (a second action, a retried task) decodes afresh, so the caller
  /// owns what it gets.
  std::vector<Rec> computeOwnedPartition(std::size_t q,
                                         TaskContext&) override {
    ensureReady();
    std::vector<Rec> recs;
    recs.reserve(fetchedRecords_[q]);
    for (const auto& bucket : fetched_[q]) {
      fixedWidthDecodeStream(bucket.data(), bucket.size(), recs);
    }
    return recs;
  }

 private:
  struct MapOutput {
    // One serialized bucket per destination partition. Buckets hold exact
    // serde bytes; the fetch hands them to the destination partition.
    std::vector<std::vector<std::uint8_t>> buckets;
    std::vector<std::uint32_t> bucketRecords;
    TaskCounters counters;
    // Set when the node holding this map task's output died; the fetch
    // refuses to proceed until the task has been re-run.
    bool lost = false;
  };

  /// Bucket `recs` by destination in two passes: pass 1 hashes each key
  /// and sums encoded widths per destination, pass 2 encodes by bulk stores
  /// into exact-size pooled buckets. Records of one batch may differ in
  /// width (order-3 and order-4 nonzeros, say); the sums absorb that.
  void encodeBuckets(const std::vector<Rec>& recs, std::size_t pOut,
                     MapOutput& out) {
    using Codec = FixedWidthSerde<Rec>;
    if (recs.empty()) return;
    Context* ctx = this->context();
    // Destination scratch lives in pooled bytes so steady-state
    // iterations reuse it instead of reallocating per task.
    std::vector<std::uint8_t> dstScratch =
        ctx->bufferPool().acquire(recs.size() * sizeof(std::uint32_t));
    dstScratch.resize(recs.size() * sizeof(std::uint32_t));
    auto* dst = reinterpret_cast<std::uint32_t*>(dstScratch.data());
    std::vector<std::size_t> bytes(pOut, 0);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const auto d = static_cast<std::uint32_t>(
          partitioner_->partitionOf(KeyHash<K>{}(recs[i].first)));
      dst[i] = d;
      ++out.bucketRecords[d];
      if constexpr (Codec::kStaticWidth == 0) bytes[d] += Codec::width(recs[i]);
    }
    std::vector<std::uint8_t*> cursor(pOut, nullptr);
    for (std::size_t q = 0; q < pOut; ++q) {
      if constexpr (Codec::kStaticWidth != 0) {
        bytes[q] = out.bucketRecords[q] * Codec::kStaticWidth;
      }
      if (bytes[q] == 0) continue;
      out.buckets[q] = ctx->bufferPool().acquire(bytes[q]);
      out.buckets[q].resize(bytes[q]);
      cursor[q] = out.buckets[q].data();
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      cursor[dst[i]] = Codec::encode(cursor[dst[i]], recs[i]);
    }
    ctx->bufferPool().release(std::move(dstScratch));
  }

  void materialize() {
    const auto t0 = std::chrono::steady_clock::now();
    Context* ctx = this->context();
    const ClusterConfig& cfg = ctx->config();
    const std::size_t pIn = parent_->numPartitions();
    const std::size_t pOut = partitioner_->numPartitions();
    const std::uint64_t stageId = ctx->metrics().nextStageId();
    TraceSpan stageSpan(ctx->trace(), "shuffle:" + label_, "stage");

    // ---- map side ----
    std::vector<MapOutput> mapOut(pIn);
    std::vector<TaskRecord> tasks(pIn);
    auto runMapTask = [&](std::size_t p) {
      TraceRecorder& rec = ctx->trace();
      const double traceTs = rec.enabled() ? rec.nowMicros() : 0.0;
      const auto tt0 = std::chrono::steady_clock::now();
      TaskContext taskResult;
      runTaskWithRetries(ctx, stageId, p, label_, taskResult,
                         [&](TaskContext& tc) {
      Block<In> in = parent_->partition(p, tc);
      const std::size_t n = in->size();

      MapOutput& out = mapOut[p];
      // Reset fully: the task may be a retry, whose failed attempt's
      // buckets go back to the pool.
      for (auto& bucket : out.buckets) {
        ctx->bufferPool().release(std::move(bucket));
      }
      out.buckets.assign(pOut, {});
      out.bucketRecords.assign(pOut, 0);
      out.lost = false;

      if constexpr (std::is_same_v<C, V>) {
        if (!create_ && !combiner_) {
          // Nothing to convert or merge: encode the parent block as is.
          encodeBuckets(*in, pOut, out);
          tc.counters.recordsProcessed += n;
          tc.counters.recordsEmitted += n;
          out.counters = tc.counters;
          return;
        }
      }
      if (create_) {
        tc.counters.recordsProcessed += n;
        tc.counters.flops +=
            static_cast<std::uint64_t>(createFlopsPerRecord_ * n);
      }
      std::vector<Rec> combined;
      combined.reserve(n);
      std::uint64_t merges = 0;
      if (combiner_) {
        KeySlots<K> slots(n);
        for (const In& rec : *in) {
          const auto [slot, fresh] = slots.insert(rec.first);
          if (!fresh) {
            combiner_(combined[slot].second, rec.second);
            ++merges;
          } else if (create_) {
            combined.emplace_back(rec.first, create_(rec.second));
          } else if constexpr (std::is_same_v<C, V>) {
            combined.push_back(rec);
          }
        }
      } else {
        for (const In& rec : *in) {
          combined.emplace_back(rec.first, create_(rec.second));
        }
      }
      tc.counters.recordsProcessed += n;
      tc.counters.flops +=
          static_cast<std::uint64_t>(combinerFlopsPerMerge_ * merges);
      encodeBuckets(combined, pOut, out);
      tc.counters.recordsEmitted += combined.size();
      out.counters = tc.counters;
      });
      // Per-task shuffle output: the same formula the fetch side meters per
      // (source, destination) block, so task bytes sum exactly to the
      // stage's remote+local total.
      TaskRecord& task = tasks[p];
      task.partition = static_cast<std::uint32_t>(p);
      task.node = static_cast<std::uint32_t>(cfg.nodeOfPartition(p));
      task.work = taskResult.counters;
      task.shuffleBytesOut = 0;  // the task may be a recovery re-run
      for (std::size_t q = 0; q < pOut; ++q) {
        const std::uint64_t records = mapOut[p].bucketRecords[q];
        task.shuffleBytesOut +=
            mapOut[p].buckets[q].size() + records * cfg.recordEnvelopeBytes +
            (records > 0 ? cfg.shuffleBlockOverheadBytes : 0);
      }
      task.wallTimeSec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - tt0)
                             .count();
      if (rec.enabled()) {
        rec.recordComplete(
            "task:" + label_ + " p" + std::to_string(p), "task", traceTs,
            rec.nowMicros() - traceTs,
            {{"records", std::to_string(task.work.recordsProcessed)},
             {"shuffleBytesOut", std::to_string(task.shuffleBytesOut)}});
      }
    };
    ctx->pool().parallelFor(pIn, runMapTask);

    // ---- stage boundary: correlated node-loss fault model ----
    // A node death here (between map completion and fetch) evicts every
    // cached block the dead node held and drops its map outputs; the fetch
    // below would hit FetchFailedError, so recovery re-runs exactly the
    // missing map tasks — recomputing evicted cache blocks from lineage —
    // until the outputs are whole or the attempt budget runs out.
    std::uint64_t lostNodes = 0;
    std::uint64_t recomputedMapTasks = 0;
    std::uint64_t evictedCacheBlocks = 0;
    double recoveryDelaySec = 0.0;
    if (cfg.faults.enabled()) {
      const int maxAttempts = std::max(1, cfg.faults.maxStageAttempts);
      for (int attempt = 0;; ++attempt) {
        const bool lastAttempt = attempt + 1 >= maxAttempts;
        // Mirrors runTaskWithRetries: sub-1 rates skip the final attempt
        // so jobs complete; a rate >= 1 is a hard fault and may not.
        const bool allowRate = !lastAttempt || cfg.faults.nodeLossRate >= 1.0;
        const int deadNode = injectNodeLoss(cfg, stageId, attempt, allowRate);
        if (deadNode >= 0) {
          ++lostNodes;
          ctx->metrics().noteNodeLoss();
          const std::size_t evicted = ctx->evictCachedBlocksOnNode(deadNode);
          evictedCacheBlocks += evicted;
          if (evicted > 0) ctx->metrics().noteEvictedCacheBlocks(evicted);
          for (std::size_t p = 0; p < pIn; ++p) {
            if (cfg.nodeOfPartition(p) != deadNode) continue;
            for (auto& bucket : mapOut[p].buckets) {
              ctx->bufferPool().release(std::move(bucket));
            }
            mapOut[p].buckets.clear();
            mapOut[p].bucketRecords.clear();
            mapOut[p].lost = true;
          }
          TraceRecorder& rec = ctx->trace();
          if (rec.enabled()) {
            rec.recordInstant(
                "node-loss:" + label_, "fault",
                {{"node", std::to_string(deadNode)},
                 {"stage", std::to_string(stageId)},
                 {"evictedCacheBlocks", std::to_string(evicted)}});
          }
        }
        std::vector<std::size_t> missing;
        for (std::size_t p = 0; p < pIn; ++p) {
          if (mapOut[p].lost) missing.push_back(p);
        }
        if (missing.empty()) break;
        // The fetch has hit missing map outputs. Past the attempt budget
        // this is fatal; otherwise charge the recovery stall and re-run
        // only the lost tasks.
        const FetchFailedError fetchFailed(strprintf(
            "fetch failed: %zu map output(s) of shuffle '%s' (stage %llu) "
            "lost with node %d",
            missing.size(), label_.c_str(),
            static_cast<unsigned long long>(stageId), deadNode));
        if (lastAttempt) {
          throw JobAbortedError(strprintf(
              "job aborted after %d stage attempt(s): %s", maxAttempts,
              fetchFailed.what()));
        }
        recoveryDelaySec += cfg.faults.stageRetryDelaySec;
        recomputedMapTasks += missing.size();
        ctx->metrics().noteRecomputedMapTasks(missing.size());
        ctx->pool().parallelFor(
            missing.size(), [&](std::size_t i) { runMapTask(missing[i]); });
        TraceRecorder& rec = ctx->trace();
        if (rec.enabled()) {
          rec.recordInstant(
              "stage-recovery:" + label_, "fault",
              {{"stage", std::to_string(stageId)},
               {"attempt", std::to_string(attempt + 1)},
               {"recomputedMapTasks", std::to_string(missing.size())}});
        }
      }
    }

    // ---- reduce-side fetch ----
    // Meter every (source, destination) block, then move the non-empty
    // buckets, still encoded, to their destination in map-partition order;
    // computePartition decodes them.
    fetched_.resize(pOut);
    fetchedRecords_.assign(pOut, 0);
    std::vector<std::uint64_t> nodeRemoteIn(cfg.numNodes, 0);
    std::uint64_t totalRemote = 0;
    std::uint64_t totalLocal = 0;
    std::uint64_t totalRecords = 0;
    for (std::size_t q = 0; q < pOut; ++q) {
      const int dstNode = cfg.nodeOfPartition(q);
      for (std::size_t p = 0; p < pIn; ++p) {
        auto& bucket = mapOut[p].buckets[q];
        const std::uint64_t records = mapOut[p].bucketRecords[q];
        // Metered bytes come from the serde size rules (bucket bytes are
        // exact serde bytes), never from how the transfer was physically
        // performed.
        const std::uint64_t bytes =
            bucket.size() + records * cfg.recordEnvelopeBytes +
            (records > 0 ? cfg.shuffleBlockOverheadBytes : 0);
        if (cfg.nodeOfPartition(p) == dstNode) {
          totalLocal += bytes;
        } else {
          totalRemote += bytes;
          nodeRemoteIn[dstNode] += bytes;
        }
        fetchedRecords_[q] += records;
        if (!bucket.empty()) fetched_[q].push_back(std::move(bucket));
      }
      totalRecords += fetchedRecords_[q];
    }
    const std::uint64_t totalBytes = totalRemote + totalLocal;

    // ---- metrics ----
    StageMetrics m;
    m.stageId = stageId;
    m.kind = StageKind::kShuffle;
    m.shuffleOpId = shuffleOpId_;
    m.label = label_;
    m.shuffleRecords = totalRecords;
    m.shuffleBytesRemote = totalRemote;
    m.shuffleBytesLocal = totalLocal;
    m.lostNodes = lostNodes;
    m.recomputedMapTasks = recomputedMapTasks;
    m.evictedCacheBlocks = evictedCacheBlocks;
    // Per-destination record counts: the reduce-task record-skew profile
    // (hot keys show up here as one overloaded destination partition).
    m.reduceRecordsByPartition = fetchedRecords_;

    StageCost cost;
    cost.nodeComputeSec.assign(cfg.numNodes, 0.0);
    for (std::size_t p = 0; p < pIn; ++p) {
      m.work += mapOut[p].counters;
      const double sec = ctx->metrics().computeSecondsOf(mapOut[p].counters);
      tasks[p].simTimeSec = sec;
      cost.maxTaskSec = std::max(cost.maxTaskSec, sec);
      cost.nodeComputeSec[cfg.nodeOfPartition(p)] += sec;
    }
    for (auto& sec : cost.nodeComputeSec) sec /= cfg.coresPerNode;
    cost.nodeShuffleBytesInRemote.assign(nodeRemoteIn.begin(),
                                         nodeRemoteIn.end());
    cost.recoveryDelaySec = recoveryDelaySec;
    if (cfg.mode == ExecutionMode::kHadoop) {
      // Map outputs spill to local disk; reducers read them back; the job's
      // output is then committed to HDFS (approximated by the same volume).
      cost.diskBytes = 3 * totalBytes;
      cost.jobsStarted = 1;
    }
    m.wallTimeSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (stageSpan.active()) {
      stageSpan.arg("tasks", std::uint64_t{pIn});
      stageSpan.arg("shuffleRecords", m.shuffleRecords);
      stageSpan.arg("shuffleBytesRemote", m.shuffleBytesRemote);
      stageSpan.arg("shuffleBytesLocal", m.shuffleBytesLocal);
    }
    m.tasks = std::move(tasks);
    ctx->metrics().record(std::move(m), cost);
  }

  std::shared_ptr<Dataset<In>> parent_;
  std::shared_ptr<Partitioner> partitioner_;
  std::string label_;
  std::uint64_t shuffleOpId_;
  Combiner combiner_;
  double combinerFlopsPerMerge_ = 0.0;
  CreateCombiner create_;
  double createFlopsPerRecord_ = 0.0;
  std::once_flag once_;
  // fetched_[q]: destination q's non-empty buckets in map-partition order,
  // holding fetchedRecords_[q] records in all.
  std::vector<std::vector<std::vector<std::uint8_t>>> fetched_;
  std::vector<std::uint64_t> fetchedRecords_;
};

/// The build side of a hash join: each key's right records chain
/// head[slot] -> next[i] -> ... -> kNone. Building back to front makes
/// every chain run in arrival order.
template <typename K>
class JoinBuild {
 public:
  static constexpr std::uint32_t kNone = KeySlots<K>::kNone;

  template <typename W>
  explicit JoinBuild(const std::vector<std::pair<K, W>>& rhs)
      : slots_(rhs.size()), next_(rhs.size()) {
    for (std::size_t i = rhs.size(); i-- > 0;) {
      const auto [slot, fresh] = slots_.insert(rhs[i].first);
      if (fresh) {
        head_.push_back(kNone);
      } else {
        uniqueKeys_ = false;
      }
      next_[i] = head_[slot];
      head_[slot] = static_cast<std::uint32_t>(i);
    }
  }

  /// Index of k's first right record, or kNone.
  std::uint32_t first(const K& k) const {
    const std::uint32_t slot = slots_.find(k);
    return slot == kNone ? kNone : head_[slot];
  }
  /// Index of the right record after i with the same key, or kNone.
  std::uint32_t next(std::uint32_t i) const { return next_[i]; }
  /// Whether every right key occurs once.
  bool uniqueKeys() const { return uniqueKeys_; }

 private:
  KeySlots<K> slots_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> next_;
  bool uniqueKeys_ = true;
};

/// Inner join of two datasets co-partitioned by the same partitioner.
/// Narrow: partition p of the result reads partition p of both parents and
/// hash-joins them (build on the right/smaller side, probe with the left).
/// A left record meets its key's right records in right-side arrival order,
/// and each output record is built in place from one copy of each value.
template <typename K, typename V, typename W>
class JoinDataset final
    : public Dataset<std::pair<K, std::pair<V, W>>> {
 public:
  using Out = std::pair<K, std::pair<V, W>>;

  JoinDataset(Context* ctx, std::shared_ptr<Dataset<std::pair<K, V>>> left,
              std::shared_ptr<Dataset<std::pair<K, W>>> right,
              std::shared_ptr<Partitioner> partitioner)
      : Dataset<Out>(ctx, partitioner->numPartitions()),
        left_(std::move(left)),
        right_(std::move(right)) {
    CSTF_CHECK(left_->numPartitions() == partitioner->numPartitions() &&
                   right_->numPartitions() == partitioner->numPartitions(),
               "join inputs must be co-partitioned");
    this->setOutputPartitioning(std::move(partitioner));
  }

  void ensureReady() override {
    left_->ensureReady();
    right_->ensureReady();
  }

 protected:
  Block<Out> computePartition(std::size_t p, TaskContext& tc) override {
    Block<std::pair<K, V>> lhs = left_->partition(p, tc);
    Block<std::pair<K, W>> rhs = right_->partition(p, tc);

    const JoinBuild<K> build(*rhs);
    std::vector<Out> out;
    out.reserve(lhs->size());
    for (const auto& [k, v] : *lhs) {
      for (std::uint32_t i = build.first(k); i != build.kNone;
           i = build.next(i)) {
        out.emplace_back(std::piecewise_construct, std::forward_as_tuple(k),
                         std::forward_as_tuple(v, (*rhs)[i].second));
      }
    }
    tc.counters.recordsProcessed += lhs->size() + rhs->size();
    tc.counters.recordsEmitted += out.size();
    return makeBlock(std::move(out));
  }

 private:
  std::shared_ptr<Dataset<std::pair<K, V>>> left_;
  std::shared_ptr<Dataset<std::pair<K, W>>> right_;
};

/// Inner join that updates each left record in place: f(rec, w) for every
/// right value w of rec's key, which may also re-key rec. It emits what
/// JoinDataset followed by a map applying f to a copy of the left record
/// emits — a left record meets its key's right values in right-side
/// arrival order, one output each, and is dropped when there are none —
/// and charges the same counters (left + right + emitted records
/// processed, `flopsPerRecord` per emitted record), without building the
/// joined pair. The left partition comes from ownedPartition: the fresh
/// decode of a shuffle is edited where it lies, and a cached or
/// pre-partitioned left side is copied first.
template <typename K, typename V, typename W, typename F>
class JoinUpdateDataset final : public Dataset<std::pair<K, V>> {
 public:
  using Rec = std::pair<K, V>;

  JoinUpdateDataset(Context* ctx, std::shared_ptr<Dataset<Rec>> left,
                    std::shared_ptr<Dataset<std::pair<K, W>>> right, F f,
                    double flopsPerRecord)
      : Dataset<Rec>(ctx, left->numPartitions()),
        left_(std::move(left)),
        right_(std::move(right)),
        f_(std::move(f)),
        flopsPerRecord_(flopsPerRecord) {
    CSTF_CHECK(right_->numPartitions() == left_->numPartitions(),
               "join inputs must be co-partitioned");
  }

  void ensureReady() override {
    left_->ensureReady();
    right_->ensureReady();
  }

 protected:
  Block<Rec> computePartition(std::size_t p, TaskContext& tc) override {
    std::vector<Rec> lhs = left_->ownedPartition(p, tc);
    Block<std::pair<K, W>> rhs = right_->partition(p, tc);

    const JoinBuild<K> build(*rhs);
    const std::size_t leftRecords = lhs.size();
    if (build.uniqueKeys()) {
      // At most one output per left record: compact the matches forward.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < lhs.size(); ++i) {
        const std::uint32_t r = build.first(lhs[i].first);
        if (r == build.kNone) continue;
        if (kept != i) lhs[kept] = std::move(lhs[i]);
        f_(lhs[kept], (*rhs)[r].second);
        ++kept;
      }
      lhs.erase(lhs.begin() + static_cast<std::ptrdiff_t>(kept), lhs.end());
    } else {
      std::vector<Rec> out;
      out.reserve(lhs.size());
      for (const Rec& rec : lhs) {
        for (std::uint32_t r = build.first(rec.first); r != build.kNone;
             r = build.next(r)) {
          out.push_back(rec);
          f_(out.back(), (*rhs)[r].second);
        }
      }
      lhs = std::move(out);
    }
    tc.counters.recordsProcessed += leftRecords + rhs->size() + lhs.size();
    tc.counters.recordsEmitted += lhs.size();
    tc.counters.flops +=
        static_cast<std::uint64_t>(flopsPerRecord_ * lhs.size());
    return makeBlock(std::move(lhs));
  }

 private:
  std::shared_ptr<Dataset<Rec>> left_;
  std::shared_ptr<Dataset<std::pair<K, W>>> right_;
  F f_;
  double flopsPerRecord_;
};

/// Final merge after a combined shuffle (reduce side of reduceByKey). A
/// key's values merge in the order the partition holds them: map-partition
/// order, then record order within each fetched bucket.
template <typename K, typename V>
class ReduceByKeyMergeDataset final : public Dataset<std::pair<K, V>> {
 public:
  using Rec = std::pair<K, V>;
  using Func = InPlaceMerge<V>;

  ReduceByKeyMergeDataset(Context* ctx, std::shared_ptr<Dataset<Rec>> parent,
                          Func f, double flopsPerMerge)
      : Dataset<Rec>(ctx, parent->numPartitions()),
        parent_(std::move(parent)),
        f_(std::move(f)),
        flopsPerMerge_(flopsPerMerge) {
    this->setOutputPartitioning(parent_->outputPartitioning());
  }

  void ensureReady() override { parent_->ensureReady(); }

 protected:
  Block<Rec> computePartition(std::size_t p, TaskContext& tc) override {
    Block<Rec> in = parent_->partition(p, tc);
    KeySlots<K> slots(in->size());
    std::vector<Rec> out;
    out.reserve(in->size());
    std::uint64_t merges = 0;
    for (const Rec& rec : *in) {
      const auto [slot, fresh] = slots.insert(rec.first);
      if (fresh) {
        out.push_back(rec);
      } else {
        f_(out[slot].second, rec.second);
        ++merges;
      }
    }
    tc.counters.recordsProcessed += in->size();
    tc.counters.recordsEmitted += out.size();
    tc.counters.flops += static_cast<std::uint64_t>(flopsPerMerge_ * merges);
    return makeBlock(std::move(out));
  }

 private:
  std::shared_ptr<Dataset<Rec>> parent_;
  Func f_;
  double flopsPerMerge_;
};

}  // namespace cstf::sparkle
