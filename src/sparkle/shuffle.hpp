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
//   4. records one StageMetrics entry (its tasks and per-node remote
//      bytes) in the stage log, which runs the cluster time model.
// Fetched buckets stay encoded: the task that reads a destination partition
// decodes it (Spark's ShuffledRDD.compute), so its records are allocated
// and freed on that task's thread, and the buckets return to the
// BufferPool when the dataset is destroyed.
//
// The join (HashJoinDataset) is then a *narrow* dataset over two
// co-partitioned shuffles — again mirroring Spark, where the two shuffle
// stages feed a result stage that performs the per-partition hash join.
// Every join is followed by a map, which runs inside the join's task: the
// join either updates its left records where the left shuffle's fresh
// decode lies, or emits what the map returns, and never builds a joined
// pair.
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

/// The keyed fold behind the map-side combine and the reduce-side merge:
/// appends to the empty `out` one record per key of `in`, in first-arrival
/// order. A key's first value v becomes (key, seed(v)); each later one
/// merges into it, merge(acc, v), in arrival order. Returns the number of
/// merges.
template <typename K, typename In, typename Out, typename Seed,
          typename Merge>
std::uint64_t foldByKey(const std::vector<In>& in, std::vector<Out>& out,
                        const Seed& seed, const Merge& merge) {
  CSTF_ASSERT(out.empty(), "foldByKey appends to an empty vector");
  KeySlots<K> slots(in.size());
  std::uint64_t merges = 0;
  for (const In& rec : in) {
    const auto [slot, fresh] = slots.insert(rec.first);
    if (fresh) {
      out.emplace_back(rec.first, seed(rec.second));
    } else {
      merge(out[slot].second, rec.second);
      ++merges;
    }
  }
  return merges;
}

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
    // Set when the node holding this map task's output died; the fetch
    // refuses to proceed until the task has been re-run.
    bool lost = false;

    /// Metered bytes of the block for destination q: its serde bytes,
    /// never how the transfer was physically performed, plus the
    /// per-record envelope and, when non-empty, the block framing.
    std::uint64_t blockBytes(std::size_t q, const ClusterConfig& cfg) const {
      const std::uint64_t records = bucketRecords[q];
      return buckets[q].size() + records * cfg.recordEnvelopeBytes +
             (records > 0 ? cfg.shuffleBlockOverheadBytes : 0);
    }
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

  /// One attempt of map task p: read the parent partition, convert and
  /// combine its values, and encode them into `out`'s buckets.
  void runMap(std::size_t p, std::size_t pOut, MapOutput& out,
              TaskContext& tc) {
    Block<In> in = parent_->partition(p, tc);
    const std::size_t n = in->size();
    // Reset fully: the task may be a retry, whose failed attempt's
    // buckets go back to the pool.
    for (auto& bucket : out.buckets) {
      this->context()->bufferPool().release(std::move(bucket));
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
    if (!combiner_) {
      for (const In& rec : *in) {
        combined.emplace_back(rec.first, create_(rec.second));
      }
    } else if (create_) {
      merges = foldByKey<K>(*in, combined, create_, combiner_);
    } else if constexpr (std::is_same_v<C, V>) {
      merges = foldByKey<K>(*in, combined, std::identity{}, combiner_);
    }
    tc.counters.recordsProcessed += n;
    tc.counters.flops +=
        static_cast<std::uint64_t>(combinerFlopsPerMerge_ * merges);
    encodeBuckets(combined, pOut, out);
    tc.counters.recordsEmitted += combined.size();
  }

  void materialize() {
    const auto t0 = std::chrono::steady_clock::now();
    Context* ctx = this->context();
    const ClusterConfig& cfg = ctx->config();
    const std::size_t pIn = parent_->numPartitions();
    const std::size_t pOut = partitioner_->numPartitions();
    StageMetrics m;
    m.stageId = ctx->metrics().nextStageId();
    m.kind = StageKind::kShuffle;
    m.shuffleOpId = shuffleOpId_;
    m.label = label_;
    TraceSpan stageSpan(ctx->trace(), "shuffle:" + label_, "stage");

    // ---- map side ----
    // A map task's shuffle output is metered with the formula the fetch
    // meters per (source, destination) block, so task bytes sum exactly to
    // the stage's remote+local total.
    std::vector<MapOutput> mapOut(pIn);
    m.tasks.resize(pIn);
    auto runMapTask = [&](std::size_t p) {
      m.tasks[p] = runTask(ctx, m.stageId, p, label_, [&](TaskContext& tc) {
        runMap(p, pOut, mapOut[p], tc);
        std::uint64_t bytesOut = 0;
        for (std::size_t q = 0; q < pOut; ++q) {
          bytesOut += mapOut[p].blockBytes(q, cfg);
        }
        return bytesOut;
      });
    };
    ctx->pool().parallelFor(pIn, runMapTask);

    // ---- stage boundary: correlated node-loss fault model ----
    // A node death here (between map completion and fetch) evicts every
    // cached block the dead node held and drops its map outputs; the fetch
    // below would hit FetchFailedError, so recovery re-runs exactly the
    // missing map tasks — recomputing evicted cache blocks from lineage —
    // until the outputs are whole or the attempt budget runs out.
    if (cfg.faults.enabled()) {
      const int maxAttempts = std::max(1, cfg.faults.maxStageAttempts);
      for (int attempt = 0;; ++attempt) {
        const bool lastAttempt = attempt + 1 >= maxAttempts;
        // Mirrors runTask: sub-1 rates skip the final attempt so jobs
        // complete; a rate >= 1 is a hard fault and may not.
        const bool allowRate = !lastAttempt || cfg.faults.nodeLossRate >= 1.0;
        const int deadNode =
            injectNodeLoss(cfg, m.stageId, attempt, allowRate);
        if (deadNode >= 0) {
          ++m.lostNodes;
          ctx->metrics().noteNodeLoss();
          const std::size_t evicted = ctx->evictCachedBlocksOnNode(deadNode);
          m.evictedCacheBlocks += evicted;
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
                 {"stage", std::to_string(m.stageId)},
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
            static_cast<unsigned long long>(m.stageId), deadNode));
        if (lastAttempt) {
          throw JobAbortedError(strprintf(
              "job aborted after %d stage attempt(s): %s", maxAttempts,
              fetchFailed.what()));
        }
        m.recoveryDelaySec += cfg.faults.stageRetryDelaySec;
        m.recomputedMapTasks += missing.size();
        ctx->metrics().noteRecomputedMapTasks(missing.size());
        ctx->pool().parallelFor(
            missing.size(), [&](std::size_t i) { runMapTask(missing[i]); });
        TraceRecorder& rec = ctx->trace();
        if (rec.enabled()) {
          rec.recordInstant(
              "stage-recovery:" + label_, "fault",
              {{"stage", std::to_string(m.stageId)},
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
    m.nodeBytesInRemote.assign(cfg.numNodes, 0);
    for (std::size_t q = 0; q < pOut; ++q) {
      const int dstNode = cfg.nodeOfPartition(q);
      for (std::size_t p = 0; p < pIn; ++p) {
        const std::uint64_t bytes = mapOut[p].blockBytes(q, cfg);
        if (cfg.nodeOfPartition(p) == dstNode) {
          m.shuffleBytesLocal += bytes;
        } else {
          m.shuffleBytesRemote += bytes;
          m.nodeBytesInRemote[dstNode] += bytes;
        }
        fetchedRecords_[q] += mapOut[p].bucketRecords[q];
        auto& bucket = mapOut[p].buckets[q];
        if (!bucket.empty()) fetched_[q].push_back(std::move(bucket));
      }
      m.shuffleRecords += fetchedRecords_[q];
    }
    // Per-destination record counts: the reduce-task record-skew profile
    // (hot keys show up here as one overloaded destination partition).
    m.reduceRecordsByPartition = fetchedRecords_;
    m.wallTimeSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (stageSpan.active()) {
      stageSpan.arg("tasks", std::uint64_t{pIn});
      stageSpan.arg("shuffleRecords", m.shuffleRecords);
      stageSpan.arg("shuffleBytesRemote", m.shuffleBytesRemote);
      stageSpan.arg("shuffleBytesLocal", m.shuffleBytesLocal);
    }
    ctx->metrics().record(std::move(m));
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

/// What a join calling f(rec, w) on its left records rec emits: the left
/// records themselves when f updates rec in place (returns void), else
/// what f returns.
template <typename K, typename V, typename W, typename F,
          typename R = std::invoke_result_t<F&, std::pair<K, V>&, const W&>>
using JoinOutput = std::conditional_t<std::is_void_v<R>, std::pair<K, V>, R>;

/// Inner hash join of two co-partitioned datasets. Narrow: partition p of
/// the result reads partition p of both sides, builds on the right and
/// probes with the left. It calls f(rec, w) once for each left record rec
/// and each right value w of rec's key, in left order and then right-side
/// arrival order; a left record without a match is dropped.
///  * If f returns void it updates rec in place (and may re-key it), and
///    the join emits the updated records. The left partition comes from
///    ownedPartition: the fresh decode of a shuffle is edited where it
///    lies, a cached or pre-partitioned left side is copied first, and
///    each further match of a duplicate right key edits its own copy.
///  * Otherwise the join emits what f returns.
/// Either way a task charges left + right + emitted records processed,
/// the emitted records, and `flopsPerRecord` flops per emitted record.
/// Like a map's, the output is not partitioned.
template <typename K, typename V, typename W, typename F>
class HashJoinDataset final : public Dataset<JoinOutput<K, V, W, F>> {
 public:
  using Rec = std::pair<K, V>;
  using Out = JoinOutput<K, V, W, F>;
  static constexpr bool kInPlace =
      std::is_void_v<std::invoke_result_t<F&, Rec&, const W&>>;

  HashJoinDataset(Context* ctx, std::shared_ptr<Dataset<Rec>> left,
                  std::shared_ptr<Dataset<std::pair<K, W>>> right, F f,
                  double flopsPerRecord)
      : Dataset<Out>(ctx, left->numPartitions()),
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
  Block<Out> computePartition(std::size_t p, TaskContext& tc) override {
    std::vector<Rec> owned;
    Block<Rec> shared;
    if constexpr (kInPlace) {
      owned = left_->ownedPartition(p, tc);
    } else {
      shared = left_->partition(p, tc);
    }
    const std::vector<Rec>& lhs = kInPlace ? owned : *shared;
    Block<std::pair<K, W>> rhs = right_->partition(p, tc);
    const JoinBuild<K> build(*rhs);
    const std::size_t inputRecords = lhs.size() + rhs->size();

    std::vector<Out> out;
    if constexpr (kInPlace) {
      if (build.uniqueKeys()) {
        // At most one output per left record: compact the matches forward.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < owned.size(); ++i) {
          const std::uint32_t r = build.first(owned[i].first);
          if (r == build.kNone) continue;
          if (kept != i) owned[kept] = std::move(owned[i]);
          f_(owned[kept], (*rhs)[r].second);
          ++kept;
        }
        owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(kept),
                    owned.end());
        out = std::move(owned);
      }
    }
    if (!kInPlace || !build.uniqueKeys()) {
      out.reserve(lhs.size());
      for (const Rec& rec : lhs) {
        for (std::uint32_t r = build.first(rec.first); r != build.kNone;
             r = build.next(r)) {
          if constexpr (kInPlace) {
            out.push_back(rec);
            f_(out.back(), (*rhs)[r].second);
          } else {
            out.push_back(f_(rec, (*rhs)[r].second));
          }
        }
      }
    }
    tc.counters.recordsProcessed += inputRecords + out.size();
    tc.counters.recordsEmitted += out.size();
    tc.counters.flops +=
        static_cast<std::uint64_t>(flopsPerRecord_ * out.size());
    return makeBlock(std::move(out));
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
    std::vector<Rec> out;
    out.reserve(in->size());
    const std::uint64_t merges = foldByKey<K>(*in, out, std::identity{}, f_);
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
