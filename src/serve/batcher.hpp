// Micro-batching admission layer in front of the query engine.
//
// Concurrent clients submit() top-k requests and get futures; a dispatcher
// thread coalesces the queue into batches — flushing when either maxBatch
// requests are pending (a "full" flush) or the oldest pending request has
// waited maxDelayMicros (a "deadline" flush, the latency SLO bound) — then
// answers each distinct request once per batch: duplicate in-flight
// requests share one computation, repeats across batches hit the LRU
// result cache. reload() swaps the engine for a retrained model and
// invalidates the cache atomically with respect to in-flight batches (a
// batch computed against the old engine can never poison the new cache).
//
// The batcher is also the serving tier's front door: admission control and
// load shedding keep overload from turning into unbounded latency.
// queueLimit bounds the pending queue — a submit against a full queue is
// refused with a typed ShedError before it queues. deadlineMicros gives
// every request the same deadline; a request still queued when it
// expires is shed at dequeue with a DeadlineExceededError naming it, so
// the batch computes only answers someone will still read. The same
// deadline bounds the waiter if the dispatcher thread itself dies
// mid-flush: every queued request is failed with a typed error instead of
// a silent broken_promise, and later submits are refused at the door.
// Every shed is counted (serve_shed_total by reason), never lost.
//
// Every counter, the per-request admission-to-completion latency and the
// per-batch size are counted once, in lock-free metrics::Owned instruments
// that also feed the `serve_*` series; stats() reads them back, and
// serveReportJson()
// renders the whole picture (qps, p50/p95/p99/max, batch-size
// distribution, cache hit rate, shed/failed accounting, optional sharding
// fabric state) as a cstf-serve-report-v1 JSON document. When tracing is
// enabled each dispatched batch records a "serve:batch" span with
// request/unique/hit counts.
#pragma once

#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hpp"
#include "common/metrics_registry.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "common/watchdog.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"

namespace cstf::serve {

struct ShardedStats;

struct TopKRequest {
  ModeId mode = 0;
  /// One index per mode; the entry at `mode` is ignored.
  std::vector<Index> fixed;
  std::size_t k = 10;

  friend bool operator==(const TopKRequest& a, const TopKRequest& b) {
    return a.mode == b.mode && a.k == b.k && a.fixed == b.fixed;
  }
};

struct TopKRequestHash {
  std::size_t operator()(const TopKRequest& r) const {
    std::uint64_t h = mix64(r.mode * 0x9e3779b97f4a7c15ULL + r.k);
    for (const Index i : r.fixed) h = mix64(h ^ i);
    return static_cast<std::size_t>(h);
  }
};

/// Human-readable request identity for typed shed/deadline errors, e.g.
/// "topk(mode=2, k=5, fixed=[3,0,7])".
std::string describeRequest(const TopKRequest& r);

struct BatcherOptions {
  /// Flush as soon as this many requests are pending.
  std::size_t maxBatch = 32;
  /// Flush when the oldest pending request has waited this long.
  std::uint64_t maxDelayMicros = 200;
  /// Admission control: pending requests allowed in the queue before
  /// submit() sheds with ShedError; 0 = unbounded (no admission control).
  std::size_t queueLimit = 0;
  /// Request deadline: a request still queued this long after admission
  /// is shed with DeadlineExceededError instead of being computed; 0
  /// disables.
  std::uint64_t deadlineMicros = 0;
  /// Result-cache entries (exact LRU capacity); 0 disables caching.
  std::size_t cacheCapacity = 4096;
  /// Serving SLO: p99 latency target in microseconds over a 200 ms sliding
  /// window; <= 0 disables the SLO watchdog.
  double sloP99Micros = 0.0;
  /// Live instrument sink (`serve_*` series); nullptr disables live
  /// metrics. Defaults to the process-global registry.
  metrics::Registry* liveMetrics = &metrics::globalRegistry();
  /// Test-only fault injection: called at the top of each dispatched batch
  /// (1-based index) before any promise is fulfilled; a throw simulates
  /// the dispatcher thread dying mid-flush.
  std::function<void(std::uint64_t)> dispatcherFaultHook;
};

/// Point-in-time snapshot of the batcher's counters.
struct ServeStats {
  std::uint64_t submitted = 0;
  /// Requests answered by a batch (with a value or the engine's error).
  std::uint64_t completed = 0;
  /// Refused at the door: admission queue at queueLimit.
  std::uint64_t shedQueueFull = 0;
  /// Dropped at dequeue: the request's deadline expired while queued.
  std::uint64_t shedDeadline = 0;
  /// Answered with ShedError: a required shard had no replica alive.
  std::uint64_t shedUnavailable = 0;
  /// Refused at the door after the dispatcher thread died.
  std::uint64_t shedDispatcherDead = 0;
  /// Answered with a non-shed error, or failed by dispatcher death.
  std::uint64_t failed = 0;
  /// The dispatcher thread died; all pending requests were failed with
  /// typed errors and new submits shed at the door.
  bool dispatcherDead = false;
  /// Per distinct request per batch: answered from cache / computed.
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  /// Duplicate requests that shared another request's computation within
  /// one batch.
  std::uint64_t coalesced = 0;
  std::uint64_t batches = 0;
  std::uint64_t flushFull = 0;
  std::uint64_t flushDeadline = 0;
  std::uint64_t reloads = 0;
  /// Which model is live: the engine-swap generation (bumped by every
  /// reload) and the producer-assigned tag of the loaded model (newest
  /// delta seq baked into it; 0 until a tagged reload). Before these,
  /// hot-swap visibility was log-scrape only.
  std::uint64_t modelVersion = 0;
  std::uint64_t modelSeq = 0;
  /// SLO watchdog state (all zero when the watchdog is disabled).
  double sloP99TargetMicros = 0.0;
  std::uint64_t sloBreaches = 0;
  std::uint64_t sloRecoveries = 0;
  bool sloInBreach = false;
  double elapsedSec = 0.0;
  /// completed / elapsedSec.
  double qps = 0.0;
  /// Admission-to-completion latency per request, microseconds.
  Histogram latencyMicros;
  /// Requests per dispatched batch.
  Histogram batchSizes;

  std::uint64_t shedTotal() const {
    return shedQueueFull + shedDeadline + shedUnavailable +
           shedDispatcherDead;
  }
};

/// Freshness SLO snapshot of the streaming publisher feeding this batcher
/// (stream/publisher.hpp fills one in): how many model publishes happened,
/// what the live model has absorbed, and how stale it is now.
struct FreshnessStats {
  std::uint64_t publishes = 0;
  /// Delta batches the online updater has applied.
  std::uint64_t deltasApplied = 0;
  /// Newest delta seq contained in the live (published) model.
  std::uint64_t newestSeq = 0;
  /// now - creation time of that delta, seconds; NaN before any publish.
  double stalenessSec = std::numeric_limits<double>::quiet_NaN();
  /// Last exact-fit probe of the online model; NaN if none ran.
  double lastFitProbe = std::numeric_limits<double>::quiet_NaN();
};

/// Render `s` as a cstf-serve-report-v1 JSON document; `sharding`, when
/// non-null, adds the sharded fabric's state (shards, replicas, failovers);
/// `freshness`, when non-null, adds the streaming-publisher SLO object.
std::string serveReportJson(const ServeStats& s,
                            const ShardedStats* sharding = nullptr,
                            const FreshnessStats* freshness = nullptr);

class Batcher {
 public:
  using ResultPtr = std::shared_ptr<const TopKResult>;

  Batcher(std::shared_ptr<const TopKProvider> engine,
          BatcherOptions opts = {}, TraceRecorder& trace = globalTrace());
  /// Drains every pending request before returning.
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueue a request; the future resolves when its batch completes (or
  /// carries the engine's exception for an invalid request). A request
  /// refused by admission control resolves immediately with ShedError; one
  /// whose deadline expires while queued resolves with
  /// DeadlineExceededError naming it.
  std::future<ResultPtr> submit(TopKRequest req);

  /// Swap in a retrained model and invalidate the cache. Requests already
  /// admitted may still be answered by the previous engine; results they
  /// compute are not cached.
  void reload(std::shared_ptr<const TopKProvider> engine);
  /// Same, tagging the swap with the model's seq (the newest delta seq a
  /// published snapshot contains) so stats()/the report can say *what*
  /// is live, not just that a swap happened.
  void reload(std::shared_ptr<const TopKProvider> engine,
              std::uint64_t modelSeq);

  std::shared_ptr<const TopKProvider> engine() const;
  ServeStats stats() const;

  /// Evaluate the SLO watchdog now (the dispatcher also evaluates it after
  /// every batch). Call from the heartbeat so a drained window is noticed
  /// — that is how the breach -> recovery transition fires once traffic
  /// stops. Returns true while in breach; false when disabled.
  bool checkSlo();
  const SloWatchdog& slo() const { return slo_; }

 private:
  struct Pending {
    TopKRequest req;
    std::promise<ResultPtr> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void dispatchLoop();
  void processBatch(std::vector<Pending>& batch,
                    const std::shared_ptr<const TopKProvider>& engine,
                    std::uint64_t version, bool full);
  void shedExpired(std::vector<Pending>& expired);

  const BatcherOptions opts_;
  // Each fact stats() reports is counted once, by one of these; each also
  // feeds its `serve_*` series when opts_.liveMetrics is set.
  metrics::OwnedCounter submitted_{opts_.liveMetrics,
                                   "serve_requests_submitted_total"};
  metrics::OwnedCounter completed_{opts_.liveMetrics,
                                   "serve_requests_completed_total"};
  metrics::OwnedCounter batches_{opts_.liveMetrics, "serve_batches_total"};
  metrics::OwnedCounter flushFull_{opts_.liveMetrics,
                                   "serve_batch_flushes_total",
                                   {{"reason", "full"}}};
  metrics::OwnedCounter flushDeadline_{opts_.liveMetrics,
                                       "serve_batch_flushes_total",
                                       {{"reason", "deadline"}}};
  metrics::OwnedCounter shedQueueFull_{
      opts_.liveMetrics, "serve_shed_total", {{"reason", "queue_full"}}};
  metrics::OwnedCounter shedDeadline_{
      opts_.liveMetrics, "serve_shed_total", {{"reason", "deadline"}}};
  metrics::OwnedCounter shedUnavailable_{
      opts_.liveMetrics, "serve_shed_total", {{"reason", "unavailable"}}};
  metrics::OwnedCounter shedDispatcherDead_{
      opts_.liveMetrics, "serve_shed_total", {{"reason", "dispatcher_dead"}}};
  metrics::OwnedCounter failed_{opts_.liveMetrics, "serve_failed_total"};
  metrics::OwnedCounter cacheHits_{opts_.liveMetrics,
                                   "serve_cache_hits_total"};
  metrics::OwnedCounter cacheMisses_{opts_.liveMetrics,
                                     "serve_cache_misses_total"};
  metrics::OwnedCounter coalesced_{opts_.liveMetrics,
                                   "serve_coalesced_total"};
  metrics::OwnedCounter reloads_{opts_.liveMetrics, "serve_reloads_total"};
  metrics::OwnedCounter sloBreaches_{opts_.liveMetrics,
                                     "serve_slo_breaches_total"};
  metrics::OwnedCounter sloRecoveries_{opts_.liveMetrics,
                                       "serve_slo_recoveries_total"};
  metrics::OwnedHistogram latencyMicros_{opts_.liveMetrics,
                                         "serve_latency_micros"};
  metrics::OwnedHistogram batchSizes_{opts_.liveMetrics, "serve_batch_size"};
  metrics::OwnedGauge queueDepth_{opts_.liveMetrics, "serve_queue_depth"};
  metrics::OwnedGauge versionGauge_{opts_.liveMetrics,
                                    "serve_engine_version"};
  metrics::OwnedGauge seqGauge_{opts_.liveMetrics, "serve_model_seq"};
  metrics::OwnedGauge cacheHitRatio_{opts_.liveMetrics,
                                     "serve_cache_hit_ratio"};
  metrics::OwnedGauge sloInBreach_{opts_.liveMetrics, "serve_slo_in_breach"};
  metrics::OwnedGauge sloWindowP99_{opts_.liveMetrics,
                                    "serve_slo_window_p99_micros"};
  metrics::OwnedGauge deadGauge_{opts_.liveMetrics, "serve_dispatcher_dead"};

  SloWatchdog slo_;
  TraceRecorder& trace_;
  LruCache<TopKRequest, TopKResult, TopKRequestHash> cache_;
  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;  // queue + engine + version + stop/dead flags
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::shared_ptr<const TopKProvider> engine_;
  std::uint64_t version_ = 0;
  std::uint64_t modelSeq_ = 0;
  std::uint64_t batchesDispatched_ = 0;
  bool stop_ = false;
  bool dispatcherDead_ = false;

  std::thread dispatcher_;
};

}  // namespace cstf::serve
