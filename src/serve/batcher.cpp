#include "serve/batcher.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "serve/sharded_engine.hpp"

namespace cstf::serve {

namespace {

void histogramJson(JsonWriter& w, const Histogram& h) {
  w.beginObject();
  w.kv("count", static_cast<std::uint64_t>(h.count()));
  w.kv("mean", h.mean());
  w.kv("p50", h.quantile(0.50));
  w.kv("p95", h.quantile(0.95));
  w.kv("p99", h.quantile(0.99));
  w.kv("max", h.max());
  w.endObject();
}

/// set_exception tolerant of promises the dispatcher already fulfilled
/// before dying mid-flush.
void failPromise(std::promise<Batcher::ResultPtr>& promise,
                 std::exception_ptr error) {
  try {
    promise.set_exception(std::move(error));
  } catch (const std::future_error&) {
  }
}

}  // namespace

std::string describeRequest(const TopKRequest& r) {
  std::string fixed;
  for (std::size_t i = 0; i < r.fixed.size(); ++i) {
    if (i > 0) fixed += ',';
    fixed += std::to_string(r.fixed[i]);
  }
  return strprintf("topk(mode=%d, k=%zu, fixed=[%s])", int(r.mode) + 1, r.k,
                   fixed.c_str());
}

std::string serveReportJson(const ServeStats& s, const ShardedStats* sharding,
                            const FreshnessStats* freshness) {
  JsonWriter w;
  w.beginObject();
  w.kv("schema", "cstf-serve-report-v1");
  w.kv("submitted", s.submitted);
  w.kv("completed", s.completed);
  w.kv("elapsedSec", s.elapsedSec);
  w.kv("qps", s.qps);
  w.key("shed");
  w.beginObject();
  w.kv("queueFull", s.shedQueueFull);
  w.kv("deadline", s.shedDeadline);
  w.kv("unavailable", s.shedUnavailable);
  w.kv("dispatcherDead", s.shedDispatcherDead);
  w.kv("total", s.shedTotal());
  w.endObject();
  w.kv("failed", s.failed);
  w.kv("dispatcherDead", s.dispatcherDead);
  w.key("cache");
  w.beginObject();
  w.kv("hits", s.cacheHits);
  w.kv("misses", s.cacheMisses);
  const std::uint64_t lookups = s.cacheHits + s.cacheMisses;
  w.kv("hitRate", lookups ? double(s.cacheHits) / double(lookups) : 0.0);
  w.kv("coalesced", s.coalesced);
  w.endObject();
  w.key("batches");
  w.beginObject();
  w.kv("count", s.batches);
  w.kv("flushFull", s.flushFull);
  w.kv("flushDeadline", s.flushDeadline);
  w.key("size");
  histogramJson(w, s.batchSizes);
  w.endObject();
  w.kv("reloads", s.reloads);
  w.key("model");
  w.beginObject();
  w.kv("version", s.modelVersion);
  w.kv("seq", s.modelSeq);
  w.endObject();
  w.key("latencyMicros");
  histogramJson(w, s.latencyMicros);
  if (s.sloP99TargetMicros > 0.0) {
    w.key("slo");
    w.beginObject();
    w.kv("p99TargetMicros", s.sloP99TargetMicros);
    w.kv("breaches", s.sloBreaches);
    w.kv("recoveries", s.sloRecoveries);
    w.kv("inBreach", s.sloInBreach);
    w.endObject();
  }
  if (sharding != nullptr) {
    w.key("sharding");
    w.beginObject();
    w.kv("shards", static_cast<std::uint64_t>(sharding->shards));
    w.kv("nodes", static_cast<std::uint64_t>(sharding->nodes));
    w.kv("replicas", static_cast<std::uint64_t>(sharding->totalReplicas));
    w.kv("deadNodes", static_cast<std::uint64_t>(sharding->deadNodes));
    w.kv("shardQueries", sharding->shardQueries);
    w.kv("failovers", sharding->failovers);
    w.kv("shedUnavailable", sharding->shedUnavailable);
    w.kv("nodesKilled", sharding->nodesKilled);
    w.endObject();
  }
  if (freshness != nullptr) {
    w.key("freshness");
    w.beginObject();
    w.kv("publishes", freshness->publishes);
    w.kv("deltasApplied", freshness->deltasApplied);
    w.kv("newestSeq", freshness->newestSeq);
    w.kv("stalenessSec", freshness->stalenessSec);
    w.kv("lastFitProbe", freshness->lastFitProbe);
    w.endObject();
  }
  w.endObject();
  return w.take();
}

Batcher::Batcher(std::shared_ptr<const TopKProvider> engine,
                 BatcherOptions opts, TraceRecorder& trace)
    : opts_(std::move(opts)),
      slo_(SloOptions{opts_.sloP99Micros}),
      trace_(trace),
      cache_(opts_.cacheCapacity),
      start_(std::chrono::steady_clock::now()),
      engine_(std::move(engine)) {
  CSTF_CHECK(engine_ != nullptr, "batcher needs an engine");
  CSTF_CHECK(opts_.maxBatch >= 1, "maxBatch must be >= 1");
  slo_.setCallback([this](const SloEvent& ev) {
    CSTF_LOG_WARN("serve SLO %s: window p99 %.0fus vs target %.0fus "
                  "(%llu samples)",
                  ev.breach ? "breach" : "recovered", ev.p99, ev.target,
                  static_cast<unsigned long long>(ev.windowCount));
    if (trace_.enabled()) {
      trace_.recordInstant(
          ev.breach ? "slo-breach" : "slo-recovery", "watchdog",
          {{"p99Micros", strprintf("%.1f", ev.p99)},
           {"targetMicros", strprintf("%.1f", ev.target)},
           {"windowCount", std::to_string(ev.windowCount)}});
    }
    (ev.breach ? sloBreaches_ : sloRecoveries_).add();
    sloInBreach_.set(ev.breach ? 1.0 : 0.0);
  });
  dispatcher_ = std::thread([this] { dispatchLoop(); });
}

bool Batcher::checkSlo() {
  if (!slo_.enabled()) return false;
  const bool breached = slo_.checkNow();
  sloWindowP99_.set(slo_.windowP99());
  return breached;
}

Batcher::~Batcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
}

std::future<Batcher::ResultPtr> Batcher::submit(TopKRequest req) {
  Pending p;
  p.req = std::move(req);
  p.enqueued = std::chrono::steady_clock::now();
  std::future<ResultPtr> fut = p.promise.get_future();
  bool shedFull = false;
  bool shedDead = false;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CSTF_CHECK(!stop_, "batcher is shutting down");
    if (dispatcherDead_) {
      shedDead = true;
    } else if (opts_.queueLimit > 0 && queue_.size() >= opts_.queueLimit) {
      shedFull = true;
    } else {
      queue_.push_back(std::move(p));
      depth = queue_.size();
    }
  }
  submitted_.add();
  if (shedFull || shedDead) {
    // Admission control / dead front door: refuse at the door with a typed
    // error instead of queueing work nobody will serve in time.
    (shedDead ? shedDispatcherDead_ : shedQueueFull_).add();
    const char* why = shedDead ? "dispatcher thread died; request refused"
                               : "admission queue full; request shed";
    failPromise(p.promise, std::make_exception_ptr(ShedError(
                               std::string(why) + ": " +
                               describeRequest(p.req))));
    return fut;
  }
  cv_.notify_all();
  queueDepth_.set(double(depth));
  return fut;
}

void Batcher::reload(std::shared_ptr<const TopKProvider> engine) {
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = modelSeq_;  // untagged swap keeps the previous tag
  }
  reload(std::move(engine), seq);
}

void Batcher::reload(std::shared_ptr<const TopKProvider> engine,
                     std::uint64_t modelSeq) {
  CSTF_CHECK(engine != nullptr, "cannot reload a null engine");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    engine_ = std::move(engine);
    ++version_;
    modelSeq_ = modelSeq;
    versionGauge_.set(double(version_));
    seqGauge_.set(double(modelSeq_));
  }
  // In-flight batches hold the old engine snapshot; the version bump keeps
  // their results out of the cache, so clearing here is race-free.
  cache_.clear();
  reloads_.add();
}

std::shared_ptr<const TopKProvider> Batcher::engine() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_;
}

ServeStats Batcher::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.modelVersion = version_;
    s.modelSeq = modelSeq_;
    s.dispatcherDead = dispatcherDead_;
  }
  s.submitted = submitted_.value();
  s.completed = completed_.value();
  s.shedQueueFull = shedQueueFull_.value();
  s.shedDeadline = shedDeadline_.value();
  s.shedUnavailable = shedUnavailable_.value();
  s.shedDispatcherDead = shedDispatcherDead_.value();
  s.failed = failed_.value();
  s.cacheHits = cacheHits_.value();
  s.cacheMisses = cacheMisses_.value();
  s.coalesced = coalesced_.value();
  s.batches = batches_.value();
  s.flushFull = flushFull_.value();
  s.flushDeadline = flushDeadline_.value();
  s.reloads = reloads_.value();
  s.latencyMicros = latencyMicros_.snapshot();
  s.batchSizes = batchSizes_.snapshot();
  s.elapsedSec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  s.qps = s.elapsedSec > 0.0 ? double(s.completed) / s.elapsedSec : 0.0;
  if (slo_.enabled()) {
    s.sloP99TargetMicros = opts_.sloP99Micros;
    s.sloBreaches = sloBreaches_.value();
    s.sloRecoveries = sloRecoveries_.value();
    s.sloInBreach = slo_.inBreach();
  }
  return s;
}

void Batcher::shedExpired(std::vector<Pending>& expired) {
  if (expired.empty()) return;
  // Commit the accounting before delivering any error: the moment a waiter
  // observes its DeadlineExceededError, stats() must already show the shed.
  shedDeadline_.add(expired.size());
  for (Pending& p : expired) {
    const double waited =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - p.enqueued)
            .count();
    failPromise(p.promise,
                std::make_exception_ptr(DeadlineExceededError(strprintf(
                    "deadline %lluus exceeded after %.0fus in queue: %s",
                    static_cast<unsigned long long>(opts_.deadlineMicros),
                    waited,
                    describeRequest(p.req).c_str()))));
  }
}

void Batcher::dispatchLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    // Let the batch fill, but never hold the oldest request past its
    // delay budget. Shutdown flushes immediately.
    const auto deadline =
        queue_.front().enqueued +
        std::chrono::microseconds(opts_.maxDelayMicros);
    while (!stop_ && queue_.size() < opts_.maxBatch &&
           cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
    const bool full = queue_.size() >= opts_.maxBatch;
    // Deadline-aware shedding at dequeue: a request whose deadline already
    // passed gets a typed error now instead of consuming batch capacity on
    // an answer nobody is waiting for.
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    batch.reserve(std::min(queue_.size(), opts_.maxBatch));
    const auto now = std::chrono::steady_clock::now();
    while (!queue_.empty() && batch.size() < opts_.maxBatch) {
      Pending p = std::move(queue_.front());
      queue_.pop_front();
      if (opts_.deadlineMicros > 0 &&
          now >= p.enqueued +
                     std::chrono::microseconds(opts_.deadlineMicros)) {
        expired.push_back(std::move(p));
      } else {
        batch.push_back(std::move(p));
      }
    }
    queueDepth_.set(double(queue_.size()));
    const std::shared_ptr<const TopKProvider> engine = engine_;
    const std::uint64_t version = version_;
    const std::uint64_t batchIndex = ++batchesDispatched_;
    lock.unlock();
    shedExpired(expired);
    std::exception_ptr fatal;
    try {
      if (opts_.dispatcherFaultHook) opts_.dispatcherFaultHook(batchIndex);
      if (!batch.empty()) processBatch(batch, engine, version, full);
      // Batch boundaries are the serving tier's fault-plan clock: a
      // scheduled node loss lands here, between batches.
      engine->noteBatchBoundary(batchIndex);
    } catch (...) {
      fatal = std::current_exception();
    }
    if (fatal) {
      // The dispatcher is dying. Close the door and commit the accounting
      // *before* delivering any error: the moment a waiter observes its
      // failure, a follow-up submit must already shed at the door and
      // stats() must already show the death. Then every in-flight and
      // queued waiter gets a typed error naming its request — no future
      // is ever abandoned to a broken_promise.
      std::deque<Pending> drained;
      {
        std::lock_guard<std::mutex> relock(mutex_);
        dispatcherDead_ = true;
        drained.swap(queue_);
      }
      const std::uint64_t failedNow = batch.size() + drained.size();
      failed_.add(failedNow);
      deadGauge_.set(1.0);
      for (Pending& p : batch) {
        failPromise(p.promise,
                    std::make_exception_ptr(DeadlineExceededError(
                        "dispatcher died mid-flush with request in batch: " +
                        describeRequest(p.req))));
      }
      for (Pending& p : drained) {
        failPromise(p.promise,
                    std::make_exception_ptr(DeadlineExceededError(
                        "dispatcher died with request still queued: " +
                        describeRequest(p.req))));
      }
      try {
        std::rethrow_exception(fatal);
      } catch (const std::exception& e) {
        CSTF_LOG_WARN("serve dispatcher died: %s (%llu waiters failed)",
                      e.what(),
                      static_cast<unsigned long long>(failedNow));
      } catch (...) {
        CSTF_LOG_WARN("serve dispatcher died (%llu waiters failed)",
                      static_cast<unsigned long long>(failedNow));
      }
      return;
    }
    lock.lock();
  }
}

void Batcher::processBatch(std::vector<Pending>& batch,
                           const std::shared_ptr<const TopKProvider>& engine,
                           std::uint64_t version, bool full) {
  TraceSpan span(trace_, "serve:batch", "serve");

  // Coalesce duplicates: one computation per distinct request.
  std::unordered_map<TopKRequest, std::vector<std::size_t>, TopKRequestHash>
      groups;
  groups.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    groups[batch[i].req].push_back(i);
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  struct Answer {
    ResultPtr result;
    std::exception_ptr error;
    const std::vector<std::size_t>* members;
  };
  std::vector<Answer> answers;
  answers.reserve(groups.size());
  for (auto& [req, members] : groups) {
    Answer ans;
    ans.members = &members;
    ans.result = cache_.get(req);
    if (ans.result) {
      ++hits;
    } else {
      ++misses;
      try {
        ans.result = std::make_shared<const TopKResult>(
            engine->topK(req.mode, req.fixed, req.k));
      } catch (...) {
        ans.error = std::current_exception();
      }
      if (ans.result && cache_.capacity() > 0) {
        // Drop the insert if a reload happened since this batch snapshot;
        // a result from the old engine must not survive into the new
        // cache generation.
        std::lock_guard<std::mutex> lock(mutex_);
        if (version_ == version) cache_.put(req, ans.result);
      }
    }
    answers.push_back(std::move(ans));
  }

  // Classify errored answers: a ShedError (every replica of a shard down)
  // is load shedding — counted, not a serving failure; anything else is.
  std::uint64_t shedUnavail = 0;
  std::uint64_t failedReqs = 0;
  for (const Answer& ans : answers) {
    if (!ans.error) continue;
    const std::uint64_t n = ans.members->size();
    try {
      std::rethrow_exception(ans.error);
    } catch (const ShedError&) {
      shedUnavail += n;
    } catch (...) {
      failedReqs += n;
    }
  }

  if (span.active()) {
    span.arg("requests", std::uint64_t(batch.size()));
    span.arg("unique", std::uint64_t(groups.size()));
    span.arg("cacheHits", hits);
  }

  // Account the batch before fulfilling any promise so that once every
  // client has its answer, stats() is guaranteed to have seen the batch
  // (submitted == completed after clients drain).
  const auto now = std::chrono::steady_clock::now();
  batches_.add();
  (full ? flushFull_ : flushDeadline_).add();
  completed_.add(batch.size());
  cacheHits_.add(hits);
  cacheMisses_.add(misses);
  shedUnavailable_.add(shedUnavail);
  failed_.add(failedReqs);
  coalesced_.add(batch.size() - groups.size());
  batchSizes_.record(double(batch.size()));
  const std::uint64_t totalHits = cacheHits_.value();
  const std::uint64_t lookups = totalHits + cacheMisses_.value();
  cacheHitRatio_.set(lookups ? double(totalHits) / double(lookups) : 0.0);
  for (const Pending& p : batch) {
    const double micros =
        std::chrono::duration<double, std::micro>(now - p.enqueued).count();
    latencyMicros_.record(micros);
    slo_.record(micros);
  }
  checkSlo();

  for (Answer& ans : answers) {
    for (const std::size_t i : *ans.members) {
      if (ans.error) {
        batch[i].promise.set_exception(ans.error);
      } else {
        batch[i].promise.set_value(ans.result);
      }
    }
  }
}

}  // namespace cstf::serve
