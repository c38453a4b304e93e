// Micro-batcher: full-batch and deadline flushes, duplicate coalescing,
// cross-batch caching, reload invalidation, error propagation, admission
// control and deadline shedding, dispatcher-death draining, and
// concurrency/chaos stresses (including a mid-batch shard kill) that TSan
// watches in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics_registry.hpp"
#include "common/rng.hpp"
#include "serve/batcher.hpp"
#include "serve/sharded_engine.hpp"

namespace cstf::serve {
namespace {

CpModel randomModel(std::vector<Index> dims, std::size_t rank,
                    std::uint64_t seed) {
  CpModel m;
  m.rank = rank;
  m.dims = std::move(dims);
  Pcg32 rng(seed);
  m.lambda.resize(rank);
  for (auto& l : m.lambda) l = rng.nextDouble(0.5, 2.0);
  for (const Index d : m.dims) {
    la::Matrix f(d, rank);
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t r = 0; r < rank; ++r) f(i, r) = rng.nextGaussian();
    }
    m.factors.push_back(std::move(f));
  }
  return m;
}

std::shared_ptr<const Engine> makeEngine(std::uint64_t seed) {
  return std::make_shared<const Engine>(randomModel({50, 20, 20}, 3, seed),
                                        2);
}

TopKRequest req(Index j, Index k, std::size_t topk = 5) {
  TopKRequest r;
  r.mode = 0;
  r.fixed = {0, j, k};
  r.k = topk;
  return r;
}

/// One ServeStats count and the live series that exports it.
struct SeriesCount {
  std::string name;
  metrics::Labels labels;
  std::uint64_t value;
  bool histogram = false;
};

std::vector<SeriesCount> seriesOf(const ServeStats& s) {
  return {
      {"serve_requests_submitted_total", {}, s.submitted},
      {"serve_requests_completed_total", {}, s.completed},
      {"serve_batches_total", {}, s.batches},
      {"serve_batch_flushes_total", {{"reason", "full"}}, s.flushFull},
      {"serve_batch_flushes_total", {{"reason", "deadline"}},
       s.flushDeadline},
      {"serve_shed_total", {{"reason", "queue_full"}}, s.shedQueueFull},
      {"serve_shed_total", {{"reason", "deadline"}}, s.shedDeadline},
      {"serve_shed_total", {{"reason", "unavailable"}}, s.shedUnavailable},
      {"serve_shed_total", {{"reason", "dispatcher_dead"}},
       s.shedDispatcherDead},
      {"serve_failed_total", {}, s.failed},
      {"serve_cache_hits_total", {}, s.cacheHits},
      {"serve_cache_misses_total", {}, s.cacheMisses},
      {"serve_coalesced_total", {}, s.coalesced},
      {"serve_reloads_total", {}, s.reloads},
      {"serve_slo_breaches_total", {}, s.sloBreaches},
      {"serve_slo_recoveries_total", {}, s.sloRecoveries},
      {"serve_latency_micros", {}, s.latencyMicros.count(), true},
      {"serve_batch_size", {}, s.batchSizes.count(), true},
  };
}

std::uint64_t seriesValue(metrics::Registry& reg, const SeriesCount& c) {
  return c.histogram ? reg.histogram(c.name, c.labels).count()
                     : reg.counter(c.name, c.labels).value();
}

/// Every count in `expected` equals its series in `reg` exactly.
void expectSeriesEqual(metrics::Registry& reg,
                       const std::vector<SeriesCount>& expected) {
  for (const SeriesCount& c : expected) {
    const std::string label =
        c.labels.empty() ? "" : c.labels[0].first + "=" + c.labels[0].second;
    EXPECT_EQ(seriesValue(reg, c), c.value) << c.name << " " << label;
  }
}

/// Four clients drive `b` through the accounting paths: cache hits and
/// misses, coalesced duplicates, invalid requests, admission-queue sheds
/// and a reload. (ExpiredRequestsAreShedAtDequeueWithTypedError covers the
/// deadline shed and its series.)
void driveFourClients(Batcher& b) {
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&b, t] {
      Pcg32 rng(500 + t);
      for (int round = 0; round < 25; ++round) {
        std::vector<std::future<Batcher::ResultPtr>> burst;
        for (int i = 0; i < 8; ++i) {
          const Index j = (i == 7) ? 1000 : rng.nextBounded(8);
          burst.push_back(b.submit(req(j, rng.nextBounded(4))));
        }
        for (auto& f : burst) {
          try {
            f.get();
          } catch (const Error&) {
            // Shed or invalid: counted by the batcher, checked below.
          }
        }
      }
    });
  }
  b.reload(makeEngine(42));
  for (auto& c : clients) c.join();
}

TEST(Batcher, FullBatchFlushesWithoutWaitingForTheDeadline) {
  BatcherOptions opts;
  opts.maxBatch = 4;
  opts.maxDelayMicros = 10'000'000;  // the deadline never fires in-test
  Batcher b(makeEngine(1), opts);
  std::vector<std::future<Batcher::ResultPtr>> futs;
  for (Index i = 0; i < 4; ++i) futs.push_back(b.submit(req(i, i)));
  for (auto& f : futs) ASSERT_NE(f.get(), nullptr);
  const ServeStats s = b.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.flushFull, 1u);
  EXPECT_EQ(s.flushDeadline, 0u);
  EXPECT_EQ(s.batchSizes.max(), 4.0);
}

TEST(Batcher, DeadlineFlushesAPartialBatch) {
  BatcherOptions opts;
  opts.maxBatch = 100;
  opts.maxDelayMicros = 500;
  Batcher b(makeEngine(2), opts);
  auto f1 = b.submit(req(1, 1));
  auto f2 = b.submit(req(2, 2));
  ASSERT_NE(f1.get(), nullptr);
  ASSERT_NE(f2.get(), nullptr);
  const ServeStats s = b.stats();
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.flushFull, 0u);
  EXPECT_GE(s.flushDeadline, 1u);
}

TEST(Batcher, DuplicatesWithinABatchShareOneComputation) {
  BatcherOptions opts;
  opts.maxBatch = 4;
  opts.maxDelayMicros = 10'000'000;
  Batcher b(makeEngine(3), opts);
  std::vector<std::future<Batcher::ResultPtr>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(b.submit(req(7, 7)));
  std::vector<Batcher::ResultPtr> results;
  for (auto& f : futs) results.push_back(f.get());
  // One computation, shared by pointer.
  for (const auto& r : results) EXPECT_EQ(r, results[0]);
  const ServeStats s = b.stats();
  EXPECT_EQ(s.coalesced, 3u);
  EXPECT_EQ(s.cacheMisses, 1u);
  EXPECT_EQ(s.cacheHits, 0u);
}

TEST(Batcher, RepeatsAcrossBatchesHitTheCache) {
  BatcherOptions opts;
  opts.maxBatch = 1;  // every submit is its own batch
  Batcher b(makeEngine(4), opts);
  const auto first = b.submit(req(9, 3)).get();
  const auto second = b.submit(req(9, 3)).get();
  EXPECT_EQ(first, second);  // served from cache: the same object
  const ServeStats s = b.stats();
  EXPECT_EQ(s.cacheMisses, 1u);
  EXPECT_EQ(s.cacheHits, 1u);
}

TEST(Batcher, CacheCapacityZeroDisablesCaching) {
  BatcherOptions opts;
  opts.maxBatch = 1;
  opts.cacheCapacity = 0;
  Batcher b(makeEngine(5), opts);
  const auto first = b.submit(req(9, 3)).get();
  const auto second = b.submit(req(9, 3)).get();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first, second);
  EXPECT_EQ(first->entries, second->entries);
  EXPECT_EQ(b.stats().cacheHits, 0u);
}

TEST(Batcher, ReloadSwapsTheEngineAndInvalidatesTheCache) {
  BatcherOptions opts;
  opts.maxBatch = 1;
  Batcher b(makeEngine(6), opts);
  const auto before = b.submit(req(4, 4)).get();

  const auto fresh = makeEngine(777);  // different factors
  b.reload(fresh);
  EXPECT_EQ(b.engine(), fresh);

  const auto after = b.submit(req(4, 4)).get();
  EXPECT_NE(before, after);  // cache generation flushed
  // Different model, different scores.
  EXPECT_NE(before->entries, after->entries);
  const ServeStats s = b.stats();
  EXPECT_EQ(s.reloads, 1u);
  EXPECT_EQ(s.cacheHits, 0u);
  EXPECT_EQ(s.cacheMisses, 2u);
}

TEST(Batcher, InvalidRequestsFailTheirFutureOnly) {
  BatcherOptions opts;
  opts.maxBatch = 2;
  opts.maxDelayMicros = 10'000'000;
  Batcher b(makeEngine(7), opts);
  auto bad = b.submit(req(1000, 0));  // fixed index out of range
  auto good = b.submit(req(1, 1));
  EXPECT_THROW(bad.get(), Error);
  ASSERT_NE(good.get(), nullptr);
  EXPECT_EQ(b.stats().completed, 2u);
}

TEST(Batcher, ReportRendersTheStatsSchema) {
  BatcherOptions opts;
  opts.maxBatch = 2;
  opts.maxDelayMicros = 100;
  Batcher b(makeEngine(8), opts);
  b.submit(req(1, 2)).get();
  b.submit(req(1, 2)).get();
  const std::string json = serveReportJson(b.stats());
  EXPECT_NE(json.find("cstf-serve-report-v1"), std::string::npos);
  EXPECT_NE(json.find("\"qps\""), std::string::npos);
  EXPECT_NE(json.find("\"hitRate\""), std::string::npos);
  EXPECT_NE(json.find("\"latencyMicros\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Batcher, PendingRequestsDrainOnShutdown) {
  std::vector<std::future<Batcher::ResultPtr>> futs;
  {
    BatcherOptions opts;
    opts.maxBatch = 1000;            // never fills
    opts.maxDelayMicros = 5'000'000;  // deadline far away
    Batcher b(makeEngine(9), opts);
    for (Index i = 0; i < 8; ++i) futs.push_back(b.submit(req(i, i)));
    // Destructor must flush the queue rather than abandon the promises.
  }
  for (auto& f : futs) ASSERT_NE(f.get(), nullptr);
}

TEST(Batcher, FullAdmissionQueueShedsAtTheDoor) {
  BatcherOptions opts;
  opts.maxBatch = 100;              // never fills in-test
  opts.maxDelayMicros = 5'000'000;  // requests sit in the queue
  opts.queueLimit = 2;
  Batcher b(makeEngine(20), opts);
  auto f1 = b.submit(req(1, 1));
  auto f2 = b.submit(req(2, 2));
  auto shed = b.submit(req(3, 3));  // queue at limit: refused immediately
  try {
    shed.get();
    FAIL() << "expected ShedError";
  } catch (const ShedError& e) {
    EXPECT_NE(std::string(e.what()).find("admission queue full"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("topk(mode=1"), std::string::npos);
  }
  const ServeStats s = b.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.shedQueueFull, 1u);
}

TEST(Batcher, ExpiredRequestsAreShedAtDequeueWithTypedError) {
  BatcherOptions opts;
  opts.maxBatch = 100;
  opts.maxDelayMicros = 20'000;  // flush happens well past the deadline
  opts.deadlineMicros = 500;
  metrics::Registry reg;
  opts.liveMetrics = &reg;
  Batcher b(makeEngine(21), opts);
  auto f1 = b.submit(req(1, 1));
  auto f2 = b.submit(req(2, 2));
  try {
    f1.get();
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("topk(mode=1"), std::string::npos);
  }
  EXPECT_THROW(f2.get(), DeadlineExceededError);
  const ServeStats s = b.stats();
  EXPECT_EQ(s.shedDeadline, 2u);
  EXPECT_EQ(s.completed, 0u);
  expectSeriesEqual(reg, seriesOf(s));
}

TEST(Batcher, DispatcherDeathFailsEveryWaiterWithATypedError) {
  BatcherOptions opts;
  opts.maxBatch = 4;
  opts.maxDelayMicros = 10'000'000;
  opts.dispatcherFaultHook = [](std::uint64_t) {
    throw std::runtime_error("injected dispatcher crash");
  };
  Batcher b(makeEngine(23), opts);
  std::vector<std::future<Batcher::ResultPtr>> futs;
  for (Index i = 0; i < 4; ++i) futs.push_back(b.submit(req(i, i)));
  for (auto& f : futs) {
    // Never a broken_promise: each waiter gets the typed error, and the
    // message names its request.
    try {
      f.get();
      FAIL() << "expected DeadlineExceededError";
    } catch (const DeadlineExceededError& e) {
      EXPECT_NE(std::string(e.what()).find("dispatcher died"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("topk(mode=1"),
                std::string::npos);
    }
  }
  // The front door stays closed afterwards: submits shed immediately.
  EXPECT_THROW(b.submit(req(9, 9)).get(), ShedError);
  const ServeStats s = b.stats();
  EXPECT_TRUE(s.dispatcherDead);
  EXPECT_EQ(s.failed, 4u);
  EXPECT_EQ(s.shedDispatcherDead, 1u);
  EXPECT_EQ(s.completed, 0u);
}

TEST(Batcher, ShardLossMidStreamNeverLosesOrCorruptsAQuery) {
  // Chaos: clients hammer a sharded, replicated provider while a node
  // dies mid-stream. Every in-flight query must either complete with the
  // exact single-engine answer (failover) or shed with a typed, counted
  // error — never hang, never return a wrong result. Two inputs:
  //  - closed loop, node killed from outside after 3 ms: nothing sheds;
  //  - open-loop overload against an 8-deep admission queue, node killed
  //    by the fault plan after batch 1: the overflow sheds at the door,
  //    nothing fails, and the batches after the kill fail over.
  constexpr int kClients = 3;
  constexpr int kPerClient = 150;
  constexpr int kTotal = kClients * kPerClient;
  for (const bool overload : {false, true}) {
    SCOPED_TRACE(overload ? "open-loop overload, scheduled kill"
                          : "closed loop, external kill");
    const CpModel model = randomModel({50, 20, 20}, 3, 30);
    const Engine reference(CpModel(model), 2);
    ShardedEngineOptions so;
    so.numShards = 3;
    so.numReplicas = 2;
    so.threads = 2;
    so.liveMetrics = nullptr;
    if (overload) so.faults.schedule = {{1, 1}};
    auto sharded = std::make_shared<const ShardedEngine>(CpModel(model), so);

    std::atomic<int> attempted{0};
    BatcherOptions opts;
    opts.maxBatch = overload ? 4 : 8;
    opts.maxDelayMicros = 100;
    opts.cacheCapacity = 0;  // every query exercises the fabric
    opts.liveMetrics = nullptr;
    if (overload) {
      opts.queueLimit = 8;
      // Hold the first batch until every client has submitted: the queue
      // sits at its limit meanwhile, so the overflow sheds deterministically.
      opts.dispatcherFaultHook = [&attempted](std::uint64_t batch) {
        while (batch == 1 && attempted.load() < kTotal) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      };
    }
    Batcher b(sharded, opts);

    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> shed{0};
    auto settle = [&](std::future<Batcher::ResultPtr> f) {
      try {
        if (f.get() != nullptr) ok.fetch_add(1);
      } catch (const ShedError&) {
        shed.fetch_add(1);
      }
    };
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        Pcg32 rng(3000 + t);
        std::vector<std::future<Batcher::ResultPtr>> inflight;
        for (int i = 0; i < kPerClient; ++i) {
          TopKRequest r = req(rng.nextBounded(20), rng.nextBounded(20));
          auto f = b.submit(std::move(r));
          attempted.fetch_add(1);
          if (overload) {
            inflight.push_back(std::move(f));
          } else {
            settle(std::move(f));
          }
        }
        for (auto& f : inflight) settle(std::move(f));
      });
    }
    std::thread killer;
    if (!overload) {
      killer = std::thread([&sharded] {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        sharded->killNode(1);
      });
    }
    for (auto& c : clients) c.join();
    if (killer.joinable()) killer.join();

    const ServeStats s = b.stats();
    EXPECT_EQ(ok.load() + shed.load(), std::uint64_t(kTotal));
    EXPECT_EQ(s.submitted, std::uint64_t(kTotal));
    EXPECT_EQ(s.failed, 0u);
    // Replication factor 2 with a single node loss: no shard goes dark.
    EXPECT_EQ(s.shedUnavailable, 0u);
    if (overload) {
      EXPECT_GT(shed.load(), 0u);
      EXPECT_EQ(s.shedQueueFull, shed.load());
      EXPECT_EQ(sharded->stats().nodesKilled, 1u);
      EXPECT_GE(sharded->stats().failovers, 1u)
          << "batches after the scheduled kill must fail over";
    } else {
      EXPECT_EQ(shed.load(), 0u);
    }
    // Spot-check correctness after the loss: sharded answers (via
    // failover) still match the reference engine bit for bit.
    for (Index j = 0; j < 10; ++j) {
      const TopKRequest r = req(j, j);
      EXPECT_EQ(b.submit(r).get()->entries,
                reference.topK(r.mode, r.fixed, r.k).entries);
    }
  }
}

TEST(Batcher, UnreplicatedShardLossIsCountedShedNotFailure) {
  const CpModel model = randomModel({50, 20, 20}, 3, 31);
  ShardedEngineOptions so;
  so.numShards = 3;
  so.numReplicas = 1;
  so.threads = 1;
  so.liveMetrics = nullptr;
  auto sharded = std::make_shared<const ShardedEngine>(CpModel(model), so);

  BatcherOptions opts;
  opts.maxBatch = 4;
  opts.maxDelayMicros = 100;
  opts.cacheCapacity = 0;
  opts.liveMetrics = nullptr;
  Batcher b(sharded, opts);

  ASSERT_NE(b.submit(req(1, 1)).get(), nullptr);
  sharded->killNode(1);
  // Candidate scans scatter to every shard, so queries now shed — with a
  // typed error and an accurate count, not a failure or a lost future.
  std::uint64_t shed = 0;
  for (Index j = 0; j < 5; ++j) {
    try {
      b.submit(req(j, j)).get();
    } catch (const ShedError&) {
      ++shed;
    }
  }
  const ServeStats s = b.stats();
  EXPECT_EQ(shed, 5u);
  EXPECT_EQ(s.shedUnavailable, 5u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed, 6u);  // answered (value or typed shed), never lost
}

TEST(Batcher, ConcurrentClientsAndReloadsStayCoherent) {
  BatcherOptions opts;
  opts.maxBatch = 8;
  opts.maxDelayMicros = 100;
  Batcher b(makeEngine(10), opts);

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&b, t] {
      Pcg32 rng(1000 + t);
      for (int i = 0; i < 200; ++i) {
        const auto r = b.submit(req(rng.nextBounded(20),
                                    rng.nextBounded(20)))
                           .get();
        ASSERT_NE(r, nullptr);
        ASSERT_LE(r->entries.size(), 5u);
      }
    });
  }
  std::thread reloader([&b] {
    for (int i = 0; i < 5; ++i) {
      b.reload(makeEngine(2000 + i));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& c : clients) c.join();
  reloader.join();

  const ServeStats s = b.stats();
  EXPECT_EQ(s.submitted, 4u * 200u);
  EXPECT_EQ(s.completed, 4u * 200u);
  EXPECT_EQ(s.reloads, 5u);
  EXPECT_EQ(s.latencyMicros.count(), 4u * 200u);
}

TEST(Batcher, StatsAgreeExactlyWithTheLiveSeries) {
  metrics::Registry reg;
  BatcherOptions opts;
  opts.maxBatch = 8;
  opts.maxDelayMicros = 100;
  opts.queueLimit = 16;
  opts.cacheCapacity = 16;
  opts.sloP99Micros = 1.0;  // unattainable: breaches under load
  opts.liveMetrics = &reg;
  Batcher b(makeEngine(40), opts);
  driveFourClients(b);
  // Drain the SLO window so the recovery transition fires too.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int>(SloWatchdog::windowMs()) + 50));
  b.checkSlo();

  const ServeStats s = b.stats();
  EXPECT_EQ(s.submitted, 4u * 25u * 8u);
  EXPECT_EQ(s.submitted, s.completed + s.shedQueueFull + s.shedDeadline);
  EXPECT_GT(s.failed, 0u);
  EXPECT_GT(s.cacheHits, 0u);
  EXPECT_EQ(s.reloads, 1u);
  expectSeriesEqual(reg, seriesOf(s));
}

TEST(Batcher, SharedRegistryKeepsPerInstanceStatsAndSumsTheSeries) {
  metrics::Registry reg;
  BatcherOptions opts;
  opts.maxBatch = 4;
  opts.maxDelayMicros = 100;
  opts.liveMetrics = &reg;
  Batcher keep(makeEngine(41), opts);
  std::vector<SeriesCount> sum;
  {
    Batcher gone(makeEngine(42), opts);
    driveFourClients(gone);
    for (Index i = 0; i < 5; ++i) ASSERT_NE(keep.submit(req(i, i)).get(), nullptr);

    const ServeStats a = gone.stats();
    const ServeStats k = keep.stats();
    EXPECT_EQ(a.submitted, 4u * 25u * 8u);
    EXPECT_EQ(k.submitted, 5u);
    EXPECT_EQ(k.completed, 5u);
    EXPECT_EQ(k.reloads, 0u);
    sum = seriesOf(a);
    const std::vector<SeriesCount> mine = seriesOf(k);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i].value += mine[i].value;
    expectSeriesEqual(reg, sum);
  }
  // The series belong to the registry: destroying a batcher lowers none.
  expectSeriesEqual(reg, sum);
  EXPECT_EQ(keep.stats().submitted, 5u);
}

}  // namespace
}  // namespace cstf::serve
