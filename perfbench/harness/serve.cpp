// Serving workloads. Set-up (repeated five times, the last copy kept):
// generate delicious3d-s, train a rank-16 model with the broadcast + CSF
// path, save and reload it, and build the engine.
//
//   serve-stream   one Engine behind a Batcher with the default 4096-entry
//                  cache; an open-loop generator sends top-k queries at a
//                  fixed rate while a producer appends delta batches to a
//                  DeltaLog on a fixed schedule and a follower applies each
//                  with OnlineUpdater (ALS) and hot-swaps it in through
//                  ModelPublisher. The model is trained on the 75% base
//                  split; the deltas are the other 25%.
//   serve-sharded  a ShardedEngine (2 shards x 2 replicas, one scatter
//                  worker) behind a Batcher with the cache off.
//
// Both send the same open-loop request mix at the same rate: top-10 along
// mode 1 over a universe of 100k tuples with Zipf(1.1) popularity, timed
// from each query's due time. The rate leaves most of the host idle, so
// latency is set by the batcher's deadline flush and the scan rather than
// by queueing. On a shared host a closed loop's throughput followed other
// tenants' CPU steal instead (35k to 7k qps between runs of the same
// code), and so did the median latency of an 8k/s open loop. Base and deltas are split in
// memory with tensor::splitIntoStream, because a .tns file does not keep
// the declared dims a delta must match.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "common/error.hpp"
#include "common/metrics_registry.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "harness.hpp"
#include "measure.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/model.hpp"
#include "serve/sharded_engine.hpp"
#include "sparkle/context.hpp"
#include "stream/delta_log.hpp"
#include "stream/online_updater.hpp"
#include "stream/publisher.hpp"
#include "tensor/delta.hpp"

namespace perfbench {

using namespace cstf;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupReps = 5;
constexpr std::size_t kUniverse = 100000;
constexpr double kZipf = 1.1;
constexpr std::size_t kTopK = 10;
constexpr ModeId kQueryMode = 1;
/// Open-loop arrival rate of both workloads.
constexpr double kArrivalPerSec = 2000.0;
/// serve-stream: the delta schedule and the result cache.
constexpr std::size_t kDeltaBatches = 50;
constexpr double kDeltaFraction = 0.25;
constexpr std::size_t kStreamCache = 4096;
/// Scan threads of each serve-stream Engine. One per engine: the batcher,
/// the generator, the collector and the write path already share the cores,
/// and every publish builds a fresh engine.
constexpr std::size_t kEngineThreads = 1;
/// serve-sharded: fabric shape and batching.
constexpr std::size_t kShards = 2;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kShardedBatch = 4;
constexpr std::uint64_t kShardedDelayMicros = 5000;
/// Served answers kept for the correctness gate, and the direct-scan sample.
constexpr std::size_t kAnswerEvery = 97;
constexpr std::size_t kScanSample = 256;
/// Traced runs toggle tracing in windows of this length; the ratio of the
/// traced and untraced windows' median latency is the tracing overhead.
constexpr double kTraceWindowSec = 0.5;

TrainSpec serveTrainSpec() {
  TrainSpec s;
  s.analog = "delicious3d-s";
  s.backend = cstf_core::Backend::kCoo;
  s.kernel = sparkle::LocalKernel::kCsf;
  s.rank = 16;
  s.iterations = 10;
  return s;
}

/// What one set-up repetition measured.
struct SetupTimes {
  double total = 0.0;
  double generate = 0.0;
  double split = 0.0;
  double save = 0.0;
  double load = 0.0;
  double build = 0.0;
  double iter1 = 0.0;
  double csfBuild = 0.0;
  std::vector<double> steadyWall;
};

struct Setup {
  SetupTimes times;
  double steadySim = 0.0;
  double trainFit = 0.0;
  std::uint64_t csfBytes = 0;
  serve::CpModel model;  // as reloaded from disk
  tensor::CooTensor base;
  std::vector<tensor::Delta> deltas;
  std::shared_ptr<const serve::TopKProvider> provider;
  std::unique_ptr<stream::OnlineUpdater> updater;
};

stream::OnlineUpdaterOptions updaterOptions(std::uint64_t seed,
                                            metrics::Registry* live) {
  stream::OnlineUpdaterOptions o;
  o.solver = stream::OnlineSolver::kAls;
  o.seed = seed;
  o.liveMetrics = live;
  return o;
}

Setup runSetup(bool streaming, const RunArgs& args, metrics::Registry* live) {
  Setup s;
  const TrainSpec spec = serveTrainSpec();
  const Clock::time_point t0 = Clock::now();
  tensor::CooTensor full =
      tensor::generateRandom(analogOptions(spec.analog, args.seed));
  Clock::time_point t = Clock::now();
  s.times.generate = secondsBetween(t0, t);
  if (streaming) {
    tensor::ZipfStream split = tensor::splitIntoStream(
        full, kDeltaBatches, kDeltaFraction, args.seed);
    s.base = std::move(split.base);
    s.deltas = std::move(split.deltas);
    const Clock::time_point t2 = Clock::now();
    s.times.split = secondsBetween(t, t2);
    t = t2;
  } else {
    s.base = std::move(full);
  }

  sparkle::Context ctx(clusterConfig(spec));
  cstf_core::CpAlsOptions opts = cpAlsOptions(spec, args.seed);
  opts.onIteration = [&](const cstf_core::CpAlsIterationStats& it) {
    if (it.iteration == 1) {
      s.times.iter1 = it.wallTimeSec;
    } else {
      s.times.steadyWall.push_back(it.wallTimeSec);
      s.steadySim += it.simTimeSec;
    }
  };
  cstf_core::CpAlsResult res = cstf_core::cpAls(ctx, s.base, opts);
  s.trainFit = res.finalFit;
  s.times.csfBuild = res.report.layoutBuildWallSec;
  s.csfBytes = res.report.layoutBytes;
  serve::CpModel trained;
  trained.rank = spec.rank;
  trained.dims = s.base.dims();
  trained.lambda = std::move(res.lambda);
  trained.factors = std::move(res.factors);
  trained.finalFit = res.finalFit;

  const std::string path = (fs::path(args.workDir) / "model.cstf").string();
  t = Clock::now();
  serve::saveModel(path, trained);
  Clock::time_point t2 = Clock::now();
  s.times.save = secondsBetween(t, t2);
  s.model = serve::loadModel(path);
  t = Clock::now();
  s.times.load = secondsBetween(t2, t);
  if (streaming) {
    s.provider = std::make_shared<const serve::Engine>(s.model, kEngineThreads);
  } else {
    serve::ShardedEngineOptions so;
    so.numShards = kShards;
    so.numReplicas = kReplicas;
    so.threads = 1;  // the dispatcher scans one shard, this thread the other
    so.liveMetrics = live;
    s.provider = std::make_shared<const serve::ShardedEngine>(s.model, so);
  }
  t2 = Clock::now();
  s.times.build = secondsBetween(t, t2);
  if (streaming) {
    s.updater = std::make_unique<stream::OnlineUpdater>(
        s.model, s.base, updaterOptions(args.seed, live));
  }
  s.times.total = secondsBetween(t0, Clock::now());
  return s;
}

std::vector<serve::TopKRequest> requestUniverse(const std::vector<Index>& dims,
                                                std::uint64_t seed) {
  Pcg32 rng(mix64(seed ^ 0x5e77e));
  std::vector<serve::TopKRequest> universe(kUniverse);
  for (auto& req : universe) {
    req.mode = kQueryMode;
    req.k = kTopK;
    req.fixed.assign(dims.size(), 0);
    for (ModeId m = 0; m < dims.size(); ++m) {
      if (m != kQueryMode) req.fixed[m] = rng.nextBounded(dims[m]);
    }
  }
  return universe;
}

/// One query's outcome, timed from when it was due.
struct Sample {
  double latencyUs = 0.0;
  bool traced = false;
};

struct Answer {
  serve::TopKRequest req;
  serve::Batcher::ResultPtr result;
};

/// Toggles a recorder in alternating windows from `start`; traced windows
/// are the odd ones.
bool tracedWindow(Clock::time_point start, Clock::time_point at) {
  return std::int64_t(secondsBetween(start, at) / kTraceWindowSec) % 2 == 1;
}

struct StreamLog {
  std::vector<double> appendMs, readMs, applyMs, publishMs, lagMs;
  std::size_t backlogMax = 0;
  std::size_t applied = 0;
  /// First failure of the producer or the follower; empty when none.
  std::string error;
};

/// The follower: poll the log, apply each new batch with the online
/// updater and publish it, until `total` batches are live or `giveUp`.
void follow(stream::OnlineUpdater& updater, const stream::DeltaLog& log,
            stream::ModelPublisher& publisher,
            const std::vector<std::atomic<std::int64_t>>& appendedAt,
            std::size_t total, Clock::time_point giveUp, StreamLog& out) {
  while (out.applied < total && Clock::now() < giveUp) {
    const Clock::time_point r0 = Clock::now();
    const stream::DeltaReadResult read =
        log.readAfter(updater.stats().newestSeq);
    if (read.deltas.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    out.readMs.push_back(secondsBetween(r0, Clock::now()) * 1e3);
    out.backlogMax = std::max(out.backlogMax, read.deltas.size());
    for (const tensor::Delta& d : read.deltas) {
      const Clock::time_point a0 = Clock::now();
      updater.apply(d);
      const Clock::time_point a1 = Clock::now();
      publisher.publish(updater);
      const Clock::time_point a2 = Clock::now();
      out.applyMs.push_back(secondsBetween(a0, a1) * 1e3);
      out.publishMs.push_back(secondsBetween(a1, a2) * 1e3);
      const Clock::time_point appended(Clock::duration(
          appendedAt[d.seq - 1].load(std::memory_order_acquire)));
      out.lagMs.push_back(secondsBetween(appended, a2) * 1e3);
      ++out.applied;
    }
  }
}

/// The serve-stream write path: producer appends on a fixed schedule over
/// the first 80% of the run, follower applies and publishes each batch.
/// Returns once every batch is applied or the follower gave up.
StreamLog runWritePath(Setup& s, serve::Batcher& batcher,
                       const RunArgs& args, metrics::Registry* live,
                       Clock::time_point start) {
  const fs::path logDir = fs::path(args.workDir) / "deltas";
  fs::remove_all(logDir);
  stream::DeltaLog log(logDir.string());
  stream::PublisherOptions po;
  po.modelPath = (fs::path(args.workDir) / "live-model.cstf").string();
  po.liveMetrics = live;
  po.engineThreads = kEngineThreads;
  stream::ModelPublisher publisher(&batcher, po);

  StreamLog out;
  std::vector<std::atomic<std::int64_t>> appendedAt(s.deltas.size());
  const auto gap = std::chrono::duration<double>(0.8 * args.seconds /
                                                 double(s.deltas.size()));
  std::string producerError;
  std::thread producer([&] {
    try {
      for (std::size_t b = 0; b < s.deltas.size(); ++b) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(gap * b));
        const Clock::time_point a = Clock::now();
        appendedAt[b].store(a.time_since_epoch().count(),
                            std::memory_order_release);
        log.append(s.deltas[b]);
        out.appendMs.push_back(secondsBetween(a, Clock::now()) * 1e3);
      }
    } catch (const std::exception& e) {
      producerError = e.what();
    }
  });

  // The follower gives up well past the schedule's end, so a stuck write
  // path fails the run instead of hanging it.
  const Clock::time_point giveUp =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds + 60.0));
  try {
    follow(*s.updater, log, publisher, appendedAt, s.deltas.size(), giveUp,
           out);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  producer.join();
  if (out.error.empty()) out.error = producerError;
  return out;
}

void setServeStats(const serve::ServeStats& st, Result& r) {
  r.set("serve.batch_size_p50", st.batchSizes.quantile(0.5), "count");
  r.set("serve.flush_deadline_share",
        st.batches ? double(st.flushDeadline) / double(st.batches) : 0.0,
        "ratio");
  r.set("serve.coalesced", double(st.coalesced), "count");
  const std::uint64_t lookups = st.cacheHits + st.cacheMisses;
  r.set("serve.cache_lookups", double(lookups), "count");
  r.set("serve.cache_hit_rate",
        lookups ? double(st.cacheHits) / double(lookups) : 0.0, "ratio");
  r.set("serve.shed", double(st.shedTotal()), "count");
  r.set("serve.failed", double(st.failed), "count");
}

/// Direct scans (no batcher) over a seeded request sample: latency and the
/// pruning counters.
void timeDirectScan(const serve::TopKProvider& provider,
                    const std::vector<serve::TopKRequest>& universe,
                    std::uint64_t seed, Result& r) {
  Pcg32 rng(mix64(seed ^ 0x5ca9));
  std::vector<double> us;
  double scanned = 0.0;
  double pruned = 0.0;
  for (std::size_t i = 0; i < kScanSample; ++i) {
    const serve::TopKRequest& req =
        universe[rng.nextBounded(std::uint32_t(universe.size()))];
    const Clock::time_point a = Clock::now();
    const serve::TopKResult res = provider.topK(req.mode, req.fixed, req.k);
    us.push_back(secondsBetween(a, Clock::now()) * 1e6);
    scanned += double(res.stats.rowsScanned);
    pruned += double(res.stats.rowsPruned);
  }
  r.set("serve.topk_us", median(us), "us");
  r.set("serve.rows_scanned", scanned / double(kScanSample), "count");
  r.set("serve.rows_pruned", pruned / double(kScanSample), "count");
  r.set("serve.prune_ratio",
        scanned + pruned > 0.0 ? pruned / (scanned + pruned) : 0.0, "ratio");
}

/// Served answers must equal a brute-force scan of the same model, bit for
/// bit.
void checkAnswers(const serve::CpModel& model,
                  const std::vector<Answer>& answers, Result& r) {
  const serve::Engine oracle(model);
  serve::TopKOptions brute;
  brute.prune = false;
  std::size_t bad = 0;
  for (const Answer& a : answers) {
    const serve::TopKResult want =
        oracle.topK(a.req.mode, a.req.fixed, a.req.k, brute);
    if (a.result == nullptr || a.result->entries != want.entries) ++bad;
  }
  r.check(!answers.empty(), "no served answers were sampled");
  r.check(bad == 0, strprintf("%zu of %zu sampled answers differ from the "
                              "brute-force scan",
                              bad, answers.size()));
}

/// Latency metrics shared by both serving workloads.
void setLatency(const std::vector<Sample>& samples, double elapsed,
                std::size_t completed, Result& r, bool trace) {
  std::vector<double> all, on, off;
  for (const Sample& s : samples) {
    all.push_back(s.latencyUs);
    (s.traced ? on : off).push_back(s.latencyUs);
  }
  const Tail tail = tailPercentile(all);
  if (trace) {
    r.set("op.tail_us", tail.value, "us");
    r.set("op.tail_pct", tail.pct, "pct");
    r.set("op.samples", double(tail.samples), "count");
    r.set("trace.overhead", median(on) / median(off), "ratio");
    return;
  }
  r.set("op_p50_us", median(all), "us");
  r.set("ops_per_s", double(completed) / elapsed, "1/s");
  r.notes.push_back(strprintf(
      "query p50 %.1f us, p%g %.1f us (%zu samples, %zu beyond), %.0f qps",
      median(all), tail.pct, tail.value, tail.samples, tail.beyond,
      double(completed) / elapsed));
}

void describeServe(bool streaming, Result& r) {
  describe(serveTrainSpec(), r);
  r.config["setup_repetitions"] = std::to_string(kSetupReps);
  r.config["query"] = strprintf(
      "{\"mode\":%d,\"k\":%zu,\"universe\":%zu,\"zipf\":%g}",
      int(kQueryMode), kTopK, kUniverse, kZipf);
  if (streaming) {
    r.config["engine"] = jsonString("Engine");
    r.config["cache_capacity"] = std::to_string(kStreamCache);
    r.config["delta_batches"] = std::to_string(kDeltaBatches);
    r.config["delta_fraction"] = strprintf("%g", kDeltaFraction);
    r.config["online_solver"] = jsonString("als");
  } else {
    r.config["engine"] = jsonString("ShardedEngine");
    r.config["shards"] = std::to_string(kShards);
    r.config["replicas"] = std::to_string(kReplicas);
    r.config["cache_capacity"] = std::to_string(0);
    r.config["max_batch"] = std::to_string(kShardedBatch);
    r.config["max_delay_us"] = std::to_string(kShardedDelayMicros);
  }
  r.config["open_loop_rate_per_s"] = strprintf("%g", kArrivalPerSec);
}

}  // namespace

Result runServe(const RunArgs& args) {
  const bool streaming = args.workload == "serve-stream";
  if (!streaming && args.workload != "serve-sharded") {
    throw Error("unknown serve workload " + args.workload);
  }
  Result r;
  describeServe(streaming, r);
  metrics::Registry live;

  // The last set-up's model serves; earlier copies are freed first.
  std::vector<SetupTimes> times;
  std::unique_ptr<Setup> held;
  for (int i = 0; i < kSetupReps; ++i) {
    held.reset();
    held = std::make_unique<Setup>(runSetup(streaming, args, &live));
    times.push_back(held->times);
  }
  Setup& s = *held;
  const std::vector<serve::TopKRequest> universe =
      requestUniverse(s.model.dims, args.seed);
  const ZipfSampler zipf(std::uint32_t(kUniverse), kZipf);

  TraceRecorder rec;
  serve::BatcherOptions bo;
  bo.liveMetrics = &live;
  if (streaming) {
    bo.cacheCapacity = kStreamCache;
  } else {
    // Batches fill from the arrival schedule (four arrivals take 1.5-2 ms)
    // long before the deadline, so batch sizes, and with them the CPU per
    // query, do not depend on how promptly threads wake.
    bo.cacheCapacity = 0;
    bo.maxBatch = kShardedBatch;
    bo.maxDelayMicros = kShardedDelayMicros;
  }
  serve::Batcher batcher(s.provider, bo, rec);

  std::vector<Sample> samples;
  std::vector<Answer> answers;
  std::vector<double> lateUs;
  std::uint64_t failedQueries = 0;
  StreamLog wlog;
  const double cpuStart = processCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::atomic<bool> toggling{args.trace};
  std::thread toggler;
  if (args.trace) {
    toggler = std::thread([&] {
      while (toggling.load()) {
        rec.setEnabled(tracedWindow(start, Clock::now()));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      rec.setEnabled(false);
    });
  }

  // Open loop: one generator submits on schedule, one collector waits for
  // answers in submission order.
  struct Slot {
    std::future<serve::Batcher::ResultPtr> answer;
    Clock::time_point due;
    std::size_t request = 0;
  };
  const auto n = std::size_t(kArrivalPerSec * args.seconds);
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> submitted{0};
  std::thread generator([&] {
    Pcg32 rng(mix64(args.seed ^ 0x9e4));
    const auto gap = std::chrono::duration<double>(1.0 / kArrivalPerSec);
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots[i];
      slot.due = start + std::chrono::duration_cast<Clock::duration>(gap * i);
      std::this_thread::sleep_until(slot.due);
      lateUs.push_back(secondsBetween(slot.due, Clock::now()) * 1e6);
      slot.request = zipf.sample(rng);
      slot.answer = batcher.submit(universe[slot.request]);
      submitted.store(i + 1, std::memory_order_release);
      submitted.notify_one();
    }
    submitted.store(n + 1, std::memory_order_release);
    submitted.notify_one();
  });
  std::thread collector([&] {
    for (std::size_t j = 0;; ++j) {
      // Caught up with the generator: block until its next submission
      // (the generator stores n + 1 when it is done).
      std::size_t seen = submitted.load(std::memory_order_acquire);
      while (j >= seen) {
        submitted.wait(seen, std::memory_order_acquire);
        seen = submitted.load(std::memory_order_acquire);
      }
      if (j >= n) return;
      Slot& slot = slots[j];
      try {
        serve::Batcher::ResultPtr res = slot.answer.get();
        const Clock::time_point done = Clock::now();
        samples.push_back({secondsBetween(slot.due, done) * 1e6,
                           tracedWindow(start, slot.due)});
        // serve-stream's model changes under the run; its gate samples
        // answers after the last swap instead.
        if (!streaming && j % kAnswerEvery == 0) {
          answers.push_back({universe[slot.request], std::move(res)});
        }
      } catch (const std::exception&) {
        ++failedQueries;
      }
    }
  });
  if (streaming) wlog = runWritePath(s, batcher, args, &live, start);
  generator.join();
  collector.join();
  const std::uint64_t attemptedQueries = n;
  const double elapsed = secondsBetween(start, Clock::now());
  const double cpu = processCpuSeconds() - cpuStart;
  toggling.store(false);
  if (toggler.joinable()) toggler.join();
  const serve::ServeStats st = batcher.stats();

  // ---- correctness gate (outside the timed phase) ----
  double fit = s.trainFit;
  serve::CpModel served = s.model;
  if (streaming) {
    r.check(wlog.error.empty(), "write path failed: " + wlog.error);
    r.check(wlog.applied == s.deltas.size(),
            strprintf("%zu of %zu delta batches applied", wlog.applied,
                      s.deltas.size()));
    fit = s.updater->exactFit();
    served = s.updater->snapshotModel();
    // Offline replay of the same log from the same warm start.
    stream::OnlineUpdater replay(s.model, s.base,
                                 updaterOptions(args.seed, nullptr));
    const stream::DeltaLog log((fs::path(args.workDir) / "deltas").string());
    for (const tensor::Delta& d : log.readAfter(0).deltas) replay.apply(d);
    const double replayFit = replay.exactFit();
    r.check(replayFit == fit,
            strprintf("live fit %.17g differs from offline replay %.17g", fit,
                      replayFit));
    r.notes.push_back(strprintf(
        "serve-stream: fit %.17g after %zu deltas (replay %.17g)", fit,
        wlog.applied, replayFit));
    // The batcher now serves the final model: sample its answers.
    Pcg32 rng(mix64(args.seed ^ 0xa45));
    for (std::size_t i = 0; i < kScanSample; ++i) {
      const serve::TopKRequest& req = universe[zipf.sample(rng)];
      answers.push_back({req, batcher.submit(req).get()});
    }
  }
  checkAnswers(served, answers, r);
  if (!streaming) {
    // Scatter/gather must be bit-identical to the single engine.
    const serve::Engine single(s.model);
    Pcg32 rng(mix64(args.seed ^ 0x5a4d));
    std::size_t bad = 0;
    for (std::size_t i = 0; i < kScanSample; ++i) {
      const serve::TopKRequest& req = universe[zipf.sample(rng)];
      if (s.provider->topK(req.mode, req.fixed, req.k).entries !=
          single.topK(req.mode, req.fixed, req.k).entries) {
        ++bad;
      }
    }
    r.check(bad == 0, strprintf("%zu of %zu sharded answers differ from "
                                "Engine::topK",
                                bad, kScanSample));
  }
  const std::uint64_t shed = st.shedTotal() + st.failed;
  r.attempted = attemptedQueries + (streaming ? s.deltas.size() : 0);
  r.failed = std::max<std::uint64_t>(failedQueries, shed) +
             (streaming ? s.deltas.size() - wlog.applied : 0);
  if (!r.mismatches.empty()) r.failed = r.attempted;

  setLatency(samples, elapsed, samples.size(), r, args.trace);
  if (!args.trace) {
    r.set("cpu_us_per_op", cpu / double(samples.size()) * 1e6, "us");
  }
  const double simPerIter =
      s.steadySim / double(serveTrainSpec().iterations - 1);
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return median(v);
  };
  if (!args.trace) {
    r.set("setup_s", med(&SetupTimes::total), "s");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.set("sim_s_per_iter", simPerIter, "s");
    r.set("ok_frac", 1.0 - double(r.failed) / double(r.attempted), "ratio");
    return r;
  }

  // ---- per-layer metrics (traced run) ----
  std::vector<double> trainSteady;
  for (const SetupTimes& t : times) {
    trainSteady.insert(trainSteady.end(), t.steadyWall.begin(),
                       t.steadyWall.end());
  }
  r.set("tensor.generate_s", med(&SetupTimes::generate), "s");
  r.set("tensor.split_s", med(&SetupTimes::split), "s");
  r.set("tensor.csf_build_s", med(&SetupTimes::csfBuild), "s");
  r.set("tensor.csf_bytes", double(s.csfBytes), "bytes");
  r.set("cstf.fit", fit, "ratio");
  r.set("cstf.iter_s", median(trainSteady), "s");
  r.set("cstf.iter1_s", med(&SetupTimes::iter1), "s");
  r.set("cstf.sim_over_host", simPerIter / median(trainSteady), "ratio");
  r.set("serve.model_save_s", med(&SetupTimes::save), "s");
  r.set("serve.model_load_s", med(&SetupTimes::load), "s");
  r.set("serve.engine_build_s", med(&SetupTimes::build), "s");
  setServeStats(st, r);
  if (streaming) {
    // Direct scans against the final model, as the batcher now serves it.
    timeDirectScan(*batcher.engine(), universe, args.seed, r);
    r.set("serve.gen_late_us", percentile(lateUs, 99.0), "us");
    r.set("stream.log_append_ms", median(wlog.appendMs), "ms");
    r.set("stream.log_read_ms", median(wlog.readMs), "ms");
    r.set("stream.apply_ms", median(wlog.applyMs), "ms");
    r.set("stream.rows_resolved",
          double(s.updater->stats().rowsRecomputed) /
              double(std::max<std::uint64_t>(
                  1, s.updater->stats().batchesApplied)),
          "count");
    r.set("stream.publish_ms", median(wlog.publishMs), "ms");
    r.set("stream.backlog_max", double(wlog.backlogMax), "count");
    r.set("stream.reloads", double(st.reloads), "count");
    const Tail lag = tailPercentile(wlog.lagMs);
    r.set("stream.fresh_lag_p50_ms", median(wlog.lagMs), "ms");
    r.set("stream.fresh_lag_tail_ms", lag.value, "ms");
    r.set("stream.fresh_lag_tail_pct", lag.pct, "pct");
    r.set("stream.fresh_lag_samples", double(lag.samples), "count");
    r.notes.push_back(strprintf(
        "freshness lag p50 %.1f ms, p%g %.1f ms (%zu samples, %zu beyond); "
        "apply %.1f ms, publish %.1f ms per batch",
        median(wlog.lagMs), lag.pct, lag.value, lag.samples, lag.beyond,
        median(wlog.applyMs), median(wlog.publishMs)));
  } else {
    timeDirectScan(*s.provider, universe, args.seed, r);
    const auto* sharded =
        dynamic_cast<const serve::ShardedEngine*>(s.provider.get());
    r.set("serve.failovers", double(sharded->stats().failovers), "count");
    std::vector<double> perShard;
    for (const auto& c : live.snapshot().counters) {
      if (c.name == "serve_shard_queries_total") perShard.push_back(c.value);
    }
    double mean = 0.0;
    for (const double v : perShard) mean += v / double(perShard.size());
    r.set("serve.shard_load_max_over_mean",
          mean > 0.0 ? *std::max_element(perShard.begin(), perShard.end()) /
                           mean
                     : 0.0,
          "ratio");
  }
  return r;
}

}  // namespace perfbench
