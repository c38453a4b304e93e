// cstf — command-line front end.
//
//   cstf info <tensor>                     structural statistics
//   cstf generate <analog> <out.{tns,bns}> write a synthetic dataset
//   cstf factor <tensor> [flags]           run CP-ALS
//   cstf query --model M --indices SPEC    point / top-k queries
//   cstf serve-bench --model M [flags]     serving load test
//   cstf stream --model M --deltas D       replay a delta log onto a model
//
// Every flag is one row of kFlags below, which parses it, lists it in the
// usage (`cstf` with no arguments) and names the commands that read it.
// tools/README.md documents each flag.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <ranges>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/artifacts.hpp"
#include "common/heartbeat.hpp"
#include "common/json.hpp"
#include "common/metrics_registry.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "cstf/cstf.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/model.hpp"
#include "serve/sharded_engine.hpp"
#include "stream/delta_log.hpp"
#include "stream/online_updater.hpp"
#include "stream/publisher.hpp"
#include "tensor/generator.hpp"
#include "tensor/io.hpp"
#include "tensor/stats.hpp"

using namespace cstf;

namespace {

bool isAnalogName(const std::string& s) {
  return std::ranges::count(tensor::paperAnalogNames(), s) > 0;
}

tensor::CooTensor loadTensor(const std::string& spec, double scale) {
  if (isAnalogName(spec)) return tensor::paperAnalog(spec, scale);
  return tensor::readTensorFile(spec);
}

struct Args {
  std::vector<std::string> positional;
  std::size_t rank = 2;
  int iters = 20;
  double tol = 1e-6;
  std::string backend = "qcoo";
  std::string localKernel = "coo";
  int nodes = 8;
  std::uint64_t seed = 7;
  double scale = 0.2;
  std::string output;
  std::string traceOut;
  std::string reportOut;
  std::string checkpointDir;
  int checkpointEvery = 1;
  bool resume = false;
  double nodeLossRate = 0.0;
  double taskFailureRate = 0.0;
  std::uint64_t faultSeed = 0xfa17ed;
  int maxStageAttempts = 4;
  std::string modelOut;
  // query / serve-bench
  std::string model;
  std::string indicesSpec;
  std::size_t topK = 10;
  bool bruteForce = false;
  int mode = 0;
  std::size_t clients = 4;
  std::size_t requests = 2000;
  std::size_t distinct = 256;
  double zipf = 1.1;
  std::size_t maxBatch = 0;  // 0: default to `clients`
  std::uint64_t maxDelayMicros = 200;
  std::size_t cacheCapacity = 4096;
  // sharded serving / open-loop / fault injection
  std::size_t shards = 0;  // 0: single-process engine
  std::size_t replicas = 1;
  std::size_t queueLimit = 0;
  std::uint64_t deadlineUs = 0;
  double arrivalRate = 0.0;  // requests/sec; 0: closed loop
  int killNode = -1;         // <0: no injected node loss
  std::uint64_t killAfter = 1;
  // live metrics / watchdogs
  std::string metricsOut;
  int metricsIntervalMs = 100;
  double sloP99Us = 0.0;
  // streaming: generate splits, stream replay, serve-bench --follow
  std::size_t deltaBatches = 0;
  std::string deltaDir;
  double deltaFraction = 0.25;
  int deltaIntervalMs = 0;
  std::string deltas;
  std::string follow;
  std::string base;
  std::string onlineSolver = "als";
  std::size_t publishEvery = 1;
  int pollMs = 50;
  int alsSweeps = 2;
  int sgdEpochs = 3;
  int fitProbeEvery = 0;
};

// The commands, as bits of a flag's command set.
enum : unsigned {
  kInfo = 1u << 0,
  kGenerate = 1u << 1,
  kFactor = 1u << 2,
  kQuery = 1u << 3,
  kServeBench = 1u << 4,
  kStream = 1u << 5,
};
constexpr unsigned kOnline = kStream | kServeBench;

/// One flag: `field` is the Args member it sets and `cmds` the commands
/// that read it; any other command refuses it. `meta` names its value in
/// the usage (null for a switch); a meta listing choices ("als|sgd")
/// accepts only those. `needs` names the flag without which this one
/// changes nothing: it binds in the commands that read that flag, and any
/// flag setting the same field meets it (--resume D sets --checkpoint-dir's).
/// [lo, hi] bounds a number; integers run to their type's maximum. A
/// `required` flag must be given to every command that reads it.
struct Flag {
  const char* name;
  const char* meta;
  std::variant<std::string Args::*, bool Args::*, int Args::*,
               std::uint64_t Args::*, double Args::*>
      field;
  unsigned cmds;
  const char* needs = nullptr;
  double lo = 0.0;
  double hi = std::numeric_limits<double>::max();
  bool required = false;
};

constexpr double kMax = std::numeric_limits<double>::max();
const Flag kFlags[] = {
    // name, meta, field, commands, needs, lo, hi, required
    {"--model", "P", &Args::model, kQuery | kOnline, nullptr, 0, kMax, true},
    {"--indices", "SPEC", &Args::indicesSpec, kQuery, nullptr, 0, kMax, true},
    {"--deltas", "D", &Args::deltas, kStream, nullptr, 0, kMax, true},
    {"--scale", "X", &Args::scale, kInfo | kGenerate | kFactor | kOnline,
     "--base", 1e-9, 1e9},
    {"--seed", "S", &Args::seed, kGenerate | kFactor | kOnline,
     "--delta-batches"},
    {"--delta-batches", "N", &Args::deltaBatches, kGenerate, "--delta-dir", 1},
    {"--delta-dir", "D", &Args::deltaDir, kGenerate, "--delta-batches"},
    {"--delta-fraction", "F", &Args::deltaFraction, kGenerate,
     "--delta-batches", 1e-9, 1.0 - 1e-9},
    {"--delta-interval-ms", "M", &Args::deltaIntervalMs, kGenerate,
     "--delta-batches"},
    {"--rank", "R", &Args::rank, kFactor, nullptr, 1},
    {"--iters", "N", &Args::iters, kFactor, nullptr, 1},
    {"--tol", "T", &Args::tol, kFactor},
    {"--backend", "B", &Args::backend, kFactor},
    {"--local-kernel", "coo|csf", &Args::localKernel, kFactor},
    {"--nodes", "N", &Args::nodes, kFactor, nullptr, 1},
    {"--output", "PREFIX", &Args::output, kFactor},
    {"--trace-out", "P", &Args::traceOut, kFactor},
    {"--report-out", "P", &Args::reportOut, kFactor | kOnline},
    {"--metrics-out", "P", &Args::metricsOut, kFactor | kServeBench},
    {"--metrics-interval-ms", "N", &Args::metricsIntervalMs,
     kFactor | kServeBench, "--metrics-out", 1},
    {"--checkpoint-dir", "D", &Args::checkpointDir, kFactor},
    {"--checkpoint-every", "K", &Args::checkpointEvery, kFactor,
     "--checkpoint-dir"},
    {"--resume", "D", &Args::checkpointDir, kFactor},
    {"--node-loss-rate", "R", &Args::nodeLossRate, kFactor, nullptr, 0, 1},
    {"--task-failure-rate", "R", &Args::taskFailureRate, kFactor, nullptr, 0,
     1},
    {"--fault-seed", "S", &Args::faultSeed, kFactor},
    {"--max-stage-attempts", "N", &Args::maxStageAttempts, kFactor, nullptr, 1},
    {"--top-k", "K", &Args::topK, kQuery | kServeBench, nullptr, 1},
    {"--brute-force", nullptr, &Args::bruteForce, kQuery},
    {"--mode", "M", &Args::mode, kServeBench},
    {"--clients", "N", &Args::clients, kServeBench, nullptr, 1},
    {"--requests", "N", &Args::requests, kServeBench, nullptr, 1},
    {"--distinct", "D", &Args::distinct, kServeBench, nullptr, 1},
    {"--zipf", "S", &Args::zipf, kServeBench},
    {"--arrival-rate", "R", &Args::arrivalRate, kServeBench},
    {"--max-batch", "B", &Args::maxBatch, kServeBench},
    {"--max-delay-micros", "U", &Args::maxDelayMicros, kServeBench},
    {"--queue-limit", "Q", &Args::queueLimit, kServeBench},
    {"--deadline-us", "T", &Args::deadlineUs, kServeBench},
    {"--shards", "S", &Args::shards, kServeBench, nullptr, 1},
    {"--replicas", "R", &Args::replicas, kServeBench, "--shards", 1},
    {"--kill-node", "N", &Args::killNode, kServeBench, "--shards"},
    {"--kill-after", "B", &Args::killAfter, kServeBench, "--kill-node"},
    {"--cache-capacity", "C", &Args::cacheCapacity, kServeBench},
    {"--slo-p99-us", "T", &Args::sloP99Us, kServeBench},
    {"--follow", "D", &Args::follow, kServeBench},
    {"--base", "T", &Args::base, kOnline, "--follow"},
    {"--online-solver", "als|sgd", &Args::onlineSolver, kOnline, "--follow"},
    {"--als-sweeps", "N", &Args::alsSweeps, kOnline, "--follow", 1},
    {"--sgd-epochs", "N", &Args::sgdEpochs, kOnline, "--follow", 1},
    {"--fit-probe-every", "K", &Args::fitProbeEvery, kOnline, "--follow"},
    {"--publish-every", "N", &Args::publishEvery, kServeBench, "--follow", 1},
    {"--poll-ms", "M", &Args::pollMs, kServeBench, "--follow", 1},
    {"--model-out", "P", &Args::modelOut, kFactor | kOnline, "--follow"},
};

const Flag* findFlag(const std::string& name) {
  const auto* f = std::ranges::find_if(
      kFlags, [&](const Flag& g) { return name == g.name; });
  return f == std::end(kFlags) ? nullptr : f;
}

/// The flag `f` needs in the command `cmd`, or null when it needs none
/// there.
const Flag* neededBy(const Flag& f, unsigned cmd) {
  const Flag* n = f.needs ? findFlag(f.needs) : nullptr;
  return n && (n->cmds & cmd) ? n : nullptr;
}

/// Stores `value` (null for a switch) into the field `f` sets; numbers go
/// through common/parse.hpp's checked parsing, which names the flag and
/// the value on failure.
bool setField(const Flag& f, const char* value, Args& a) {
  return std::visit(
      [&](auto field) {
        auto& out = a.*field;
        using T = std::remove_reference_t<decltype(out)>;
        if constexpr (std::is_same_v<T, bool>) {
          out = true;
          return true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (std::strchr(f.meta, '|') &&
              std::ranges::count(splitFields(f.meta, "|"), value) == 0) {
            std::fprintf(stderr, "invalid value '%s' for %s (expected %s)\n",
                         value, f.name, f.meta);
            return false;
          }
          out = value;
          return true;
        } else if constexpr (std::is_same_v<T, double>) {
          return parseFlag(f.name, value, out, f.lo, f.hi);
        } else {
          return parseFlag(f.name, value, out, static_cast<T>(f.lo));
        }
      },
      f.field);
}

/// Heartbeat over the global registry streaming to --metrics-out (ndjson)
/// and --metrics-out.prom. Null when no metrics path was requested; the
/// caller registers its watchdog checks, then start()s it.
std::unique_ptr<Heartbeat> makeHeartbeat(const Args& a) {
  if (a.metricsOut.empty()) return nullptr;
  HeartbeatOptions o;
  o.ndjsonPath = a.metricsOut;
  o.promPath = a.metricsOut + ".prom";
  o.intervalMs = a.metricsIntervalMs;
  return std::make_unique<Heartbeat>(metrics::globalRegistry(), o);
}

void writeMatrix(const std::string& path, const la::Matrix& m) {
  writeFileAtomic(path, [&](std::ostream& out) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        out << strprintf("%.17g%c", m(i, j), j + 1 == m.cols() ? '\n' : ' ');
      }
    }
  });
}

int cmdInfo(const Args& a) {
  const tensor::CooTensor t = loadTensor(a.positional[0], a.scale);
  std::fputs(tensor::formatStats(t, tensor::analyzeTensor(t)).c_str(),
             stdout);
  return 0;
}

int cmdGenerate(const Args& a) {
  const std::string& analog = a.positional[0];
  const std::string& outPath = a.positional[1];
  if (!isAnalogName(analog)) {
    std::fprintf(stderr, "unknown analog '%s'; choose one of:", analog.c_str());
    for (const auto& n : tensor::paperAnalogNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const tensor::CooTensor t = tensor::paperAnalog(analog, a.scale);
  if (a.deltaBatches > 0) {
    // Streaming split: base tensor to <out>, the batches into a delta log.
    const tensor::ZipfStream s =
        tensor::splitIntoStream(t, a.deltaBatches, a.deltaFraction, a.seed);
    tensor::writeTensorFile(outPath, s.base);
    stream::DeltaLog log(a.deltaDir);
    std::size_t deltaNnz = 0;
    for (std::size_t b = 0; b < s.deltas.size(); ++b) {
      if (b > 0 && a.deltaIntervalMs > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(a.deltaIntervalMs));
      }
      log.append(s.deltas[b]);
      deltaNnz += s.deltas[b].entries.size();
    }
    std::printf("wrote %zu base nonzeros to %s and %zu batches (%zu "
                "nonzeros) to %s\n",
                s.base.nnz(), outPath.c_str(), s.deltas.size(), deltaNnz,
                a.deltaDir.c_str());
    return 0;
  }
  tensor::writeTensorFile(outPath, t);
  std::printf("wrote %zu nonzeros to %s\n", t.nnz(), outPath.c_str());
  return 0;
}

/// Shared --online-solver/--als-sweeps/... plumbing for `stream` and
/// `serve-bench --follow`.
stream::OnlineUpdaterOptions onlineOptions(const Args& a) {
  stream::OnlineUpdaterOptions o;
  o.solver = stream::onlineSolverFromName(a.onlineSolver);
  o.alsSweeps = a.alsSweeps;
  o.sgdEpochs = a.sgdEpochs;
  o.fitProbeEvery = a.fitProbeEvery;
  o.seed = a.seed;
  return o;
}

/// The base tensor for an online updater: --base when given, else empty
/// (delta entries only).
tensor::CooTensor loadBase(const Args& a, const std::vector<Index>& dims) {
  if (a.base.empty()) return tensor::CooTensor(dims, {});
  return loadTensor(a.base, a.scale);
}

int cmdFactor(const Args& a) {
  sparkle::ClusterConfig cluster;
  cluster.numNodes = a.nodes;
  cluster.taskFailureRate = a.taskFailureRate;
  cluster.faults.nodeLossRate = a.nodeLossRate;
  cluster.faults.seed = a.faultSeed;
  cluster.faults.maxStageAttempts = a.maxStageAttempts;
  cstf_core::CpAlsOptions opts;
  opts.rank = a.rank;
  opts.maxIterations = a.iters;
  opts.tolerance = a.tol;
  opts.seed = a.seed;
  opts.checkpointDir = a.checkpointDir;
  opts.checkpointEvery = a.checkpointEvery;
  opts.resume = a.resume;
  // Refuse an unknown name or an incoherent flag combination before any
  // work starts: exit 2, like every other flag error.
  cstf_core::MttkrpPlan plan;
  try {
    cluster.localKernel = sparkle::localKernelFromName(a.localKernel);
    opts.backend = cstf_core::backendFromName(a.backend);
    plan = cstf_core::resolvePlan(opts, cluster);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (opts.backend == cstf_core::Backend::kBigtensor) {
    cluster.mode = sparkle::ExecutionMode::kHadoop;
  }

  const tensor::CooTensor t = loadTensor(a.positional[0], a.scale);
  std::printf("%s", tensor::formatStats(t, tensor::analyzeTensor(t)).c_str());
  sparkle::Context ctx(cluster);
  if (!a.traceOut.empty()) ctx.trace().setEnabled(true);

  // One call writes every requested artifact through the same atomic
  // writer — the success path and the abort path below must not diverge.
  auto flushArtifacts = [&](const cstf_core::RunReport& report,
                            bool strict) {
    auto put = [&](const std::string& path, const std::string& content,
                   const char* what) {
      if (!writeArtifact(path, content, what) && strict) {
        throw Error("cannot write " + path);
      }
    };
    if (!a.traceOut.empty()) {
      put(a.traceOut, ctx.trace().toChromeJson(), "trace");
    }
    if (!a.reportOut.empty()) {
      put(a.reportOut, report.toJson(), "run report");
    }
  };

  std::unique_ptr<Heartbeat> heartbeat = makeHeartbeat(a);
  if (heartbeat) heartbeat->start();

  std::printf("\nCP-ALS: rank %zu, plan %s, %d simulated nodes\n", a.rank,
              plan.describe().c_str(), a.nodes);
  cstf_core::CpAlsResult result;
  try {
    result = cstf_core::cpAls(ctx, t, opts);
  } catch (const JobAbortedError&) {
    // Flush telemetry before propagating: an aborted run still leaves its
    // trace, a partial run report (everything the stage log saw up to the
    // abort) and a final live-metrics snapshot — exactly the artifacts a
    // post-mortem needs.
    cstf_core::RunReport report;
    plan.fillReport(report);
    report.rank = a.rank;
    report.dims = t.dims();
    report.nnz = t.nnz();
    report.nodes = a.nodes;
    cstf_core::finalizeRunReport(ctx.metrics(), report);
    flushArtifacts(report, /*strict=*/false);
    if (heartbeat) heartbeat->stop();
    throw;
  }
  if (result.report.resumedFromIteration > 0) {
    std::printf("resumed from checkpoint after iteration %d\n",
                result.report.resumedFromIteration);
  }
  for (const auto& it : result.iterations) {
    // Iteration 1 has no previous fit, so its delta is undefined.
    const std::string delta = std::isfinite(it.fitDelta)
                                  ? strprintf("+%.2e", it.fitDelta)
                                  : "  --   ";
    std::printf("  iter %3d  fit %.6f  (%s)  cluster %s\n", it.iteration,
                it.fit, delta.c_str(), humanSeconds(it.simTimeSec).c_str());
  }
  std::printf("final fit %.6f after %zu iterations%s\n", result.finalFit,
              result.iterations.size(),
              result.converged ? " (converged)" : "");

  const auto m = ctx.metrics().totals();
  std::printf("cluster: %llu shuffle ops, %s remote + %s local shuffle, "
              "%.3g flops, modeled time %s\n",
              static_cast<unsigned long long>(m.shuffleOps),
              humanBytes(double(m.shuffleBytesRemote)).c_str(),
              humanBytes(double(m.shuffleBytesLocal)).c_str(),
              double(m.flops), humanSeconds(m.simTimeSec).c_str());

  if (heartbeat) heartbeat->stop();  // final snapshot before artifacts
  flushArtifacts(result.report, /*strict=*/true);

  if (!a.output.empty()) {
    for (std::size_t k = 0; k < result.factors.size(); ++k) {
      writeMatrix(strprintf("%s.mode%zu.txt", a.output.c_str(), k + 1),
                  result.factors[k]);
    }
    writeFileAtomic(a.output + ".lambda.txt", [&](std::ostream& out) {
      for (double l : result.lambda) out << strprintf("%.17g\n", l);
    });
    std::printf("factors written to %s.mode*.txt\n", a.output.c_str());
  }

  if (!a.modelOut.empty()) {
    serve::CpModel model;
    model.rank = a.rank;
    model.dims = t.dims();
    model.lambda = std::move(result.lambda);
    model.factors = std::move(result.factors);
    model.finalFit = result.finalFit;
    std::printf("model written to %s\n",
                serve::saveModel(a.modelOut, model).c_str());
  }
  return 0;
}

bool isFreeMarker(const std::string& tok) {
  return tok == "_" || tok == "?" || tok == "*" || tok == "-1";
}

/// Parse "12,_,7" into per-mode indices; the free mode (at most one) is
/// returned through `freeMode`, -1 when every mode is pinned.
std::vector<Index> parseIndices(const std::string& spec, ModeId order,
                                int& freeMode) {
  std::vector<std::string> toks;
  for (const auto tok : std::views::split(spec, ',')) {
    toks.emplace_back(tok.begin(), tok.end());
  }
  CSTF_CHECK(toks.size() == order,
             strprintf("--indices has %zu entries but the model has %d modes",
                       toks.size(), int(order)));
  freeMode = -1;
  std::vector<Index> idx(order, 0);
  for (std::size_t m = 0; m < toks.size(); ++m) {
    if (isFreeMarker(toks[m])) {
      CSTF_CHECK(freeMode < 0, "--indices may mark at most one mode free");
      freeMode = int(m);
    } else {
      const std::optional<std::uint64_t> v = parseUint64(toks[m]);
      CSTF_CHECK(v && *v <= std::numeric_limits<Index>::max(),
                 strprintf("bad index '%s' in --indices (expected an integer "
                           "in [0, %u])",
                           toks[m].c_str(),
                           unsigned(std::numeric_limits<Index>::max())));
      idx[m] = static_cast<Index>(*v);
    }
  }
  return idx;
}

int cmdQuery(const Args& a) {
  const serve::Engine engine(serve::loadModel(a.model));
  int freeMode = -1;
  const std::vector<Index> idx =
      parseIndices(a.indicesSpec, engine.order(), freeMode);
  if (freeMode < 0) {
    std::printf("%.17g\n", engine.predict(idx));
    return 0;
  }
  serve::TopKOptions opts;
  opts.prune = !a.bruteForce;
  const serve::TopKResult r =
      engine.topK(static_cast<ModeId>(freeMode), idx, a.topK, opts);
  for (const auto& e : r.entries) {
    std::printf("%u %.17g\n", unsigned(e.index), e.score);
  }
  std::fprintf(stderr, "top-%zu along mode %d: scanned %llu rows, pruned %llu\n",
               a.topK, freeMode,
               static_cast<unsigned long long>(r.stats.rowsScanned),
               static_cast<unsigned long long>(r.stats.rowsPruned));
  return 0;
}

/// Offline replay: apply every batch in the delta log to the model, in
/// order, then report the exactly-probed fit. Deterministic — the same log
/// and flags always produce the same updated model.
int cmdStream(const Args& a) {
  serve::CpModel model = serve::loadModel(a.model);
  const std::vector<Index> dims = model.dims;
  stream::OnlineUpdater updater(std::move(model), loadBase(a, dims),
                                onlineOptions(a));

  const stream::DeltaLog log(a.deltas);
  const stream::DeltaReadResult read = log.readAfter(0);
  if (read.skippedCorruptTail > 0) {
    std::fprintf(stderr, "skipped %zu corrupt tail batch(es)\n",
                 read.skippedCorruptTail);
  }
  std::printf("stream: replaying %zu batches from %s (%s solver)\n",
              read.deltas.size(), a.deltas.c_str(), a.onlineSolver.c_str());
  for (const tensor::Delta& d : read.deltas) {
    updater.apply(d);
    const stream::OnlineUpdateStats& s = updater.stats();
    std::printf("  seq %llu  %zu entries  %s",
                static_cast<unsigned long long>(d.seq), d.entries.size(),
                humanSeconds(s.lastBatchSec).c_str());
    if (std::isfinite(s.lastFitProbe) && a.fitProbeEvery > 0 &&
        s.batchesApplied % std::uint64_t(a.fitProbeEvery) == 0) {
      std::printf("  fit %.6f", s.lastFitProbe);
    }
    std::printf("\n");
  }
  const double fit = updater.exactFit();
  const stream::OnlineUpdateStats& s = updater.stats();
  std::printf("applied %llu batches (%llu entries, %llu rows re-solved) in "
              "%s; fit %.6f over %zu nonzeros\n",
              static_cast<unsigned long long>(s.batchesApplied),
              static_cast<unsigned long long>(s.entriesApplied),
              static_cast<unsigned long long>(s.rowsRecomputed),
              humanSeconds(s.totalApplySec).c_str(), fit,
              updater.tensor().nnz());

  if (!a.modelOut.empty()) {
    std::printf("model written to %s\n",
                serve::saveModel(a.modelOut, updater.snapshotModel()).c_str());
  }
  if (!a.reportOut.empty()) {
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "cstf-stream-report-v1");
    w.kv("solver", a.onlineSolver);
    w.kv("batches", s.batchesApplied);
    w.kv("entries", s.entriesApplied);
    w.kv("rowsRecomputed", s.rowsRecomputed);
    w.kv("newestSeq", s.newestSeq);
    w.kv("skippedCorruptTail", std::uint64_t(read.skippedCorruptTail));
    w.kv("fit", fit);
    w.kv("nnz", std::uint64_t(updater.tensor().nnz()));
    w.kv("applySec", s.totalApplySec);
    w.endObject();
    if (!writeArtifact(a.reportOut, w.take(), "stream report")) {
      throw Error("cannot write " + a.reportOut);
    }
  }
  return 0;
}

int cmdServeBench(const Args& a) {
  serve::CpModel model = serve::loadModel(a.model);
  const ModeId order = static_cast<ModeId>(model.dims.size());
  const std::vector<Index> dims = model.dims;
  CSTF_CHECK(a.mode >= 0 && a.mode < order,
             "--mode out of range for this model");
  const ModeId mode = static_cast<ModeId>(a.mode);
  CSTF_CHECK(a.killNode < 0 || static_cast<std::size_t>(a.killNode) < a.shards,
             "--kill-node " + std::to_string(a.killNode) +
                 " is out of range: --shards " + std::to_string(a.shards) +
                 " serves on nodes 0.." + std::to_string(a.shards - 1));

  // --follow: the online updater that the follower thread drives. It gets
  // its own copy of the warm model (the serving copy is moved into the
  // engine below).
  std::unique_ptr<stream::OnlineUpdater> updater;
  if (!a.follow.empty()) {
    updater = std::make_unique<stream::OnlineUpdater>(
        model, loadBase(a, model.dims), onlineOptions(a));
  }

  // A fixed universe of request tuples with Zipf popularity: repeats are
  // what exercise coalescing and the result cache, mirroring the skewed
  // access patterns the training data itself has.
  Pcg32 rng(a.seed);
  std::vector<serve::TopKRequest> universe(a.distinct);
  for (auto& req : universe) {
    req.mode = mode;
    req.k = a.topK;
    req.fixed.assign(order, 0);
    for (ModeId m = 0; m < order; ++m) {
      if (m != mode) req.fixed[m] = rng.nextBounded(dims[m]);
    }
  }
  const ZipfSampler zipf(static_cast<std::uint32_t>(a.distinct), a.zipf);

  // With --shards the model serves through a ShardedEngine; otherwise the
  // single-process Engine.
  std::shared_ptr<const serve::TopKProvider> provider;
  std::shared_ptr<const serve::ShardedEngine> sharded;
  if (a.shards > 0) {
    serve::ShardedEngineOptions so;
    so.numShards = a.shards;
    so.numReplicas = a.replicas;
    if (a.killNode >= 0) {
      so.faults.schedule.push_back({a.killAfter, a.killNode});
    }
    sharded =
        std::make_shared<const serve::ShardedEngine>(std::move(model), so);
    provider = sharded;
  } else {
    provider = std::make_shared<const serve::Engine>(std::move(model));
  }

  serve::BatcherOptions opts;
  opts.maxBatch = a.maxBatch ? a.maxBatch : a.clients;
  opts.maxDelayMicros = a.maxDelayMicros;
  opts.cacheCapacity = a.cacheCapacity;
  opts.sloP99Micros = a.sloP99Us;
  opts.queueLimit = a.queueLimit;
  opts.deadlineMicros = a.deadlineUs;
  serve::Batcher batcher(provider, opts);

  // --follow: poll the delta log, apply new batches, and hot-swap the
  // refreshed model into the batcher every --publish-every batches. The
  // publisher persists to --model-out (when given) before each swap, and
  // refreshing staleness every tick gives the cstf_staleness_sec gauge its
  // sawtooth: climbing between publishes, dropping at each one.
  std::unique_ptr<stream::ModelPublisher> publisher;
  std::atomic<bool> stopFollower{false};
  std::thread follower;
  if (updater) {
    stream::PublisherOptions po;
    po.modelPath = a.modelOut;
    publisher = std::make_unique<stream::ModelPublisher>(&batcher, po);
    follower = std::thread([&] {
      const stream::DeltaLog log(a.follow);
      std::size_t pending = 0;
      const auto drain = [&](bool flush) {
        const stream::DeltaReadResult read =
            log.readAfter(updater->stats().newestSeq);
        for (const tensor::Delta& d : read.deltas) {
          updater->apply(d);
          if (++pending >= a.publishEvery) {
            publisher->publish(*updater);
            pending = 0;
          }
        }
        if (flush && pending > 0) {
          publisher->publish(*updater);
          pending = 0;
        }
        publisher->refreshStaleness();
      };
      while (!stopFollower.load()) {
        drain(/*flush=*/false);
        std::this_thread::sleep_for(std::chrono::milliseconds(a.pollMs));
      }
      drain(/*flush=*/true);  // publish any remainder before reporting
    });
  }

  std::unique_ptr<Heartbeat> heartbeat = makeHeartbeat(a);
  if (heartbeat) {
    heartbeat->addCheck([&batcher] { batcher.checkSlo(); });
    if (publisher) {
      heartbeat->addCheck([&publisher] { publisher->refreshStaleness(); });
    }
    heartbeat->start();
  }

  std::printf("serve-bench: %zu clients, %zu requests over %zu tuples "
              "(zipf %.2f), top-%zu along mode %d, maxBatch %zu, "
              "delay %llu us, cache %zu",
              a.clients, a.requests, a.distinct, a.zipf, a.topK, a.mode,
              opts.maxBatch,
              static_cast<unsigned long long>(opts.maxDelayMicros),
              opts.cacheCapacity);
  if (a.shards > 0) {
    std::printf(", %zu shards x %zu replicas", a.shards, a.replicas);
  }
  if (a.arrivalRate > 0.0) {
    std::printf(", open loop at %.0f req/s", a.arrivalRate);
  }
  std::printf("\n");

  // Closed loop (default): each client waits for its previous answer, so
  // offered load self-throttles under pressure. Open loop
  // (--arrival-rate): clients pace submissions on the wall clock no matter
  // how the server is doing, which is what actually drives a server into
  // admission control and deadline shedding.
  // Requests answered with a result; ServeStats::completed also counts
  // those a batch answered with a ShedError.
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> workers;
  workers.reserve(a.clients);
  for (std::size_t c = 0; c < a.clients; ++c) {
    const std::size_t n =
        a.requests / a.clients + (c < a.requests % a.clients ? 1 : 0);
    workers.emplace_back([&, c, n] {
      Pcg32 crng(a.seed ^ mix64(c + 1));
      if (a.arrivalRate <= 0.0) {
        for (std::size_t i = 0; i < n; ++i) {
          try {
            batcher.submit(universe[zipf.sample(crng)]).get();
            answered.fetch_add(1);
          } catch (const ShedError&) {
            // Counted by the batcher; the closed loop just moves on.
          }
        }
        return;
      }
      const std::chrono::duration<double> gap(
          static_cast<double>(a.clients) / a.arrivalRate);
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::future<std::shared_ptr<const serve::TopKResult>>>
          inflight;
      inflight.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(gap * i));
        try {
          inflight.push_back(batcher.submit(universe[zipf.sample(crng)]));
        } catch (const ShedError&) {
          // Shed at the door (queue full / dispatcher dead); counted.
        }
      }
      for (auto& f : inflight) {
        try {
          f.get();
          answered.fetch_add(1);
        } catch (const ShedError&) {
          // Deadline or shard-unavailable shed; counted by the batcher.
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  if (batcher.slo().enabled()) {
    // Let the sliding window drain, then evaluate once more: an overloaded
    // run that breached mid-flight records its recovery transition here
    // (empty window => p99 0 => recovered).
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(batcher.slo().windowMs()) + 50));
    batcher.checkSlo();
  }

  if (follower.joinable()) {
    stopFollower.store(true);
    follower.join();
  }

  const serve::ServeStats stats = batcher.stats();
  serve::ShardedStats shardStats;
  if (sharded) shardStats = sharded->stats();
  serve::FreshnessStats fresh;
  if (publisher) fresh = publisher->freshness();
  const std::string report = serve::serveReportJson(
      stats, sharded ? &shardStats : nullptr, publisher ? &fresh : nullptr);
  std::printf("%s\n", report.c_str());
  if (publisher) {
    const stream::OnlineUpdateStats& us = updater->stats();
    std::fprintf(stderr,
                 "followed %s: %llu batches applied, %llu publishes, newest "
                 "seq %llu, staleness %.3fs\n",
                 a.follow.c_str(),
                 static_cast<unsigned long long>(us.batchesApplied),
                 static_cast<unsigned long long>(fresh.publishes),
                 static_cast<unsigned long long>(us.newestSeq),
                 fresh.stalenessSec);
  }
  std::fprintf(stderr,
               "served %llu of %llu (shed %llu, failed %llu, failovers "
               "%llu)\n",
               static_cast<unsigned long long>(answered.load()),
               static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(stats.shedTotal()),
               static_cast<unsigned long long>(stats.failed),
               static_cast<unsigned long long>(shardStats.failovers));
  if (heartbeat) heartbeat->stop();
  if (!a.reportOut.empty()) {
    if (!writeArtifact(a.reportOut, report, "serve report")) {
      throw Error("cannot write " + a.reportOut);
    }
  }
  return 0;
}

struct Command {
  const char* name;
  unsigned bit;
  const char* operands;  // the positional operands, as the usage names them
  std::size_t positionals;
  int (*run)(const Args&);
};

const Command kCommands[] = {
    {"info", kInfo, " <tensor>", 1, cmdInfo},
    {"generate", kGenerate, " <analog> <out.{tns,bns}>", 2, cmdGenerate},
    {"factor", kFactor, " <tensor>", 1, cmdFactor},
    {"query", kQuery, "", 0, cmdQuery},
    {"serve-bench", kServeBench, "", 0, cmdServeBench},
    {"stream", kStream, "", 0, cmdStream},
};

/// Prints the synopsis of `only`, or of every command, from kFlags.
int usage(const Command* only = nullptr) {
  std::fputs("usage:\n", stderr);
  for (const Command& c : kCommands) {
    if (only && only != &c) continue;
    std::string line = strprintf("  cstf %s%s", c.name, c.operands);
    for (const Flag& f : kFlags) {
      if (!(f.cmds & c.bit)) continue;
      std::string item = f.name;
      if (f.meta) item += strprintf(" %s", f.meta);
      if (const Flag* n = neededBy(f, c.bit)) {
        item += strprintf(" (needs %s)", n->name);
      }
      if (!f.required) item = "[" + item + "]";
      if (line.size() + item.size() >= 79) {
        std::fprintf(stderr, "%s\n", line.c_str());
        line = "     ";
      }
      line += " " + item;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  std::fputs(
      "A flag its command does not read, or one given without the flag it\n"
      "needs, exits 2. factor's --backend (coo|qcoo|bigtensor|reference) and\n"
      "--local-kernel pick one MTTKRP plan; a mix that changes nothing exits\n"
      "2. See tools/README.md.\n",
      stderr);
  return 2;
}

/// Parses argv[2..] for `cmd` against kFlags. On a flag error it names the
/// problem on stderr and returns false.
bool parseArgs(const Command& cmd, int argc, char** argv, Args& a) {
  std::vector<const Flag*> given;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      a.positional.push_back(arg);
      continue;
    }
    const Flag* f = findFlag(arg);
    if (!f) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
    if (!(f->cmds & cmd.bit)) {
      std::fprintf(stderr, "%s does not apply to %s\n", f->name, cmd.name);
      return false;
    }
    if (f->meta && i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", f->name);
      return false;
    }
    if (!setField(*f, f->meta ? argv[++i] : nullptr, a)) return false;
    given.push_back(f);
  }
  const auto sets = [&](const Flag& f) {
    return std::ranges::any_of(
        given, [&](const Flag* g) { return g->field == f.field; });
  };
  for (const Flag& f : kFlags) {
    if (!(f.cmds & cmd.bit)) continue;
    if (f.required && !sets(f)) {
      std::fprintf(stderr, "%s needs %s\n", cmd.name, f.name);
      return false;
    }
    const Flag* n = neededBy(f, cmd.bit);
    if (n && std::ranges::count(given, &f) && !sets(*n)) {
      std::fprintf(stderr, "%s needs %s\n", f.name, n->name);
      return false;
    }
  }
  if (!a.follow.empty() && a.shards > 0) {
    std::fputs("--follow hot-swaps the single-process engine; drop --shards\n",
               stderr);
    return false;
  }
  // --resume D is --checkpoint-dir D that also resumes.
  a.resume = std::ranges::count(given, findFlag("--resume")) > 0;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (argc >= 2 && std::strcmp(argv[1], c.name) == 0) cmd = &c;
  }
  if (!cmd) return usage();
  Args a;
  if (!parseArgs(*cmd, argc, argv, a) ||
      a.positional.size() != cmd->positionals) {
    return usage(cmd);
  }
  try {
    return cmd->run(a);
  } catch (const JobAbortedError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (!a.checkpointDir.empty()) {
      std::fprintf(stderr,
                   "job aborted; rerun with --resume %s to continue from "
                   "the last checkpoint\n",
                   a.checkpointDir.c_str());
    } else {
      std::fprintf(stderr,
                   "job aborted; rerun with --checkpoint-dir to make jobs "
                   "resumable\n");
    }
    return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr,
                 "error: out of memory (a smaller --scale or input may fit)\n");
    return 1;
  }
}
