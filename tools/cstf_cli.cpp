// cstf — command-line front end.
//
//   cstf info <tensor>                     structural statistics
//   cstf generate <analog> <out.{tns,bns}> write a synthetic dataset
//   cstf factor <tensor> [options]         run CP-ALS
//   cstf query --model M --indices SPEC    point / top-k queries
//   cstf serve-bench --model M [options]   closed-loop serving benchmark
//   cstf stream --model M --deltas D       replay a delta log onto a model
//
// <tensor> is a FROSTT .tns path, a binary .bns path, or the name of a
// built-in paper analog
// (delicious3d-s, nell1-s, synt3d-s, flickr-s, delicious4d-s).
//
// factor options:
//   --rank R        CP rank (default 2)
//   --iters N       max iterations (default 20)
//   --tol T         fit-improvement stopping tolerance (default 1e-6)
//   --backend B     coo | qcoo | bigtensor | reference (default qcoo);
//                   mixes that change nothing exit 2 (see usage)
//   --local-kernel K coo | csf per-partition MTTKRP compute kernel
//                   (default coo; csf uses the cache-time compressed-fiber
//                   layout and the broadcast + local-kernel formulation)
//   --nodes N       simulated cluster size (default 8)
//   --seed S        factor initialization seed (default 7)
//   --scale X       scale for analog datasets (default 0.2)
//   --output P      write factors to P.mode<k>.txt and lambda to P.lambda.txt
//   --trace-out P   write a Chrome-trace JSON (load in Perfetto / about:tracing)
//   --report-out P  write the structured run report as JSON
//   --metrics-out P stream live cstf-metrics-v1 heartbeat snapshots to P
//                   (ndjson) and a Prometheus exposition to P.prom
//   --metrics-interval-ms N  heartbeat sampling period (default 100)
//   --checkpoint-dir D   persist ALS state into D (see --checkpoint-every)
//   --checkpoint-every K write a checkpoint every K iterations (default 1)
//   --resume D           continue from the latest checkpoint in D
//   --node-loss-rate R   per-stage-boundary node-loss probability (chaos)
//   --task-failure-rate R per-task-attempt failure probability (chaos)
//   --fault-seed S       seed for the deterministic fault plan
//   --max-stage-attempts N stage attempts before the job aborts (default 4)
//   --model-out P   export the trained model as a CSTFCKP1 file (an export
//                   for query / serve-bench / stream, not a resume point)
//
// A job that exhausts its stage attempts exits with status 3; rerun with
// --resume <checkpoint-dir> to continue from the last persisted state.
//
// query options (model may be an exported model or a checkpoint file, both
// CSTFCKP1, or a checkpoint directory):
//   --model P       model to serve (required)
//   --indices SPEC  comma-separated index per mode; mark at most one mode
//                   free with "_" (also "?", "*", or "-1") for top-k
//   --top-k K       completions to return along the free mode (default 10)
//   --brute-force   disable norm-bound pruning (same results, full scan)
//
// serve-bench options (load generator over the micro-batcher):
//   --model P, --top-k K, --brute-force as for query
//   --mode M        free mode queried (default 0)
//   --clients N     concurrent clients / tenants (default 4)
//   --requests N    total requests across all clients (default 2000)
//   --distinct D    distinct request tuples in the workload (default 256)
//   --zipf S        Zipf exponent for request popularity (default 1.1)
//   --arrival-rate R open-loop arrival rate in requests/sec across all
//                   clients; 0 (default) runs the closed loop, where each
//                   client waits for its previous answer
//   --max-batch B   batcher flush size (default: number of clients)
//   --max-delay-micros U  batcher deadline (default 200)
//   --queue-limit Q admission control: pending requests allowed before
//                   submits shed with ShedError; 0 = unbounded (default)
//   --deadline-us T request deadline; requests still queued after T
//                   microseconds shed with DeadlineExceededError (default 0)
//   --shards S      serve through a ShardedEngine with S row-wise shards
//                   (0 = single-process engine, the default)
//   --replicas R    copies of every shard (capped at S), placed by
//                   chained declustering
//   --kill-node N   fault injection: kill serving node N (one node per
//                   shard, so N < S)...
//   --kill-after B  ...after dispatched batch B (default 1); replicated
//                   shards fail over, unreplicated ones shed
//   --cache-capacity C    result-cache entries, 0 disables (default 4096)
//   --report-out P  also write the serve report JSON to P
//   --metrics-out P / --metrics-interval-ms N  as for factor
//   --slo-p99-us T  SLO watchdog: flag sliding-window p99 latency above
//                   T microseconds (breach/recovery transitions are logged,
//                   traced, and counted; 0 disables)
//   --follow D      follow the delta log in directory D while serving: a
//                   follower thread polls for new batches, applies them to
//                   the model with the online updater, and hot-swaps the
//                   refreshed model into the live batcher (zero dropped
//                   queries across the swap); the report gains a
//                   "freshness" object and the live registry the
//                   cstf_staleness_sec gauge
//   --base T        tensor the followed model was trained on (recommended
//                   with either solver: updates then see the full slice
//                   history, not just the delta entries; DESIGN.md §16)
//   --online-solver als|sgd  row-subset warm-start ALS (default) or the
//                   SGD fallback for the follower / stream replay
//   --publish-every N  publish after every N applied batches (default 1)
//   --poll-ms M     follower poll interval in milliseconds (default 50)
//
// generate options (besides --scale): --delta-batches N with
// --delta-dir D writes the analog as a streaming split instead: the base
// tensor goes to <out>, and N disjoint append batches (seq 1..N) land in D
// as a CSTFDLT1 delta log; --delta-fraction F sets the expected fraction
// of nonzeros routed to the batches (default 0.25); --delta-interval-ms M
// paces the appends M milliseconds apart, simulating a live producer (each
// batch's createdUnixMicros is stamped at append time, so a follower sees
// a real freshness sawtooth).
//
// stream options (offline, deterministic replay of a whole delta log):
//   --model P       warm-start model (required)
//   --deltas D      delta-log directory to replay (required)
//   --base T, --online-solver S as for serve-bench --follow
//   --als-sweeps N / --sgd-epochs N  per-batch solver effort
//   --fit-probe-every K  exact-fit probe cadence in batches (0 = only the
//                   final probe)
//   --model-out P   export the updated model (CSTFCKP1)
//   --report-out P  write a cstf-stream-report-v1 JSON document
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <future>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
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

int usage() {
  std::fprintf(stderr,
               "usage: cstf info <tensor> [--scale X]\n"
               "       cstf generate <analog> <out.tns> [--scale X]\n"
               "                   [--delta-batches N --delta-dir D]\n"
               "                   [--delta-fraction F] [--delta-interval-ms M]\n"
               "       cstf factor <tensor> [--rank R] [--iters N] [--tol T]\n"
               "                   [--backend coo|qcoo|bigtensor|reference]\n"
               "                   [--local-kernel coo|csf]\n"
               "                   [--nodes N] [--seed S] [--scale X]\n"
               "                   [--output PREFIX] [--trace-out P]\n"
               "                   [--report-out P]\n"
               "                   [--checkpoint-dir D] [--checkpoint-every K]\n"
               "                   [--resume D] [--node-loss-rate R]\n"
               "                   [--task-failure-rate R] [--fault-seed S]\n"
               "                   [--max-stage-attempts N] [--model-out P]\n"
               "                   [--metrics-out P] [--metrics-interval-ms N]\n"
               "         plans: coo|qcoo = join chain;\n"
               "         coo|qcoo + --local-kernel csf = broadcast-local;\n"
               "         bigtensor = its join chain; reference = sequential.\n"
               "         Any other mix is refused (exit 2).\n"
               "       cstf query --model P --indices i1,_,i3 [--top-k K]\n"
               "                   [--brute-force]\n"
               "       cstf serve-bench --model P [--mode M] [--top-k K]\n"
               "                   [--clients N] [--requests N] [--distinct D]\n"
               "                   [--zipf S] [--arrival-rate R]\n"
               "                   [--max-batch B] [--max-delay-micros U]\n"
               "                   [--queue-limit Q] [--deadline-us T]\n"
               "                   [--shards S] [--replicas R]\n"
               "                   [--kill-node N] [--kill-after B]\n"
               "                   [--cache-capacity C]\n"
               "                   [--seed S] [--report-out P] [--brute-force]\n"
               "                   [--metrics-out P] [--metrics-interval-ms N]\n"
               "                   [--slo-p99-us T]\n"
               "                   [--follow D] [--base T]\n"
               "                   [--online-solver als|sgd]\n"
               "                   [--publish-every N] [--poll-ms M]\n"
               "                   [--model-out P]\n"
               "       cstf stream --model P --deltas D [--base T]\n"
               "                   [--online-solver als|sgd] [--als-sweeps N]\n"
               "                   [--sgd-epochs N] [--fit-probe-every K]\n"
               "                   [--model-out P] [--report-out P]\n");
  return 2;
}

bool isAnalogName(const std::string& s) {
  for (const std::string& name : tensor::paperAnalogNames()) {
    if (name == s) return true;
  }
  return false;
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

bool parseArgs(int argc, char** argv, Args& a) {
  // Numeric values go through common/parse.hpp's strict checked parsing:
  // a malformed or out-of-range value prints the offending flag and value
  // and fails the parse (the caller exits non-zero), instead of atoi-style
  // silently becoming 0.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  // String flags, kept as given; names are validated where they are used.
  const std::pair<const char*, std::string*> stringFlags[] = {
      {"--backend", &a.backend},          {"--local-kernel", &a.localKernel},
      {"--output", &a.output},            {"--trace-out", &a.traceOut},
      {"--report-out", &a.reportOut},     {"--model-out", &a.modelOut},
      {"--model", &a.model},              {"--indices", &a.indicesSpec},
      {"--metrics-out", &a.metricsOut},   {"--delta-dir", &a.deltaDir},
      {"--deltas", &a.deltas},            {"--follow", &a.follow},
      {"--base", &a.base},                {"--checkpoint-dir", &a.checkpointDir}};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    const auto* str = std::find_if(
        std::begin(stringFlags), std::end(stringFlags),
        [&](const auto& f) { return arg == f.first; });
    if (str != std::end(stringFlags)) {
      const char* v = next(str->first);
      if (!v) return false;
      *str->second = v;
    } else if (arg == "--rank") {
      if (!parseFlag("--rank", next("--rank"), a.rank, 1, kSizeMax)) {
        return false;
      }
    } else if (arg == "--iters") {
      if (!parseFlag("--iters", next("--iters"), a.iters, 1, kIntMax)) {
        return false;
      }
    } else if (arg == "--tol") {
      if (!parseFlag("--tol", next("--tol"), a.tol, 0.0, kDoubleMax)) {
        return false;
      }
    } else if (arg == "--nodes") {
      if (!parseFlag("--nodes", next("--nodes"), a.nodes, 1, kIntMax)) {
        return false;
      }
    } else if (arg == "--seed") {
      if (!parseFlag("--seed", next("--seed"), a.seed)) return false;
    } else if (arg == "--scale") {
      if (!parseFlag("--scale", next("--scale"), a.scale, 1e-9, 1e9)) {
        return false;
      }
    } else if (arg == "--checkpoint-every") {
      if (!parseFlag("--checkpoint-every", next("--checkpoint-every"),
                     a.checkpointEvery, 0, kIntMax)) {
        return false;
      }
    } else if (arg == "--resume") {
      const char* v = next("--resume");
      if (!v) return false;
      a.checkpointDir = v;
      a.resume = true;
    } else if (arg == "--node-loss-rate") {
      if (!parseFlag("--node-loss-rate", next("--node-loss-rate"),
                     a.nodeLossRate, 0.0, 1.0)) {
        return false;
      }
    } else if (arg == "--task-failure-rate") {
      if (!parseFlag("--task-failure-rate", next("--task-failure-rate"),
                     a.taskFailureRate, 0.0, 1.0)) {
        return false;
      }
    } else if (arg == "--fault-seed") {
      if (!parseFlag("--fault-seed", next("--fault-seed"), a.faultSeed)) {
        return false;
      }
    } else if (arg == "--max-stage-attempts") {
      if (!parseFlag("--max-stage-attempts", next("--max-stage-attempts"),
                     a.maxStageAttempts, 1, kIntMax)) {
        return false;
      }
    } else if (arg == "--top-k") {
      if (!parseFlag("--top-k", next("--top-k"), a.topK, 1, kSizeMax)) {
        return false;
      }
    } else if (arg == "--brute-force") {
      a.bruteForce = true;
    } else if (arg == "--mode") {
      if (!parseFlag("--mode", next("--mode"), a.mode, 0, kIntMax)) {
        return false;
      }
    } else if (arg == "--clients") {
      if (!parseFlag("--clients", next("--clients"), a.clients, 1,
                     kSizeMax)) {
        return false;
      }
    } else if (arg == "--requests") {
      if (!parseFlag("--requests", next("--requests"), a.requests, 1,
                     kSizeMax)) {
        return false;
      }
    } else if (arg == "--distinct") {
      if (!parseFlag("--distinct", next("--distinct"), a.distinct, 1,
                     kSizeMax)) {
        return false;
      }
    } else if (arg == "--zipf") {
      if (!parseFlag("--zipf", next("--zipf"), a.zipf, 0.0, kDoubleMax)) {
        return false;
      }
    } else if (arg == "--max-batch") {
      if (!parseFlag("--max-batch", next("--max-batch"), a.maxBatch, 0,
                     kSizeMax)) {
        return false;
      }
    } else if (arg == "--max-delay-micros") {
      if (!parseFlag("--max-delay-micros", next("--max-delay-micros"),
                     a.maxDelayMicros)) {
        return false;
      }
    } else if (arg == "--cache-capacity") {
      if (!parseFlag("--cache-capacity", next("--cache-capacity"),
                     a.cacheCapacity, 0, kSizeMax)) {
        return false;
      }
    } else if (arg == "--shards") {
      if (!parseFlag("--shards", next("--shards"), a.shards, 0, kSizeMax)) {
        return false;
      }
    } else if (arg == "--replicas") {
      if (!parseFlag("--replicas", next("--replicas"), a.replicas, 1,
                     kSizeMax)) {
        return false;
      }
    } else if (arg == "--queue-limit") {
      if (!parseFlag("--queue-limit", next("--queue-limit"), a.queueLimit, 0,
                     kSizeMax)) {
        return false;
      }
    } else if (arg == "--deadline-us") {
      if (!parseFlag("--deadline-us", next("--deadline-us"), a.deadlineUs)) {
        return false;
      }
    } else if (arg == "--arrival-rate") {
      if (!parseFlag("--arrival-rate", next("--arrival-rate"), a.arrivalRate,
                     0.0, kDoubleMax)) {
        return false;
      }
    } else if (arg == "--kill-node") {
      if (!parseFlag("--kill-node", next("--kill-node"), a.killNode, 0,
                     kIntMax)) {
        return false;
      }
    } else if (arg == "--kill-after") {
      if (!parseFlag("--kill-after", next("--kill-after"), a.killAfter)) {
        return false;
      }
    } else if (arg == "--metrics-interval-ms") {
      if (!parseFlag("--metrics-interval-ms", next("--metrics-interval-ms"),
                     a.metricsIntervalMs, 1, kIntMax)) {
        return false;
      }
    } else if (arg == "--slo-p99-us") {
      if (!parseFlag("--slo-p99-us", next("--slo-p99-us"), a.sloP99Us, 0.0,
                     kDoubleMax)) {
        return false;
      }
    } else if (arg == "--delta-batches") {
      if (!parseFlag("--delta-batches", next("--delta-batches"),
                     a.deltaBatches, 1, kSizeMax)) {
        return false;
      }
    } else if (arg == "--delta-fraction") {
      if (!parseFlag("--delta-fraction", next("--delta-fraction"),
                     a.deltaFraction, 1e-9, 1.0 - 1e-9)) {
        return false;
      }
    } else if (arg == "--delta-interval-ms") {
      if (!parseFlag("--delta-interval-ms", next("--delta-interval-ms"),
                     a.deltaIntervalMs, 0, kIntMax)) {
        return false;
      }
    } else if (arg == "--online-solver") {
      const char* v = next("--online-solver");
      if (!v) return false;
      if (std::string(v) != "als" && std::string(v) != "sgd") {
        std::fprintf(stderr,
                     "invalid value '%s' for --online-solver (expected als "
                     "or sgd)\n",
                     v);
        return false;
      }
      a.onlineSolver = v;
    } else if (arg == "--publish-every") {
      if (!parseFlag("--publish-every", next("--publish-every"),
                     a.publishEvery, 1, kSizeMax)) {
        return false;
      }
    } else if (arg == "--poll-ms") {
      if (!parseFlag("--poll-ms", next("--poll-ms"), a.pollMs, 1, kIntMax)) {
        return false;
      }
    } else if (arg == "--als-sweeps") {
      if (!parseFlag("--als-sweeps", next("--als-sweeps"), a.alsSweeps, 1,
                     kIntMax)) {
        return false;
      }
    } else if (arg == "--sgd-epochs") {
      if (!parseFlag("--sgd-epochs", next("--sgd-epochs"), a.sgdEpochs, 1,
                     kIntMax)) {
        return false;
      }
    } else if (arg == "--fit-probe-every") {
      if (!parseFlag("--fit-probe-every", next("--fit-probe-every"),
                     a.fitProbeEvery, 0, kIntMax)) {
        return false;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else {
      a.positional.push_back(arg);
    }
  }
  return true;
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
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      out << strprintf("%.17g%c", m(i, j), j + 1 == m.cols() ? '\n' : ' ');
    }
  }
}

int cmdInfo(const Args& a, const std::string& spec) {
  const tensor::CooTensor t = loadTensor(spec, a.scale);
  std::fputs(tensor::formatStats(t, tensor::analyzeTensor(t)).c_str(),
             stdout);
  return 0;
}

int cmdGenerate(const Args& a, const std::string& analog,
                const std::string& outPath) {
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
    if (a.deltaDir.empty()) {
      std::fprintf(stderr, "--delta-batches needs --delta-dir\n");
      return 2;
    }
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

int cmdFactor(const Args& a, const std::string& spec) {
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

  const tensor::CooTensor t = loadTensor(spec, a.scale);
  std::printf("%s", tensor::formatStats(t, tensor::analyzeTensor(t)).c_str());
  sparkle::Context ctx(cluster);
  if (!a.traceOut.empty()) ctx.trace().setEnabled(true);

  // One call writes every requested artifact through the same atomic
  // writer — the success path and the abort path below must not diverge.
  auto flushArtifacts = [&](const cstf_core::RunReport& report,
                            bool strict) {
    auto put = [&](const std::string& path, const std::string& content,
                   const char* what) {
      if (path.empty()) return;
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
    if (std::isfinite(it.fitDelta)) {
      std::printf("  iter %3d  fit %.6f  (+%.2e)  cluster %s\n", it.iteration,
                  it.fit, it.fitDelta, humanSeconds(it.simTimeSec).c_str());
    } else {
      std::printf("  iter %3d  fit %.6f  (  --   )  cluster %s\n",
                  it.iteration, it.fit, humanSeconds(it.simTimeSec).c_str());
    }
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
    std::ofstream lam(a.output + ".lambda.txt");
    for (double l : result.lambda) lam << strprintf("%.17g\n", l);
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
  std::string cur;
  for (const char c : spec) {
    if (c == ',') {
      toks.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  toks.push_back(cur);
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
      char* end = nullptr;
      const unsigned long v = std::strtoul(toks[m].c_str(), &end, 10);
      CSTF_CHECK(end && *end == '\0' && !toks[m].empty(),
                 "bad index '" + toks[m] + "' in --indices");
      idx[m] = static_cast<Index>(v);
    }
  }
  return idx;
}

int cmdQuery(const Args& a) {
  if (a.model.empty() || a.indicesSpec.empty()) {
    std::fprintf(stderr, "query needs --model and --indices\n");
    return 2;
  }
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
  if (a.model.empty() || a.deltas.empty()) {
    std::fprintf(stderr, "stream needs --model and --deltas\n");
    return 2;
  }
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
    if (std::isfinite(s.lastFitProbe) &&
        a.fitProbeEvery > 0 &&
        s.batchesApplied % std::uint64_t(a.fitProbeEvery) == 0) {
      std::printf("  seq %llu  %zu entries  %s  fit %.6f\n",
                  static_cast<unsigned long long>(d.seq), d.entries.size(),
                  humanSeconds(s.lastBatchSec).c_str(), s.lastFitProbe);
    } else {
      std::printf("  seq %llu  %zu entries  %s\n",
                  static_cast<unsigned long long>(d.seq), d.entries.size(),
                  humanSeconds(s.lastBatchSec).c_str());
    }
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
  if (a.model.empty()) {
    std::fprintf(stderr, "serve-bench needs --model\n");
    return 2;
  }
  serve::CpModel model = serve::loadModel(a.model);
  const ModeId order = static_cast<ModeId>(model.dims.size());
  const std::vector<Index> dims = model.dims;
  CSTF_CHECK(a.mode >= 0 && a.mode < order,
             "--mode out of range for this model");
  const ModeId mode = static_cast<ModeId>(a.mode);
  CSTF_CHECK(a.clients >= 1 && a.requests >= 1 && a.distinct >= 1,
             "serve-bench needs at least one client, request, and tuple");
  CSTF_CHECK(a.shards > 0 || a.replicas == 1,
             "--replicas needs --shards");
  CSTF_CHECK(a.shards > 0 || a.killNode < 0, "--kill-node needs --shards");
  CSTF_CHECK(a.killNode < 0 || static_cast<std::size_t>(a.killNode) < a.shards,
             "--kill-node " + std::to_string(a.killNode) +
                 " is out of range: --shards " + std::to_string(a.shards) +
                 " serves on nodes 0.." + std::to_string(a.shards - 1));
  CSTF_CHECK(a.follow.empty() || a.shards == 0,
             "--follow hot-swaps the single-process engine; drop --shards");

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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  Args a;
  if (!parseArgs(argc, argv, a)) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "info" && a.positional.size() == 1) {
      return cmdInfo(a, a.positional[0]);
    }
    if (cmd == "generate" && a.positional.size() == 2) {
      return cmdGenerate(a, a.positional[0], a.positional[1]);
    }
    if (cmd == "factor" && a.positional.size() == 1) {
      return cmdFactor(a, a.positional[0]);
    }
    if (cmd == "query" && a.positional.empty()) {
      return cmdQuery(a);
    }
    if (cmd == "serve-bench" && a.positional.empty()) {
      return cmdServeBench(a);
    }
    if (cmd == "stream" && a.positional.empty()) {
      return cmdStream(a);
    }
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
  return usage();
}
