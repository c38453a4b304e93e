// Training workloads: CP-ALS on a paper analog, repeated from scratch
// (generate -> context -> cpAls) until the time budget is spent.
//
//   train-qcoo     delicious3d-s, CSTF-QCOO join chain, COO kernel, rank 2
//   train-csf-r16  flickr-s, broadcast + CSF local kernel, rank 16
//
// Set-up of a repetition runs through the end of iteration 1 (it carries
// distribution, cache fill, skew census and CSF layout build); iterations
// 2..N are the steady state the operation-latency metrics sample. In traced
// runs every other repetition records the program's spans from iteration 2
// on, and the self-time ledger, stage and task views come from those.
#include <cmath>
#include <memory>
#include <optional>

#include "common/strings.hpp"
#include "common/trace.hpp"
#include "la/matrix.hpp"
#include "la/normalize.hpp"
#include "la/solve.hpp"
#include "harness.hpp"
#include "measure.hpp"
#include "sparkle/context.hpp"

namespace perfbench {

using namespace cstf;

namespace {

TrainSpec trainSpec(const std::string& workload) {
  TrainSpec s;
  if (workload == "train-qcoo") {
    s.analog = "delicious3d-s";
    s.backend = cstf_core::Backend::kQcoo;
    s.kernel = sparkle::LocalKernel::kCoo;
    s.rank = 2;
  } else if (workload == "train-csf-r16") {
    s.analog = "flickr-s";
    s.backend = cstf_core::Backend::kCoo;
    s.kernel = sparkle::LocalKernel::kCsf;
    s.rank = 16;
  } else {
    throw Error("unknown train workload " + workload);
  }
  return s;
}

/// Per-steady-iteration engine work and time, from one repetition.
struct Steady {
  sparkle::MetricsTotals work;  // registry totals delta, iterations 2..N
  double simMttkrp = 0.0;
  double simOther = 0.0;
  double taskBusy = 0.0;
  double busyShuffle = 0.0;
  double busyResult = 0.0;
  std::uint64_t recordsShuffle = 0;
  std::uint64_t recordsResult = 0;
  double reduceImbalance = 0.0;
  std::vector<double> modeUpdateWall;
};

struct Ledger {
  double wall = 0.0;
  std::map<std::string, double> rows;
};

struct Rep {
  double setup = 0.0;
  double generate = 0.0;
  double context = 0.0;
  double iter1 = 0.0;
  std::vector<double> steadyWall;
  double steadySim = 0.0;
  /// Process CPU seconds over iterations 2..N.
  double steadyCpu = 0.0;
  double finalFit = 0.0;
  std::size_t poolThreads = 0;
  cstf_core::RunReport report;
  std::vector<la::Matrix> factors;
  Steady steady;
  std::optional<Ledger> ledger;
  std::unique_ptr<tensor::CooTensor> tensor;
};

/// Ledger row of a program span: iteration body, mode driver, or stage kind.
std::string ledgerRow(const TraceEvent& e) {
  if (e.category == "cp-als") return "iteration";
  if (e.category == "mode") return "driver";
  if (e.category == "stage") return e.name.substr(0, e.name.find(':'));
  return "";
}

Rep runRep(const TrainSpec& spec, std::uint64_t seed, bool traced) {
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  rep.tensor = std::make_unique<tensor::CooTensor>(
      tensor::generateRandom(analogOptions(spec.analog, seed)));
  const Clock::time_point tGen = Clock::now();
  sparkle::Context ctx(clusterConfig(spec));
  const Clock::time_point tCtx = Clock::now();
  rep.generate = secondsBetween(t0, tGen);
  rep.context = secondsBetween(tGen, tCtx);
  rep.poolThreads = ctx.pool().threadCount() + 1;  // the caller helps

  TraceRecorder rec;
  ctx.setTrace(&rec);
  const std::uint32_t driverTid = currentThreadIndex();
  sparkle::MetricsTotals base;
  double baseMttkrpSim = 0.0;
  double baseOtherSim = 0.0;
  std::size_t baseStage = 0;
  double windowStart = 0.0;
  double windowEnd = 0.0;
  double cpuStart = 0.0;

  cstf_core::CpAlsOptions opts = cpAlsOptions(spec, seed);
  opts.onIteration = [&](const cstf_core::CpAlsIterationStats& it) {
    if (it.iteration == 1) {
      rep.setup = secondsBetween(t0, Clock::now());
      rep.iter1 = it.wallTimeSec;
      base = ctx.metrics().totals();
      baseMttkrpSim = ctx.metrics().totalsForScope("MTTKRP").simTimeSec;
      baseOtherSim = ctx.metrics().totalsForScope("Other").simTimeSec;
      baseStage = ctx.metrics().stageCount();
      // Spans constructed from here on (iteration 2 onward) are recorded.
      if (traced) rec.setEnabled(true);
      windowStart = rec.nowMicros();
      cpuStart = processCpuSeconds();
    } else {
      rep.steadyWall.push_back(it.wallTimeSec);
      rep.steadySim += it.simTimeSec;
      windowEnd = rec.nowMicros();
      rep.steadyCpu = processCpuSeconds() - cpuStart;
    }
  };
  cstf_core::CpAlsResult res = cstf_core::cpAls(ctx, *rep.tensor, opts);
  rec.setEnabled(false);

  rep.finalFit = res.finalFit;
  rep.factors = std::move(res.factors);
  rep.report = std::move(res.report);

  Steady& st = rep.steady;
  const sparkle::MetricsTotals end = ctx.metrics().totals();
  st.work.stages = end.stages - base.stages;
  st.work.shuffleOps = end.shuffleOps - base.shuffleOps;
  st.work.shuffleRecords = end.shuffleRecords - base.shuffleRecords;
  st.work.shuffleBytesRemote = end.shuffleBytesRemote - base.shuffleBytesRemote;
  st.work.shuffleBytesLocal = end.shuffleBytesLocal - base.shuffleBytesLocal;
  st.work.broadcastBytes = end.broadcastBytes - base.broadcastBytes;
  st.work.recordsProcessed = end.recordsProcessed - base.recordsProcessed;
  st.work.flops = end.flops - base.flops;
  st.work.taskRetries = end.taskRetries - base.taskRetries;
  st.simMttkrp =
      ctx.metrics().totalsForScope("MTTKRP").simTimeSec - baseMttkrpSim;
  st.simOther = ctx.metrics().totalsForScope("Other").simTimeSec - baseOtherSim;
  st.reduceImbalance =
      ctx.metrics().reduceSkewForStagesFrom(baseStage).imbalance;
  const std::vector<sparkle::StageMetrics> stages = ctx.metrics().stages();
  for (std::size_t i = baseStage; i < stages.size(); ++i) {
    for (const sparkle::TaskRecord& t : stages[i].tasks) {
      st.taskBusy += t.wallTimeSec;
      if (stages[i].kind == sparkle::StageKind::kShuffle) {
        st.busyShuffle += t.wallTimeSec;
        st.recordsShuffle += t.work.recordsProcessed;
      } else if (stages[i].kind == sparkle::StageKind::kResult) {
        st.busyResult += t.wallTimeSec;
        st.recordsResult += t.work.recordsProcessed;
      }
    }
  }
  for (const auto& it : rep.report.iterations) {
    if (it.iteration < 2) continue;
    for (const auto& m : it.modes) st.modeUpdateWall.push_back(m.wallTimeSec);
  }

  if (traced) {
    // Exclusive time of the driver thread's program spans inside the
    // steady window; tasks are the pool's busy view, reported apart.
    Ledger ledger;
    ledger.wall = (windowEnd - windowStart) * 1e-6;
    std::vector<Span> spans;
    for (const TraceEvent& e : rec.events()) {
      const std::string row = ledgerRow(e);
      if (e.phase != 'X' || e.tid != driverTid || row.empty()) continue;
      const double s = std::max(e.tsMicros, windowStart);
      const double f = std::min(e.tsMicros + e.durMicros, windowEnd);
      if (f > s) spans.push_back({e.name, row, e.tid, s * 1e-6, f * 1e-6});
    }
    ledger.rows = selfTimeByCategory(spans);
    rep.ledger = std::move(ledger);
  }
  return rep;
}

/// Median seconds of `fn` over `reps` calls; `prepare` runs untimed first.
template <typename Prepare, typename Fn>
double medianCall(int reps, Prepare prepare, Fn fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    auto arg = prepare();
    const Clock::time_point a = Clock::now();
    fn(arg);
    t.push_back(secondsBetween(a, Clock::now()));
  }
  return median(t);
}

/// la::gram / pinvSym / normalizeColumns timed on the run's own factor
/// shapes: one call per mode, as one CP-ALS iteration makes them.
void timeLinearAlgebra(const std::vector<la::Matrix>& factors, Result& r) {
  constexpr int kReps = 7;
  const std::size_t order = factors.size();
  std::vector<la::Matrix> grams;
  double gramS = 0.0;
  double pinvS = 0.0;
  double normS = 0.0;
  for (const la::Matrix& f : factors) {
    gramS += medianCall(
        kReps, [] { return 0; },
        [&](int) { la::Matrix g = la::gram(f); (void)g(0, 0); });
    grams.push_back(la::gram(f));
  }
  for (std::size_t n = 0; n < order; ++n) {
    la::Matrix v(grams[n].rows(), grams[n].cols(), 1.0);
    for (std::size_t d = 0; d < order; ++d) {
      if (d != n) v = la::hadamard(v, grams[d]);
    }
    pinvS += medianCall(
        kReps, [] { return 0; },
        [&](int) { la::Matrix p = la::pinvSym(v); (void)p(0, 0); });
    normS += medianCall(
        kReps, [&] { return factors[n]; },
        [](la::Matrix& m) { (void)la::normalizeColumns(m); });
  }
  r.set("la.gram_s", gramS, "s");
  r.set("la.pinv_s", pinvS, "s");
  r.set("la.normalize_s", normS, "s");
}

}  // namespace

Result runTrain(const RunArgs& args) {
  const TrainSpec spec = trainSpec(args.workload);
  Result r;
  describe(spec, r);

  // Repetitions until the budget is spent (at least two, so set-up has a
  // median and determinism a comparison). Traced runs alternate untraced
  // and traced repetitions; the ratio of their steady medians is the
  // tracing overhead.
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  while (reps.size() < 2 ||
         secondsBetween(start, Clock::now()) < args.seconds) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    reps.push_back(runRep(spec, args.seed, traced));
    // Keep only the latest tensor alive; the gate reuses it.
    if (reps.size() > 1) reps[reps.size() - 2].tensor.reset();
  }
  const std::size_t iters = std::size_t(spec.iterations);
  r.attempted = reps.size() * iters;
  r.config["repetitions"] = std::to_string(reps.size());

  // ---- correctness gate (outside the timed phase) ----
  const Rep& first = reps.front();
  for (const Rep& rep : reps) {
    r.check(rep.steadyWall.size() + 1 == iters,
            strprintf("a repetition ran %zu of %zu iterations",
                      rep.steadyWall.size() + 1, iters));
    r.check(rep.finalFit == first.finalFit,
            strprintf("fit not reproducible: %.17g vs %.17g", rep.finalFit,
                      first.finalFit));
    r.check(rep.steadySim == first.steadySim,
            "sim time not reproducible across repetitions");
    r.check(rep.steady.work.shuffleBytesRemote ==
                    first.steady.work.shuffleBytesRemote &&
                rep.steady.work.recordsProcessed ==
                    first.steady.work.recordsProcessed &&
                rep.steady.work.flops == first.steady.work.flops,
            "engine counters not reproducible across repetitions");
  }
  TrainSpec refSpec = spec;
  refSpec.backend = cstf_core::Backend::kReference;
  refSpec.kernel = sparkle::LocalKernel::kCoo;
  sparkle::Context refCtx(clusterConfig(refSpec));
  const cstf_core::CpAlsResult ref = cstf_core::cpAls(
      refCtx, *reps.back().tensor, cpAlsOptions(refSpec, args.seed));
  r.check(ref.finalFit == first.finalFit,
          strprintf("fit %.17g differs from the reference backend's %.17g",
                    first.finalFit, ref.finalFit));
  r.notes.push_back(strprintf("%s: fit %.17g (reference %.17g), %zu reps",
                              args.workload.c_str(), first.finalFit,
                              ref.finalFit, reps.size()));
  r.failed = r.mismatches.empty() ? 0 : r.attempted;

  std::vector<double> setup;
  std::vector<double> steadyAll;
  std::vector<double> steadyTraced;
  std::vector<double> steadyUntraced;
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup);
    steadyAll.insert(steadyAll.end(), rep.steadyWall.begin(),
                     rep.steadyWall.end());
    auto& side = rep.ledger ? steadyTraced : steadyUntraced;
    side.insert(side.end(), rep.steadyWall.begin(), rep.steadyWall.end());
  }
  const double steadyIters = double(iters - 1);
  const double simPerIter = first.steadySim / steadyIters;

  if (!args.trace) {
    double wallSum = 0.0;
    for (const double w : steadyAll) wallSum += w;
    double cpuSum = 0.0;
    for (const Rep& rep : reps) cpuSum += rep.steadyCpu;
    const Tail tail = tailPercentile(steadyAll);
    r.set("setup_s", median(setup), "s");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.set("op_p50_us", median(steadyAll) * 1e6, "us");
    r.set("ops_per_s", double(steadyAll.size()) / wallSum, "1/s");
    r.set("cpu_us_per_op", cpuSum / double(steadyAll.size()) * 1e6, "us");
    r.set("sim_s_per_iter", simPerIter, "s");
    r.set("ok_frac", r.mismatches.empty() ? 1.0 : 0.0, "ratio");
    r.notes.push_back(strprintf(
        "iteration p50 %.4f s, p%g %.4f s (%zu samples, %zu beyond)",
        median(steadyAll), tail.pct, tail.value, tail.samples, tail.beyond));
    return r;
  }

  // ---- per-layer metrics (traced run) ----
  const Tail tail = tailPercentile(steadyAll);
  r.set("op.tail_us", tail.value * 1e6, "us");
  r.set("op.tail_pct", tail.pct, "pct");
  r.set("op.samples", double(tail.samples), "count");
  std::vector<double> generate;
  std::vector<double> context;
  std::vector<double> iter1;
  for (const Rep& rep : reps) {
    generate.push_back(rep.generate);
    context.push_back(rep.context);
    iter1.push_back(rep.iter1);
  }
  r.set("cstf.fit", first.finalFit, "ratio");
  r.set("tensor.generate_s", median(generate), "s");
  r.set("tensor.csf_build_s", first.report.layoutBuildWallSec, "s");
  r.set("tensor.csf_bytes", double(first.report.layoutBytes), "bytes");

  const Steady& w = first.steady;
  r.set("sparkle.context_s", median(context), "s");
  r.set("sparkle.stages", double(w.work.stages) / steadyIters, "count");
  r.set("sparkle.shuffle_ops", double(w.work.shuffleOps) / steadyIters,
        "count");
  r.set("sparkle.shuffle_records", double(w.work.shuffleRecords) / steadyIters,
        "count");
  r.set("sparkle.shuffle_bytes_remote",
        double(w.work.shuffleBytesRemote) / steadyIters, "bytes");
  r.set("sparkle.shuffle_bytes_local",
        double(w.work.shuffleBytesLocal) / steadyIters, "bytes");
  r.set("sparkle.broadcast_bytes", double(w.work.broadcastBytes) / steadyIters,
        "bytes");
  r.set("sparkle.records_processed",
        double(w.work.recordsProcessed) / steadyIters, "count");
  r.set("sparkle.task_retries", double(w.work.taskRetries) / steadyIters,
        "count");
  r.set("sparkle.reduce_imbalance", w.reduceImbalance, "ratio");
  r.set("cstf.flops", double(w.work.flops) / steadyIters, "count");
  r.set("cstf.sim_mttkrp_s", w.simMttkrp / steadyIters, "s");
  r.set("cstf.sim_other_s", w.simOther / steadyIters, "s");

  // Timing views: medians over the traced repetitions.
  std::vector<double> shuffleSelf, resultSelf, driverSelf, iterSelf;
  std::vector<double> unattributed, ledgerWall, closure;
  std::vector<double> busy, util, nsRec, nsShuffle, nsResult, modeUpdate;
  for (const Rep& rep : reps) {
    if (!rep.ledger) continue;
    const Ledger& l = *rep.ledger;
    auto row = [&](const char* k) {
      const auto it = l.rows.find(k);
      return it == l.rows.end() ? 0.0 : it->second;
    };
    double attributed = 0.0;
    for (const auto& [k, v] : l.rows) attributed += v;
    shuffleSelf.push_back(row("shuffle") / steadyIters);
    resultSelf.push_back(row("result") / steadyIters);
    driverSelf.push_back(row("driver") / steadyIters);
    iterSelf.push_back(row("iteration") / steadyIters);
    unattributed.push_back((l.wall - attributed) / steadyIters);
    ledgerWall.push_back(l.wall / steadyIters);
    closure.push_back(attributed / l.wall);
    const Steady& s = rep.steady;
    busy.push_back(s.taskBusy / steadyIters);
    const double stageWall = row("shuffle") + row("result");
    util.push_back(stageWall > 0.0
                       ? s.taskBusy / (stageWall * double(rep.poolThreads))
                       : 0.0);
    const std::uint64_t records = s.recordsShuffle + s.recordsResult;
    nsRec.push_back(records ? s.taskBusy / double(records) * 1e9 : 0.0);
    nsShuffle.push_back(s.recordsShuffle
                            ? s.busyShuffle / double(s.recordsShuffle) * 1e9
                            : 0.0);
    nsResult.push_back(s.recordsResult
                           ? s.busyResult / double(s.recordsResult) * 1e9
                           : 0.0);
    modeUpdate.insert(modeUpdate.end(), s.modeUpdateWall.begin(),
                      s.modeUpdateWall.end());
  }
  r.set("sparkle.shuffle_self_s", median(shuffleSelf), "s");
  r.set("sparkle.result_self_s", median(resultSelf), "s");
  r.set("sparkle.task_busy_s", median(busy), "s");
  r.set("sparkle.pool_util", median(util), "ratio");
  r.set("sparkle.host_ns_per_record", median(nsRec), "ns");
  r.set("sparkle.shuffle.host_ns_per_record", median(nsShuffle), "ns");
  r.set("sparkle.result.host_ns_per_record", median(nsResult), "ns");
  r.set("sparkle.model_ns_per_record",
        1e9 / clusterConfig(spec).recordsPerSecPerCore, "ns");
  r.set("cstf.driver_self_s", median(driverSelf), "s");
  r.set("cstf.iteration_self_s", median(iterSelf), "s");
  r.set("cstf.mode_update_s", median(modeUpdate), "s");
  r.set("ledger.wall_s", median(ledgerWall), "s");
  r.set("ledger.unattributed_s", median(unattributed), "s");
  r.set("ledger.closure", median(closure), "ratio");
  for (const double c : closure) {
    r.check(std::abs(c - 1.0) <= 0.05,
            strprintf("self-time ledger closes to %.3f of wall", c));
  }

  const double iterS = median(steadyUntraced);
  r.set("cstf.iter_s", iterS, "s");
  r.set("cstf.iter1_s", median(iter1), "s");
  r.set("cstf.sim_over_host", simPerIter / iterS, "ratio");
  r.set("trace.overhead", median(steadyTraced) / iterS, "ratio");
  const double kernelS = first.report.localKernelWallSec / double(iters);
  r.set("cstf.kernel_cpu_s", kernelS, "s");
  r.set("cstf.kernel_invocations",
        double(first.report.localKernelInvocations) / double(iters), "count");
  r.set("cstf.kernel_gflops",
        kernelS > 0.0 ? double(w.work.flops) / steadyIters / kernelS * 1e-9
                      : 0.0,
        "GFLOP/s");
  std::vector<double> refIter;
  for (const auto& it : ref.iterations) {
    if (it.iteration >= 2) refIter.push_back(it.wallTimeSec);
  }
  r.set("cstf.reference_iter_s", median(refIter), "s");
  timeLinearAlgebra(first.factors, r);
  r.notes.push_back(strprintf(
      "ledger per steady iteration: wall %.4f s = shuffle %.4f + result "
      "%.4f + driver %.4f + iteration %.4f + unattributed %.4f",
      median(ledgerWall), median(shuffleSelf), median(resultSelf),
      median(driverSelf), median(iterSelf), median(unattributed)));
  r.notes.push_back(strprintf(
      "host vs model: %.0f ns/record host (shuffle %.0f, result %.0f) vs "
      "%.0f model; sim/host %.1f",
      median(nsRec), median(nsShuffle), median(nsResult),
      1e9 / clusterConfig(spec).recordsPerSecPerCore, simPerIter / iterS));
  return r;
}

}  // namespace perfbench
