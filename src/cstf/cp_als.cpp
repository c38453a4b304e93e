#include "cstf/cp_als.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "common/log.hpp"
#include "common/metrics_registry.hpp"
#include "common/strings.hpp"
#include "cstf/checkpoint.hpp"
#include "cstf/factors.hpp"
#include "cstf/mttkrp_bigtensor.hpp"
#include "cstf/mttkrp_coo.hpp"
#include "cstf/mttkrp_local.hpp"
#include "cstf/mttkrp_qcoo.hpp"
#include "cstf/plan.hpp"
#include "la/normalize.hpp"
#include "la/solve.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::cstf_core {

namespace {

/// <X, model> via the SPLATT trick: with M the MTTKRP result for the last
/// updated mode and A that mode's (normalized) factor,
/// <X, model> = sum_r lambda_r <A(:,r), M(:,r)>.
double innerProductFromMttkrp(const la::Matrix& m, const la::Matrix& a,
                              const std::vector<double>& lambda) {
  double acc = 0.0;
  for (std::size_t r = 0; r < lambda.size(); ++r) {
    double dot = 0.0;
    for (std::size_t i = 0; i < m.rows(); ++i) dot += m(i, r) * a(i, r);
    acc += lambda[r] * dot;
  }
  return acc;
}

/// Everything cpAls does but close the report.
void runCpAls(sparkle::Context& ctx, const tensor::CooTensor& X,
              const CpAlsOptions& opts, CpAlsResult& result,
              LocalMttkrpTelemetry& localTel) {
  const ModeId order = X.order();
  CSTF_CHECK(order >= 2, "CP-ALS needs order >= 2");
  CSTF_CHECK(opts.rank >= 1, "rank must be >= 1");
  CSTF_CHECK(opts.maxIterations >= 1, "need at least one iteration");
  const MttkrpPlan plan = resolvePlan(opts, ctx.config());
  using Path = MttkrpPlan::Path;
  if (plan.backend == Backend::kBigtensor) {
    CSTF_CHECK(order == 3, "BIGtensor CP supports 3rd-order tensors only");
  }

  const std::vector<Index>& dims = X.dims();
  result.factors = randomFactors(dims, opts.rank, opts.seed);
  result.lambda.assign(opts.rank, 1.0);

  plan.fillReport(result.report);
  result.report.rank = opts.rank;
  result.report.dims = dims;
  result.report.nnz = X.nnz();
  result.report.nodes = ctx.config().numNodes;

  // Driver restart: restore the newest checkpoint and continue its
  // trajectory. Only the ALS state (factors, lambda, previous fit)
  // persists; the tensor RDD and engines below are rebuilt
  // from lineage exactly as a fresh run would build them.
  int startIter = 1;
  // The fit of the last completed iteration, which the next compares
  // against: NaN until iteration 1 completes (it has no previous fit, so
  // its fitDelta is explicitly undefined, serialized as null). A resumed
  // run starts from the checkpointed fit, so convergence detection
  // behaves as if the run had never been interrupted.
  double& prevFit = result.finalFit;
  prevFit = std::numeric_limits<double>::quiet_NaN();
  if (opts.resume) {
    if (std::optional<CpAlsCheckpoint> ck =
            loadLatestCheckpoint(opts.checkpointDir)) {
      CSTF_CHECK(ck->seed == opts.seed && ck->rank == opts.rank &&
                     ck->dims == dims,
                 "checkpoint metadata (seed/rank/dims) does not match this "
                 "run's configuration");
      // An exported model records no plan, so it never resumes.
      CSTF_CHECK(ck->plan == result.report.plan,
                 "checkpoint plan '" + ck->plan + "'" +
                     (ck->plan.empty() ? " (an exported model)" : "") +
                     " does not match this run's plan '" +
                     result.report.plan + "'");
      result.factors = std::move(ck->factors);
      result.lambda = std::move(ck->lambda);
      prevFit = ck->prevFit;
      startIter = ck->iteration + 1;
      result.report.resumedFromIteration = ck->iteration;
      CSTF_LOG_INFO("cp-als[%s] resumed from '%s' after iteration %d",
                    result.report.plan.c_str(), opts.checkpointDir.c_str(),
                    ck->iteration);
    } else {
      CSTF_LOG_INFO("cp-als[%s] resume: no checkpoint in '%s', starting "
                    "fresh",
                    result.report.plan.c_str(), opts.checkpointDir.c_str());
    }
  }

  // Gram cache: recomputed per factor only when that factor updates.
  std::vector<la::Matrix> grams;
  grams.reserve(order);
  for (const la::Matrix& f : result.factors) {
    grams.push_back(la::gram(f, &ctx.pool()));
  }

  // Distribute and cache the tensor (cache() is a no-op in Hadoop mode, so
  // the BIGtensor baseline honestly re-reads its input per job).
  auto Xrdd = tensorToRdd(ctx, X, opts.mttkrp.numPartitions);
  if (opts.tensorStorage != sparkle::StorageLevel::kNone) {
    Xrdd.cache(opts.tensorStorage);
  }

  // Per-path setup, before iteration 1: broadcast-local builds the CSF
  // layouts every mode update reuses; QCOO seeds its queues.
  const MttkrpOptions& mttkrpOpts = opts.mttkrp;
  std::optional<QcooEngine> qcoo;
  if (plan.path == Path::kBroadcastLocal) {
    sparkle::ScopedStage scope(ctx.metrics(), "CsfLayout");
    ensureCsfLayouts(ctx, Xrdd, order, &localTel);
  } else if (plan.path == Path::kJoinChain && plan.backend == Backend::kQcoo) {
    qcoo.emplace(ctx, Xrdd, dims, result.factors, mttkrpOpts);
  }

  const double xNormSq = X.normSq();

  // Live instrument panel: the heartbeat samples these mid-run, so a tail
  // on the metrics stream shows iteration progress and fit as they happen.
  metrics::Registry& live = metrics::globalRegistry();
  metrics::Gauge& liveIteration = live.gauge("cstf_iteration");
  metrics::Gauge& liveFit = live.gauge("cstf_fit");
  metrics::Gauge& liveFitDelta = live.gauge("cstf_fit_delta");
  metrics::Counter& liveIterations = live.counter("cstf_iterations_total");
  metrics::AtomicHistogram& liveIterSim =
      live.histogram("cstf_iteration_sim_sec");

  for (int iter = startIter; iter <= opts.maxIterations; ++iter) {
    const sparkle::MetricsTotals iterBase = ctx.metrics().totals();
    const auto wallBefore = std::chrono::steady_clock::now();
    TraceSpan iterSpan(ctx.trace(), strprintf("iteration-%d", iter),
                       "cp-als");
    la::Matrix lastMttkrp;

    // Per-mode telemetry: stage-log-totals deltas between mode boundaries,
    // so the entries decompose the engine work of the iteration exactly.
    CpAlsIterationStats stats;
    stats.iteration = iter;
    sparkle::MetricsTotals modeBase = iterBase;
    std::size_t modeStageBase = ctx.metrics().stageCount();
    auto modeWall = wallBefore;
    auto emitModeTelemetry = [&](ModeId n) {
      const auto now = std::chrono::steady_clock::now();
      const sparkle::MetricsTotals after = ctx.metrics().totals();
      // Reduce-task record skew of this mode's shuffles: how unevenly the
      // hash partitioner spreads hot tensor-mode keys.
      ModeTelemetry mt{after - modeBase, iter, int(n) + 1,
                       ctx.metrics().reduceSkewForStagesFrom(modeStageBase)};
      mt.wallTimeSec = std::chrono::duration<double>(now - modeWall).count();
      live.histogram("cstf_mode_sim_sec", {{"mode", std::to_string(mt.mode)}})
          .record(mt.simTimeSec);
      stats.modes.push_back(mt);
      modeBase = after;
      modeStageBase = ctx.metrics().stageCount();
      modeWall = now;
    };

    for (ModeId n = 0; n < order; ++n) {
      la::Matrix m;
      {
        TraceSpan modeSpan(ctx.trace(), strprintf("MTTKRP-%d", int(n) + 1),
                           "mode");
        {
          sparkle::ScopedStage scope(ctx.metrics(),
                                     strprintf("MTTKRP-%d", int(n) + 1));
          switch (plan.path) {
            case Path::kJoinChain:
              if (qcoo) {
                CSTF_ASSERT(qcoo->nextMode() == n,
                            "QCOO mode schedule broken");
                m = qcoo->mttkrpNext(result.factors);
              } else if (plan.backend == Backend::kBigtensor) {
                m = mttkrpBigtensor(ctx, Xrdd, dims, result.factors, n,
                                    mttkrpOpts);
              } else {
                m = mttkrpCoo(ctx, Xrdd, dims, result.factors, n,
                              mttkrpOpts);
              }
              break;
            case Path::kBroadcastLocal:
              m = mttkrpLocal(ctx, Xrdd, dims, result.factors, n,
                              mttkrpOpts, &localTel);
              break;
            case Path::kSequential:
              m = tensor::referenceMttkrp(X, result.factors, n);
              break;
          }
        }
        // ALS step: solve the normal equations against the Hadamard
        // product of the other modes' gram matrices, normalize, and
        // refresh this mode's gram. Each piece runs under an `la` span, so
        // a trace accounts for the driver's share of the mode update; the
        // R-wide pieces split across the engine's pool (bit-identical to
        // one thread, la/matrix.hpp).
        sparkle::ScopedStage scope(ctx.metrics(), "Other");
        la::Matrix v(opts.rank, opts.rank, 1.0);
        {
          TraceSpan span(ctx.trace(), "gram-hadamard", "la");
          for (ModeId d = 0; d < order; ++d) {
            if (d != n) v = la::hadamard(v, grams[d]);
          }
        }
        la::Matrix updated;
        {
          TraceSpan span(ctx.trace(), "solve", "la");
          updated = la::matmul(m, la::pinvSym(v), &ctx.pool());
        }
        {
          TraceSpan span(ctx.trace(), "normalize", "la");
          result.lambda = la::normalizeColumns(updated, &ctx.pool());
        }
        result.factors[n] = std::move(updated);
        {
          TraceSpan span(ctx.trace(), "gram", "la");
          grams[n] = la::gram(result.factors[n], &ctx.pool());
        }
        if (n + 1 == order) lastMttkrp = std::move(m);
      }
      emitModeTelemetry(n);
    }

    stats.simTimeSec = ctx.metrics().totals().simTimeSec - iterBase.simTimeSec;
    stats.wallTimeSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallBefore)
            .count();

    if (opts.computeFit) {
      const double inner =
          innerProductFromMttkrp(lastMttkrp, result.factors[order - 1],
                                 result.lambda);
      // The gram cache holds la::gram of every current factor, so the
      // model norm reuses it.
      const double modelSq = tensor::modelNormSqFromGrams(grams, result.lambda);
      // An all-zero tensor has fit 0 by convention. A NaN anywhere (a NaN
      // tensor value, an overflowed model) keeps the fit NaN, which never
      // passes the convergence test; round-off below zero is clamped.
      const double residSq = std::max(xNormSq - 2.0 * inner + modelSq, 0.0);
      stats.fit = xNormSq == 0.0
                      ? 0.0
                      : 1.0 - std::sqrt(residSq) / std::sqrt(xNormSq);
      stats.fitDelta = stats.fit - prevFit;
      CSTF_LOG_DEBUG("cp-als[%s] iter %d fit=%.6f (delta %.2e) sim=%.3fs",
                     result.report.plan.c_str(), iter, stats.fit,
                     stats.fitDelta, stats.simTimeSec);
    }
    double l2 = 0.0;
    double lmin = result.lambda.empty() ? 0.0 : result.lambda.front();
    double lmax = lmin;
    for (const double l : result.lambda) {
      l2 += l * l;
      lmin = std::min(lmin, l);
      lmax = std::max(lmax, l);
    }
    stats.lambdaL2 = std::sqrt(l2);
    stats.lambdaMin = lmin;
    stats.lambdaMax = lmax;
    result.report.iterations.push_back(stats);

    liveIterations.add();
    liveIteration.set(double(iter));
    liveIterSim.record(stats.simTimeSec);
    if (std::isfinite(stats.fit)) liveFit.set(stats.fit);
    // Iteration 1's delta is NaN by design; the gauge keeps its last value.
    if (std::isfinite(stats.fitDelta)) liveFitDelta.set(stats.fitDelta);
    if (opts.onIteration) opts.onIteration(stats);

    if (!opts.checkpointDir.empty() && opts.checkpointEvery > 0 &&
        iter % opts.checkpointEvery == 0) {
      const std::string path = saveCheckpoint(
          opts.checkpointDir,
          {.seed = opts.seed,
           .iteration = iter,
           // The fit the next iteration compares against, so a resume
           // restores exactly that comparison state.
           .prevFit = stats.fit,
           .plan = result.report.plan,
           .lambda = result.lambda,
           .factors = result.factors});
      CSTF_LOG_DEBUG("cp-als checkpoint written: %s", path.c_str());
      if (ctx.trace().enabled()) {
        ctx.trace().recordInstant("checkpoint", "cp-als",
                                  {{"iteration", std::to_string(iter)}});
      }
    }

    // Iteration 1 can never converge: prevFit is NaN there, and NaN
    // comparisons are false.
    const bool converged =
        opts.computeFit && std::abs(stats.fit - prevFit) < opts.tolerance;
    prevFit = stats.fit;
    if (converged) {
      result.converged = true;
      break;
    }
  }
}

}  // namespace

CpAlsResult cpAls(sparkle::Context& ctx, const tensor::CooTensor& X,
                  const CpAlsOptions& opts) {
  CpAlsResult result;
  LocalMttkrpTelemetry localTel;
  // Closes the report on success and on abort alike.
  auto finishReport = [&] {
    RunReport& r = result.report;
    r.converged = result.converged;
    r.finalFit = result.finalFit;
    r.localKernelWallSec = localTel.kernelWallSec;
    r.localKernelInvocations = localTel.kernelInvocations;
    r.layoutBuildWallSec = localTel.layoutBuildWallSec;
    r.layoutBuildPartitions = localTel.layoutBuildPartitions;
    r.layoutBytes = localTel.layoutBytes;
    finalizeRunReport(ctx.metrics(), r);
  };
  try {
    runCpAls(ctx, X, opts, result, localTel);
  } catch (const JobAbortedError& e) {
    finishReport();
    throw CpAlsAbortedError(e.what(), std::move(result.report));
  }
  finishReport();
  result.iterations = result.report.iterations;
  return result;
}

}  // namespace cstf::cstf_core
