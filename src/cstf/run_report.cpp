#include "cstf/run_report.hpp"

#include "common/json.hpp"

namespace cstf::cstf_core {

namespace {

/// The counter block's fields, in StageCounts::forEachField order.
void writeCounts(JsonWriter& w, const sparkle::StageCounts& c) {
  sparkle::StageCounts::forEachField(
      [&](const char* name, auto field) { w.kv(name, c.*field); });
}

void writeRecordSkew(JsonWriter& w, const sparkle::RecordSkewStats& r) {
  w.beginObject();
  w.kv("partitions", std::uint64_t{r.partitions});
  w.kv("meanRecords", r.meanRecords);
  w.kv("p50Records", r.p50Records);
  w.kv("p95Records", r.p95Records);
  w.kv("maxRecords", r.maxRecords);
  w.kv("imbalance", r.imbalance);
  w.kv("heaviestPartition", std::uint64_t{r.heaviestPartition});
  w.endObject();
}

}  // namespace

void finalizeRunReport(const sparkle::StageLog& metrics,
                       RunReport& report) {
  report.totals = metrics.totals();
  report.stages.clear();
  for (const sparkle::StageMetrics& s : metrics.stages()) {
    report.stages.push_back(
        {sparkle::countsOf(s), s.stageId, s.shuffleOpId, s.scope, s.label,
         sparkle::stageKindName(s.kind), sparkle::computeTaskSkew(s.tasks),
         sparkle::computeRecordSkew(s.reduceRecordsByPartition)});
  }
}

std::string RunReport::toJson() const {
  JsonWriter w;
  w.beginObject();
  w.kv("schema", "cstf-run-report-v1");
  w.kv("plan", plan);
  w.kv("backend", backend);
  w.kv("localKernel", localKernel);
  w.kv("localKernelWallSec", localKernelWallSec);
  w.kv("localKernelInvocations", std::uint64_t{localKernelInvocations});
  w.kv("layoutBuildWallSec", layoutBuildWallSec);
  w.kv("layoutBuildPartitions", std::uint64_t{layoutBuildPartitions});
  w.kv("layoutBytes", std::uint64_t{layoutBytes});
  w.kv("rank", std::uint64_t{rank});
  w.key("dims");
  w.beginArray();
  for (const Index d : dims) w.value(std::uint64_t{d});
  w.endArray();
  w.kv("nnz", std::uint64_t{nnz});
  w.kv("nodes", nodes);
  w.kv("converged", converged);
  w.kv("finalFit", finalFit);
  w.kv("resumedFromIteration", resumedFromIteration);

  w.key("iterations");
  w.beginArray();
  for (const CpAlsIterationStats& it : iterations) {
    w.beginObject();
    w.kv("iteration", it.iteration);
    w.kv("fit", it.fit);
    w.kv("fitDelta", it.fitDelta);
    w.kv("lambdaL2", it.lambdaL2);
    w.kv("lambdaMin", it.lambdaMin);
    w.kv("lambdaMax", it.lambdaMax);
    w.kv("simTimeSec", it.simTimeSec);
    w.kv("wallTimeSec", it.wallTimeSec);
    w.key("modes");
    w.beginArray();
    for (const ModeTelemetry& m : it.modes) {
      w.beginObject();
      w.kv("mode", m.mode);
      writeCounts(w, m);
      w.key("reduceSkew");
      writeRecordSkew(w, m.reduceSkew);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();

  w.key("stages");
  w.beginArray();
  for (const StageSummary& s : stages) {
    w.beginObject();
    w.kv("stageId", std::uint64_t{s.stageId});
    w.kv("shuffleOpId", std::uint64_t{s.shuffleOpId});
    w.kv("scope", s.scope);
    w.kv("label", s.label);
    w.kv("kind", s.kind);
    writeCounts(w, s);
    w.key("skew");
    w.beginObject();
    w.kv("tasks", std::uint64_t{s.skew.tasks});
    w.kv("meanSec", s.skew.meanSec);
    w.kv("p50Sec", s.skew.p50Sec);
    w.kv("p95Sec", s.skew.p95Sec);
    w.kv("maxSec", s.skew.maxSec);
    w.kv("imbalance", s.skew.imbalance);
    w.kv("heaviestPartition", std::uint64_t{s.skew.heaviestPartition});
    w.endObject();
    w.key("reduceSkew");
    writeRecordSkew(w, s.reduceSkew);
    w.endObject();
  }
  w.endArray();

  w.key("totals");
  w.beginObject();
  w.kv("stages", std::uint64_t{totals.stages});
  w.kv("shuffleOps", std::uint64_t{totals.shuffleOps});
  writeCounts(w, totals);
  w.endObject();
  w.endObject();
  return w.take();
}

}  // namespace cstf::cstf_core
