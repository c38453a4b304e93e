#include "cstf/run_report.hpp"

#include <map>

#include "common/json.hpp"

namespace cstf::cstf_core {

namespace {

void writeTotals(JsonWriter& w, const sparkle::MetricsTotals& t) {
  w.beginObject();
  w.kv("stages", std::uint64_t{t.stages});
  w.kv("shuffleOps", std::uint64_t{t.shuffleOps});
  w.kv("shuffleRecords", std::uint64_t{t.shuffleRecords});
  w.kv("shuffleBytesRemote", std::uint64_t{t.shuffleBytesRemote});
  w.kv("shuffleBytesLocal", std::uint64_t{t.shuffleBytesLocal});
  w.kv("broadcastBytes", std::uint64_t{t.broadcastBytes});
  w.kv("recordsProcessed", std::uint64_t{t.recordsProcessed});
  w.kv("flops", std::uint64_t{t.flops});
  w.kv("sourceBytesRead", std::uint64_t{t.sourceBytesRead});
  w.kv("cacheBytesDeserialized", std::uint64_t{t.cacheBytesDeserialized});
  w.kv("taskRetries", std::uint64_t{t.taskRetries});
  w.kv("lostNodes", std::uint64_t{t.lostNodes});
  w.kv("recomputedMapTasks", std::uint64_t{t.recomputedMapTasks});
  w.kv("evictedCacheBlocks", std::uint64_t{t.evictedCacheBlocks});
  w.kv("simTimeSec", t.simTimeSec);
  w.kv("wallTimeSec", t.wallTimeSec);
  w.endObject();
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
    StageSummary out;
    out.stageId = s.stageId;
    out.shuffleOpId = s.shuffleOpId;
    out.scope = s.scope;
    out.label = s.label;
    out.kind = sparkle::stageKindName(s.kind);
    out.recordsProcessed = s.work.recordsProcessed;
    out.flops = s.work.flops;
    out.sourceBytesRead = s.work.sourceBytesRead;
    out.shuffleRecords = s.shuffleRecords;
    out.shuffleBytesRemote = s.shuffleBytesRemote;
    out.shuffleBytesLocal = s.shuffleBytesLocal;
    out.broadcastBytes = s.broadcastBytes;
    out.taskRetries = s.taskRetries;
    out.lostNodes = s.lostNodes;
    out.recomputedMapTasks = s.recomputedMapTasks;
    out.evictedCacheBlocks = s.evictedCacheBlocks;
    out.simTimeSec = s.simTimeSec;
    out.wallTimeSec = s.wallTimeSec;
    out.skew = sparkle::computeTaskSkew(s.tasks);
    out.reduceSkew = sparkle::computeRecordSkew(s.reduceRecordsByPartition);
    report.stages.push_back(std::move(out));
  }

  // Failure/recovery rollup over the same snapshot, grouped by the scope
  // each stage was recorded under; scopes that never failed stay out.
  report.failures = {};
  std::map<std::string, FailureSummary::ScopeFailures> byScope;
  for (const StageSummary& s : report.stages) {
    report.failures.taskRetries += s.taskRetries;
    report.failures.lostNodes += s.lostNodes;
    report.failures.recomputedMapTasks += s.recomputedMapTasks;
    report.failures.evictedCacheBlocks += s.evictedCacheBlocks;
    if (s.taskRetries == 0 && s.lostNodes == 0 &&
        s.recomputedMapTasks == 0 && s.evictedCacheBlocks == 0) {
      continue;
    }
    FailureSummary::ScopeFailures& f = byScope[s.scope];
    f.scope = s.scope;
    f.taskRetries += s.taskRetries;
    f.lostNodes += s.lostNodes;
    f.recomputedMapTasks += s.recomputedMapTasks;
    f.evictedCacheBlocks += s.evictedCacheBlocks;
  }
  for (auto& [scope, f] : byScope) {
    report.failures.byScope.push_back(std::move(f));
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
  for (const IterationTelemetry& it : iterations) {
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
      w.kv("simTimeSec", m.simTimeSec);
      w.kv("wallTimeSec", m.wallTimeSec);
      w.kv("shuffleRecords", std::uint64_t{m.shuffleRecords});
      w.kv("shuffleBytesRemote", std::uint64_t{m.shuffleBytesRemote});
      w.kv("shuffleBytesLocal", std::uint64_t{m.shuffleBytesLocal});
      w.kv("recordsProcessed", std::uint64_t{m.recordsProcessed});
      w.kv("flops", std::uint64_t{m.flops});
      w.kv("sourceBytesRead", std::uint64_t{m.sourceBytesRead});
      w.kv("cacheBytesDeserialized",
           std::uint64_t{m.cacheBytesDeserialized});
      w.kv("taskRetries", std::uint64_t{m.taskRetries});
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
    w.kv("recordsProcessed", std::uint64_t{s.recordsProcessed});
    w.kv("flops", std::uint64_t{s.flops});
    w.kv("sourceBytesRead", std::uint64_t{s.sourceBytesRead});
    w.kv("shuffleRecords", std::uint64_t{s.shuffleRecords});
    w.kv("shuffleBytesRemote", std::uint64_t{s.shuffleBytesRemote});
    w.kv("shuffleBytesLocal", std::uint64_t{s.shuffleBytesLocal});
    w.kv("broadcastBytes", std::uint64_t{s.broadcastBytes});
    w.kv("taskRetries", std::uint64_t{s.taskRetries});
    w.kv("lostNodes", std::uint64_t{s.lostNodes});
    w.kv("recomputedMapTasks", std::uint64_t{s.recomputedMapTasks});
    w.kv("evictedCacheBlocks", std::uint64_t{s.evictedCacheBlocks});
    w.kv("simTimeSec", s.simTimeSec);
    w.kv("wallTimeSec", s.wallTimeSec);
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

  w.key("failures");
  w.beginObject();
  w.kv("taskRetries", std::uint64_t{failures.taskRetries});
  w.kv("lostNodes", std::uint64_t{failures.lostNodes});
  w.kv("recomputedMapTasks", std::uint64_t{failures.recomputedMapTasks});
  w.kv("evictedCacheBlocks", std::uint64_t{failures.evictedCacheBlocks});
  w.key("byScope");
  w.beginArray();
  for (const FailureSummary::ScopeFailures& f : failures.byScope) {
    w.beginObject();
    w.kv("scope", f.scope);
    w.kv("taskRetries", std::uint64_t{f.taskRetries});
    w.kv("lostNodes", std::uint64_t{f.lostNodes});
    w.kv("recomputedMapTasks", std::uint64_t{f.recomputedMapTasks});
    w.kv("evictedCacheBlocks", std::uint64_t{f.evictedCacheBlocks});
    w.endObject();
  }
  w.endArray();
  w.endObject();

  w.key("totals");
  writeTotals(w, totals);
  w.endObject();
  return w.take();
}

}  // namespace cstf::cstf_core
