#include "stream/publisher.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "serve/engine.hpp"
#include "serve/model.hpp"

namespace cstf::stream {

namespace {

std::uint64_t nowUnixMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ModelPublisher::ModelPublisher(serve::Batcher* batcher, PublisherOptions opts)
    : batcher_(batcher), opts_(std::move(opts)) {}

std::uint64_t ModelPublisher::publish(const OnlineUpdater& updater) {
  serve::CpModel model = updater.snapshotModel();
  const OnlineUpdateStats us = updater.stats();
  // Persist before swapping: if the process dies between the two, the disk
  // is *ahead* of the live engine, never behind it.
  if (!opts_.modelPath.empty()) {
    serve::saveModel(opts_.modelPath, model);
  }
  if (batcher_ != nullptr) {
    batcher_->reload(
        std::make_shared<serve::Engine>(std::move(model), opts_.engineThreads),
        us.newestSeq);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    publishes_.add();
    fresh_.newestSeq = us.newestSeq;
    fresh_.deltasApplied = us.batchesApplied;
    fresh_.lastFitProbe = us.lastFitProbe;
    publishedCreatedUnixMicros_ = us.newestCreatedUnixMicros;
  }
  seqGauge_.set(double(us.newestSeq));
  refreshStaleness();
  return us.newestSeq;
}

double ModelPublisher::refreshStaleness() {
  double staleness = std::numeric_limits<double>::quiet_NaN();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (publishedCreatedUnixMicros_ > 0) {
      const std::uint64_t now = nowUnixMicros();
      staleness = now > publishedCreatedUnixMicros_
                      ? double(now - publishedCreatedUnixMicros_) * 1e-6
                      : 0.0;
    } else if (publishes_.value() > 0) {
      // Deltas without timestamps: the best truthful answer after a
      // publish is "fresh as of the publish itself".
      staleness = 0.0;
    }
    fresh_.stalenessSec = staleness;
  }
  if (!std::isnan(staleness)) stalenessGauge_.set(staleness);
  return staleness;
}

serve::FreshnessStats ModelPublisher::freshness() const {
  std::lock_guard<std::mutex> lock(mutex_);
  serve::FreshnessStats f = fresh_;
  f.publishes = publishes_.value();
  return f;
}

}  // namespace cstf::stream
