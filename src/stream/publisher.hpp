// Publishing side of the streaming loop: online model -> live serving.
//
// A publish is three steps, in crash-safe order: snapshot the updater's
// model, persist it through serve::saveModel (a CSTFCKP1 export streamed
// into a temp file and renamed — an operator restart always finds either
// the old or the new model, never a torn one), then hot-swap a fresh Engine into the live
// Batcher via the version-guarded reload(), tagged with the newest delta
// seq the snapshot contains. In-flight queries keep their old engine
// snapshot and every admitted future resolves — zero dropped queries
// across the swap is what the CI streaming smoke asserts.
//
// The publisher also owns the freshness SLO: `cstf_staleness_sec` (now -
// creation time of the newest delta the *live* model has absorbed) as a
// live gauge, refreshed from the follower's poll loop so the sawtooth —
// climbing between publishes, dropping at each one — is visible to
// scrapers, plus the `freshness` object in the serve report.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

#include "common/metrics_registry.hpp"
#include "serve/batcher.hpp"
#include "stream/online_updater.hpp"

namespace cstf::stream {

struct PublisherOptions {
  /// Where model snapshots are persisted; "" skips persistence.
  std::string modelPath;
  /// Thread pool size for the freshly built engines (0 = hardware).
  std::size_t engineThreads = 0;
  metrics::Registry* liveMetrics = &metrics::globalRegistry();
};

class ModelPublisher {
 public:
  /// `batcher` may be null (persist-only publishing, e.g. the `stream`
  /// CLI command without a serving tier).
  explicit ModelPublisher(serve::Batcher* batcher, PublisherOptions opts);

  /// Snapshot + persist + hot-swap. Returns the published model seq.
  std::uint64_t publish(const OnlineUpdater& updater);

  /// Recompute the staleness gauge against the wall clock; call from the
  /// poll/heartbeat loop. Returns the current staleness (NaN before the
  /// first publish or when deltas carry no timestamps).
  double refreshStaleness();

  /// Freshness snapshot for the serve report.
  serve::FreshnessStats freshness() const;

 private:
  serve::Batcher* batcher_;
  const PublisherOptions opts_;
  metrics::OwnedCounter publishes_{opts_.liveMetrics,
                                   "serve_model_reloads_total"};
  metrics::OwnedGauge stalenessGauge_{opts_.liveMetrics,
                                      "cstf_staleness_sec"};
  metrics::OwnedGauge seqGauge_{opts_.liveMetrics, "serve_published_seq"};

  mutable std::mutex mutex_;
  /// Everything freshness() reports except publishes.
  serve::FreshnessStats fresh_;
  /// createdUnixMicros of the newest delta in the live model; 0 unknown.
  std::uint64_t publishedCreatedUnixMicros_ = 0;
};

}  // namespace cstf::stream
