// Background heartbeat: samples a metrics::Registry on a fixed cadence.
//
// Each sample takes one registry snapshot and writes it to
//   1. an append-only ndjson stream of cstf-metrics-v1 lines (one JSON
//      object per snapshot — `tools/metrics_tail.py` pretty-prints it,
//      `tools/validate_metrics.py` gates it in CI), and
//   2. a Prometheus-style text exposition file rewritten atomically
//      (tmp+rename) every sample, so an external scraper always reads a
//      complete document.
//
// start() writes an immediate first sample and stop() a final one, so even
// a run shorter than one interval produces >= 2 snapshots — and an aborted
// run that reaches stop() (or flushNow()) still leaves its last state on
// disk. Registered check callbacks (watchdogs) run before each sample, so
// whatever they flag lands in the same snapshot.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.hpp"

namespace cstf {

struct HeartbeatOptions {
  /// ndjson destination; empty disables.
  std::string ndjsonPath;
  /// Prometheus exposition destination; empty disables. The CLI derives
  /// this as `<ndjsonPath>.prom`.
  std::string promPath;
  int intervalMs = 100;
};

class Heartbeat {
 public:
  Heartbeat(metrics::Registry& registry, HeartbeatOptions opts);
  /// Implies stop().
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Truncates the ndjson file, writes the first sample, and spawns the
  /// sampler thread. No-op if already started.
  void start();

  /// Stops the sampler and writes one final sample. Safe to call twice.
  void stop();

  /// Take a sample right now (also valid before start / after stop — the
  /// abort path uses this to flush a last snapshot).
  void flushNow();

  /// Run `fn` before every sample (watchdog checks). Not thread-safe with
  /// respect to sampling: register before start().
  void addCheck(std::function<void()> fn);

  std::uint64_t samples() const;

 private:
  void loop();
  void sampleLocked();
  void openSinkLocked();

  metrics::Registry& registry_;
  const HeartbeatOptions opts_;
  std::vector<std::function<void()>> checks_;

  mutable std::mutex mutex_;  // sink + sample serialization
  std::ofstream ndjson_;
  bool sinkOpened_ = false;
  std::uint64_t samples_ = 0;

  std::mutex runMutex_;  // started/stop flag + cv
  std::condition_variable cv_;
  bool running_ = false;
  bool stopRequested_ = false;
  std::thread thread_;
};

}  // namespace cstf
