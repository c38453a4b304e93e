// Live SLO watchdog over serving latencies.
//
// It observes latencies as they happen and raises breach/recovery events
// through a callback *while the run is in flight*. The callback typically
// logs a warning, records a trace instant, and bumps a registry counter;
// the watchdog itself stays dependency-free so tests can drive it with a
// synthetic clock.
//
// Time is explicit: every mutating call takes "now" in milliseconds on the
// caller's monotonic clock, with real-clock convenience overloads layered
// on top. Determinism in tests, steady_clock in production.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/histogram.hpp"

namespace cstf {

struct SloEvent {
  /// True on entering breach, false on recovering.
  bool breach = false;
  /// Sliding-window p99 at the transition, in the latency unit recorded
  /// (microseconds for serving).
  double p99 = 0.0;
  double target = 0.0;
  std::uint64_t windowCount = 0;
};

struct SloOptions {
  /// Latency target (same unit as record()); <= 0 disables the watchdog.
  double p99Target = 0.0;
};

/// Tracks latencies in a 200 ms sliding window of "now" time, split into 8
/// epochs that expire one at a time, and records breach/recovery
/// transitions of the windowed p99 against the target. An empty window
/// reads as p99 = 0 (no traffic means no breach), so a drained system
/// always recovers.
class SloWatchdog {
 public:
  explicit SloWatchdog(SloOptions opts = {});

  bool enabled() const { return opts_.p99Target > 0.0; }
  void setCallback(std::function<void(const SloEvent&)> fn);

  /// Record one latency observation at time `nowMs` (milliseconds on the
  /// caller's monotonic clock; only deltas matter).
  void record(double latency, double nowMs);
  /// Rotate the window to `nowMs` and evaluate the transition state
  /// machine. Returns true when in breach after the check.
  bool checkNow(double nowMs);

  /// Real-clock overloads (milliseconds since construction).
  void record(double latency);
  bool checkNow();
  double windowP99();

  bool inBreach() const;
  std::uint64_t breaches() const;
  std::uint64_t recoveries() const;
  /// Windowed p99 as of `nowMs` (rotates first).
  double windowP99(double nowMs);
  static constexpr double windowMs() { return kWindowMs; }

 private:
  double nowMsMonotonic() const;
  void rotateToLocked(double nowMs);

  static constexpr double kWindowMs = 200.0;
  static constexpr std::size_t kEpochs = 8;
  static constexpr double kEpochMs = kWindowMs / kEpochs;

  const SloOptions opts_;
  std::function<void(const SloEvent&)> callback_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  WindowedHistogram window_;
  double lastRotateMs_ = 0.0;
  bool inBreach_ = false;
  std::uint64_t breaches_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace cstf
