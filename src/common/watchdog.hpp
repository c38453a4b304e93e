// Live watchdogs over the metrics registry: straggler and SLO detection.
//
// Both watchdogs observe a stream of measurements as they happen and raise
// structured events through a callback *while the run is in flight* — the
// hooks the pipelined scheduler (straggler-driven work stealing) and the
// serving load-shedder (SLO breach admission control) on the ROADMAP will
// trigger on. The callback typically logs a warning, records a trace
// instant, and bumps a registry counter; the watchdogs themselves stay
// dependency-free so tests can drive them with synthetic clocks.
//
// Time is explicit: every mutating call takes "now" in the caller's unit
// (seconds for tasks, microseconds/milliseconds for latencies), with
// real-clock convenience overloads layered on top. Determinism in tests,
// steady_clock in production.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"

namespace cstf {

// ---------------------------------------------------------------------------
// Straggler watchdog
// ---------------------------------------------------------------------------

struct StragglerEvent {
  std::uint64_t stageId = 0;
  std::uint32_t partition = 0;
  /// How long the flagged task has been running (or ran) in seconds.
  double taskSec = 0.0;
  /// The stage's rolling median completed-task time it was judged against.
  double medianSec = 0.0;
  /// taskSec / medianSec.
  double ratio = 0.0;
  /// True when the task was still running when flagged; false when it was
  /// flagged at completion.
  bool stillRunning = false;
};

/// Tracks per-stage task start/finish times and flags partitions whose task
/// exceeds 4x the median of the stage's last 64 completed tasks, once the
/// stage has completed 8. Tasks under 10 ms are never flagged: micro-task
/// stages produce meaningless multiples of a ~0 median (a 2 ms task is
/// "11x" a 0.2 ms median on every busy stage, which is scheduling noise).
/// checkNow() judges still-running tasks (call it from the heartbeat);
/// taskFinished() judges the completing task, so post-hoc stragglers are
/// caught even when no heartbeat landed mid-flight. Each (stage,
/// partition) flags at most once. Thread-safe; per-task granularity, never
/// per-record.
class StragglerWatchdog {
 public:
  StragglerWatchdog();

  /// Invoked (under no internal lock ordering guarantees beyond "after the
  /// flag is counted") for every flagged task. Set once, before tasks run.
  void setCallback(std::function<void(const StragglerEvent&)> fn);

  void taskStarted(std::uint64_t stageId, std::uint32_t partition,
                   double nowSec);
  void taskFinished(std::uint64_t stageId, std::uint32_t partition,
                    double nowSec);
  /// Judge every still-running task; returns how many were flagged by this
  /// call.
  std::size_t checkNow(double nowSec);

  /// Real-clock overloads (seconds since this watchdog's construction).
  void taskStarted(std::uint64_t stageId, std::uint32_t partition);
  void taskFinished(std::uint64_t stageId, std::uint32_t partition);
  std::size_t checkNow();

  std::uint64_t flagged() const;
  std::size_t running() const;
  /// Rolling median of stage `stageId` (0 when unknown / no completions).
  double rollingMedianSec(std::uint64_t stageId) const;

 private:
  struct StageState {
    /// Ring of recent completed-task durations.
    std::vector<double> window;
    std::size_t next = 0;
    std::uint64_t completed = 0;
  };
  struct RunningTask {
    std::uint64_t stageId = 0;
    std::uint32_t partition = 0;
    double startSec = 0.0;
    bool flagged = false;
  };

  double nowSecondsMonotonic() const;
  double medianLocked(const StageState& s) const;
  /// Returns true (and fires the callback outside no lock — see .cpp) when
  /// the task qualifies as a straggler.
  bool judgeLocked(const StageState& s, double taskSec,
                   StragglerEvent& ev) const;

  std::function<void(const StragglerEvent&)> callback_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, StageState> stages_;
  std::unordered_map<std::uint64_t, RunningTask> runningTasks_;  // keyed by (stage<<32)|partition
  std::uint64_t flagged_ = 0;
};

// ---------------------------------------------------------------------------
// SLO watchdog
// ---------------------------------------------------------------------------

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
