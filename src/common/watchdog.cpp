#include "common/watchdog.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cstf {

namespace {

/// Flag a task once it exceeds this multiple of the stage's rolling median.
constexpr double kThresholdFactor = 4.0;
/// Completed tasks a stage needs before any judgement (medians over tiny
/// samples flag noise).
constexpr std::uint64_t kMinSamples = 8;
/// Only the most recent completions per stage feed the median, so a stage
/// whose task times drift re-baselines.
constexpr std::size_t kWindowTasks = 64;
/// Tasks faster than this are never flagged.
constexpr double kMinTaskSec = 1e-2;

std::uint64_t taskKey(std::uint64_t stageId, std::uint32_t partition) {
  return (stageId << 32) | partition;
}

}  // namespace

// ---------------------------------------------------------------------------
// StragglerWatchdog
// ---------------------------------------------------------------------------

StragglerWatchdog::StragglerWatchdog()
    : epoch_(std::chrono::steady_clock::now()) {}

void StragglerWatchdog::setCallback(
    std::function<void(const StragglerEvent&)> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(fn);
}

double StragglerWatchdog::nowSecondsMonotonic() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double StragglerWatchdog::medianLocked(const StageState& s) const {
  if (s.window.empty()) return 0.0;
  std::vector<double> tmp = s.window;
  const std::size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + mid, tmp.end());
  return tmp[mid];
}

bool StragglerWatchdog::judgeLocked(const StageState& s, double taskSec,
                                    StragglerEvent& ev) const {
  if (s.completed < kMinSamples) return false;
  const double median = medianLocked(s);
  if (median <= 0.0 || taskSec < kMinTaskSec) return false;
  if (taskSec <= kThresholdFactor * median) return false;
  ev.taskSec = taskSec;
  ev.medianSec = median;
  ev.ratio = taskSec / median;
  return true;
}

void StragglerWatchdog::taskStarted(std::uint64_t stageId,
                                    std::uint32_t partition, double nowSec) {
  std::lock_guard<std::mutex> lock(mutex_);
  runningTasks_[taskKey(stageId, partition)] =
      RunningTask{stageId, partition, nowSec, false};
}

void StragglerWatchdog::taskFinished(std::uint64_t stageId,
                                     std::uint32_t partition,
                                     double nowSec) {
  StragglerEvent ev;
  bool fire = false;
  std::function<void(const StragglerEvent&)> cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = runningTasks_.find(taskKey(stageId, partition));
    if (it == runningTasks_.end()) return;
    const RunningTask task = it->second;
    runningTasks_.erase(it);
    StageState& stage = stages_[stageId];
    const double taskSec = std::max(0.0, nowSec - task.startSec);
    // Judge against the median of the *prior* completions, then fold this
    // task into the window.
    if (!task.flagged) {
      ev.stageId = stageId;
      ev.partition = partition;
      ev.stillRunning = false;
      fire = judgeLocked(stage, taskSec, ev);
      if (fire) {
        ++flagged_;
        cb = callback_;
      }
    }
    if (stage.window.size() < kWindowTasks) {
      stage.window.push_back(taskSec);
    } else {
      stage.window[stage.next] = taskSec;
      stage.next = (stage.next + 1) % stage.window.size();
    }
    ++stage.completed;
  }
  if (fire && cb) cb(ev);
}

std::size_t StragglerWatchdog::checkNow(double nowSec) {
  std::vector<StragglerEvent> fired;
  std::function<void(const StragglerEvent&)> cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cb = callback_;
    for (auto& [key, task] : runningTasks_) {
      if (task.flagged) continue;
      const auto sit = stages_.find(task.stageId);
      if (sit == stages_.end()) continue;
      StragglerEvent ev;
      ev.stageId = task.stageId;
      ev.partition = task.partition;
      ev.stillRunning = true;
      if (judgeLocked(sit->second, std::max(0.0, nowSec - task.startSec),
                      ev)) {
        task.flagged = true;
        ++flagged_;
        fired.push_back(ev);
      }
    }
  }
  if (cb) {
    for (const StragglerEvent& ev : fired) cb(ev);
  }
  return fired.size();
}

void StragglerWatchdog::taskStarted(std::uint64_t stageId,
                                    std::uint32_t partition) {
  taskStarted(stageId, partition, nowSecondsMonotonic());
}

void StragglerWatchdog::taskFinished(std::uint64_t stageId,
                                     std::uint32_t partition) {
  taskFinished(stageId, partition, nowSecondsMonotonic());
}

std::size_t StragglerWatchdog::checkNow() {
  return checkNow(nowSecondsMonotonic());
}

std::uint64_t StragglerWatchdog::flagged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return flagged_;
}

std::size_t StragglerWatchdog::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runningTasks_.size();
}

double StragglerWatchdog::rollingMedianSec(std::uint64_t stageId) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stageId);
  return it == stages_.end() ? 0.0 : medianLocked(it->second);
}

// ---------------------------------------------------------------------------
// SloWatchdog
// ---------------------------------------------------------------------------

SloWatchdog::SloWatchdog(SloOptions opts)
    : opts_(opts),
      epoch_(std::chrono::steady_clock::now()),
      window_(kEpochs) {}

void SloWatchdog::setCallback(std::function<void(const SloEvent&)> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(fn);
}

double SloWatchdog::nowMsMonotonic() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SloWatchdog::rotateToLocked(double nowMs) {
  if (nowMs <= lastRotateMs_) return;
  const double elapsed = nowMs - lastRotateMs_;
  if (elapsed >= kWindowMs) {
    // The whole window aged out; skip the epoch-by-epoch churn.
    window_.reset();
    lastRotateMs_ = nowMs;
    return;
  }
  while (nowMs - lastRotateMs_ >= kEpochMs) {
    window_.rotate();
    lastRotateMs_ += kEpochMs;
  }
}

void SloWatchdog::record(double latency, double nowMs) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  rotateToLocked(nowMs);
  window_.record(latency);
}

bool SloWatchdog::checkNow(double nowMs) {
  if (!enabled()) return false;
  SloEvent ev;
  bool fire = false;
  bool breached;
  std::function<void(const SloEvent&)> cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rotateToLocked(nowMs);
    const Histogram merged = window_.merged();
    const double p99 = merged.count() > 0 ? merged.quantile(0.99) : 0.0;
    breached = merged.count() > 0 && p99 > opts_.p99Target;
    if (breached != inBreach_) {
      inBreach_ = breached;
      if (breached) {
        ++breaches_;
      } else {
        ++recoveries_;
      }
      ev.breach = breached;
      ev.p99 = p99;
      ev.target = opts_.p99Target;
      ev.windowCount = merged.count();
      fire = true;
      cb = callback_;
    }
  }
  if (fire && cb) cb(ev);
  return breached;
}

void SloWatchdog::record(double latency) { record(latency, nowMsMonotonic()); }

bool SloWatchdog::checkNow() { return checkNow(nowMsMonotonic()); }

double SloWatchdog::windowP99() { return windowP99(nowMsMonotonic()); }

bool SloWatchdog::inBreach() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inBreach_;
}

std::uint64_t SloWatchdog::breaches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breaches_;
}

std::uint64_t SloWatchdog::recoveries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recoveries_;
}

double SloWatchdog::windowP99(double nowMs) {
  std::lock_guard<std::mutex> lock(mutex_);
  rotateToLocked(nowMs);
  const Histogram merged = window_.merged();
  return merged.count() > 0 ? merged.quantile(0.99) : 0.0;
}

}  // namespace cstf
