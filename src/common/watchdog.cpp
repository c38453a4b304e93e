#include "common/watchdog.hpp"

#include <utility>

namespace cstf {

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
