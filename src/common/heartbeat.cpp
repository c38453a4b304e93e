#include "common/heartbeat.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/artifacts.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace cstf {

Heartbeat::Heartbeat(metrics::Registry& registry, HeartbeatOptions opts)
    : registry_(registry), opts_(std::move(opts)) {}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::addCheck(std::function<void()> fn) {
  checks_.push_back(std::move(fn));
}

void Heartbeat::openSinkLocked() {
  if (sinkOpened_) return;
  sinkOpened_ = true;
  if (!opts_.ndjsonPath.empty()) {
    ndjson_.open(opts_.ndjsonPath, std::ios::out | std::ios::trunc);
    if (!ndjson_) {
      CSTF_LOG_WARN("heartbeat: cannot open metrics stream %s",
                    opts_.ndjsonPath.c_str());
    }
  }
}

void Heartbeat::sampleLocked() {
  for (const auto& fn : checks_) fn();
  const metrics::Snapshot snap = registry_.snapshot();
  openSinkLocked();
  if (ndjson_.is_open() && ndjson_.good()) {
    ndjson_ << snap.toJsonLine() << '\n';
    ndjson_.flush();
  }
  if (!opts_.promPath.empty()) {
    // Atomic rewrite: an external scraper racing this write reads either
    // the previous complete exposition or this one, never a torn file.
    writeFileAtomic(opts_.promPath, snap.toPrometheusText());
  }
  ++samples_;
}

void Heartbeat::flushNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  sampleLocked();
}

void Heartbeat::start() {
  {
    std::lock_guard<std::mutex> lock(runMutex_);
    if (running_) return;
    running_ = true;
    stopRequested_ = false;
  }
  flushNow();  // t0 baseline: even a sub-interval run yields two samples
  thread_ = std::thread([this] { loop(); });
}

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lock(runMutex_);
    if (!running_) return;
    stopRequested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(runMutex_);
    running_ = false;
  }
  flushNow();  // final state, including anything the last interval missed
}

void Heartbeat::loop() {
  const auto interval =
      std::chrono::milliseconds(std::max(1, opts_.intervalMs));
  std::unique_lock<std::mutex> lock(runMutex_);
  while (!stopRequested_) {
    if (cv_.wait_for(lock, interval, [this] { return stopRequested_; })) {
      return;
    }
    lock.unlock();
    flushNow();
    lock.lock();
  }
}

std::uint64_t Heartbeat::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

}  // namespace cstf
