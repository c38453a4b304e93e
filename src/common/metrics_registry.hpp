// Live metrics registry: typed, labeled instruments for in-flight telemetry.
//
// Unlike sparkle::StageLog (the post-hoc per-stage record the run
// report is built from), this registry is the *always-on* instrument panel:
// counters, gauges, and histograms that hot paths update lock-free and a
// background heartbeat (common/heartbeat) samples every few milliseconds
// into cstf-metrics-v1 ndjson snapshots and a Prometheus-style exposition
// file. The serving SLO watchdog (common/watchdog) counts its breaches and
// recoveries here while the run is still going.
//
// A component counts each fact once, through an Owned<T> instrument: one
// add()/set()/record() lands in the component's own instrument (what its
// stats() reads) and, when the component was given a registry, in that
// registry's series (what the heartbeat exports).
//
// Concurrency contract:
//  - Instrument lookup (counter()/gauge()/histogram()) takes a mutex and is
//    meant for setup paths; callers on hot paths resolve once and keep the
//    reference (instruments are never destroyed while the registry lives).
//  - Recording (Counter::add, Gauge::set/add, AtomicHistogram::record) is
//    lock-free: sharded or plain atomic cells, relaxed ordering. Counters
//    are monotone per shard, so sums observed by successive snapshots never
//    go backwards.
//  - snapshot() reads every cell with relaxed loads; concurrent records may
//    or may not be included, but each series is individually monotone.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/trace.hpp"

namespace cstf::metrics {

/// Label set of an instrument, e.g. {{"mode", "2"}}. Order is preserved and
/// significant for identity: register with a canonical order.
using Labels = std::vector<std::pair<std::string, std::string>>;

template <typename T>
class Owned;

/// Monotonic counter with cache-line-padded shards indexed by thread, so
/// concurrent hot-path increments never contend on one line.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void add(std::uint64_t n = 1) {
    cells_[currentThreadIndex() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  // Only a component's own count rewinds; registry series stay monotone.
  friend class Owned<Counter>;
  void reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_;
};

/// Instantaneous value: last write wins, or an exact running level when
/// only add() moves it.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Lock-free histogram sharing Histogram's log-linear bucket layout:
/// record() is a handful of relaxed atomic RMWs, snapshot() materializes a
/// plain Histogram for quantile queries. A snapshot racing a record() may
/// see the bucket increment before the count (or vice versa) — each field
/// is individually monotone, which is all the exporters rely on.
class AtomicHistogram {
 public:
  AtomicHistogram() {
    min_.store(kInf, std::memory_order_relaxed);
    max_.store(-kInf, std::memory_order_relaxed);
  }

  void record(double v) {
    buckets_[Histogram::bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
    atomicMin(min_, v);
    atomicMax(max_, v);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  Histogram snapshot() const {
    std::array<std::uint64_t, Histogram::kBuckets> b;
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return Histogram::fromParts(count_.load(std::memory_order_relaxed),
                                min_.load(std::memory_order_relaxed),
                                max_.load(std::memory_order_relaxed),
                                sum_.load(std::memory_order_relaxed), b);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  static void atomicAdd(std::atomic<double>& a, double v) {
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
    }
  }
  static void atomicMin(std::atomic<double>& a, double v) {
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(cur, v,
                                               std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<double>& a, double v) {
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v,
                                               std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<double> sum_{0.0};
  std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets_{};
};

struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  Histogram hist;
};

/// One consistent-enough cut of every instrument, ordered by registration.
struct Snapshot {
  /// Strictly increasing per registry (across all consumers).
  std::uint64_t seq = 0;
  /// Milliseconds since the registry was constructed (monotonic clock).
  double uptimeMs = 0.0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// One newline-free `cstf-metrics-v1` JSON object (see DESIGN.md §12);
  /// the heartbeat appends these as ndjson.
  std::string toJsonLine() const;

  /// Prometheus text exposition: `# TYPE` comments plus one sample line per
  /// series; histograms render as summaries (quantile labels + _sum/_count).
  std::string toPrometheusText() const;
};

class Registry {
 public:
  Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Names must be Prometheus-compatible
  /// ([a-zA-Z_][a-zA-Z0-9_]*); label names likewise, values free-form.
  /// Returned references stay valid for the registry's lifetime. A name
  /// must keep one instrument type — re-registering it as another throws.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  AtomicHistogram& histogram(const std::string& name,
                             const Labels& labels = {});

  /// Sample every instrument; bumps the snapshot sequence number.
  Snapshot snapshot();

  /// Number of registered series (all kinds).
  std::size_t size() const;

  double uptimeMs() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    // deque never reallocates entries, but the instrument still lives
    // behind its own allocation so the padded atomics stay put.
    std::unique_ptr<T> inst;
  };

  template <typename T>
  T& findOrCreate(std::deque<Entry<T>>& entries,
                  std::unordered_map<std::string, T*>& index,
                  const std::string& name, const Labels& labels,
                  const char* kind);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<AtomicHistogram>> histograms_;
  std::unordered_map<std::string, Counter*> counterIndex_;
  std::unordered_map<std::string, Gauge*> gaugeIndex_;
  std::unordered_map<std::string, AtomicHistogram*> histogramIndex_;
  /// Instrument kind by name, enforcing one type per name.
  std::unordered_map<std::string, const char*> kindByName_;
  std::atomic<std::uint64_t> seq_{0};
};

/// Process-global registry: the default sink for engine, solver, and
/// serving instrumentation. Tests wanting isolation construct private
/// Registry instances and point the layer at them.
Registry& globalRegistry();

/// One fact a component counts: its own instrument plus, when bound, the
/// registry series of the same name. Per-instance values stay right when
/// several instances share a registry, and the series, which the registry
/// owns, stays monotone after the instance is gone.
template <typename T>
class Owned {
 public:
  /// `reg` nullptr counts locally and exports nothing.
  Owned(Registry* reg, const std::string& name, const Labels& labels = {})
      : series_(reg == nullptr ? nullptr : &find(*reg, name, labels)) {}

  Owned(const Owned&) = delete;
  Owned& operator=(const Owned&) = delete;

  void add(std::uint64_t n = 1) {
    own_.add(n);
    if (series_ != nullptr) series_->add(n);
  }
  void set(double v) {
    own_.set(v);
    if (series_ != nullptr) series_->set(v);
  }
  void record(double v) {
    own_.record(v);
    if (series_ != nullptr) series_->record(v);
  }

  auto value() const { return own_.value(); }
  Histogram snapshot() const { return own_.snapshot(); }
  /// Rewind the own count only; the series keeps what it exported.
  void reset() { own_.reset(); }

 private:
  static T& find(Registry& reg, const std::string& name,
                 const Labels& labels) {
    if constexpr (std::is_same_v<T, Counter>) {
      return reg.counter(name, labels);
    } else if constexpr (std::is_same_v<T, Gauge>) {
      return reg.gauge(name, labels);
    } else {
      return reg.histogram(name, labels);
    }
  }

  T own_;
  T* series_;
};

using OwnedCounter = Owned<Counter>;
using OwnedGauge = Owned<Gauge>;
using OwnedHistogram = Owned<AtomicHistogram>;

}  // namespace cstf::metrics
