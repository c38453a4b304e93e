// Shared types of the benchmark harness: run arguments, the result every
// workload fills in, and the workload inputs common to several of them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cstf/cp_als.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/generator.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for files the workload writes (models, delta logs,
  /// traces); created by the caller, removed by the caller.
  std::string workDir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<std::string> mismatches;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced runs).
  /// A per-layer metric of a layer the workload does not run is left out
  /// and reads 0.
  std::map<std::string, Metric> metrics;
  /// The fully resolved workload configuration, as JSON tokens.
  std::map<std::string, std::string> config;
  /// Human-readable lines for the run's stderr summary.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) mismatches.push_back(what);
  }
};

/// One of tensor::paperAnalog's Table 5 presets, drawn from `seed`. With the
/// preset's own seed this is exactly tensor::paperAnalog(name); the
/// benchmark passes its --seed so every input follows from one argument.
cstf::tensor::GeneratorOptions analogOptions(const std::string& name,
                                             std::uint64_t seed);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// One CP-ALS training run as the benchmark drives it: fixed iteration
/// count (tolerance 0, so every run does the same work), with `onIteration`
/// passed through.
struct TrainSpec {
  std::string analog;
  cstf::cstf_core::Backend backend = cstf::cstf_core::Backend::kQcoo;
  cstf::sparkle::LocalKernel kernel = cstf::sparkle::LocalKernel::kCoo;
  std::size_t rank = 2;
  int iterations = 20;
  int nodes = 8;
};

/// `s` as a quoted JSON string token.
std::string jsonString(const std::string& s);

cstf::cstf_core::CpAlsOptions cpAlsOptions(const TrainSpec& spec,
                                           std::uint64_t seed);
cstf::sparkle::ClusterConfig clusterConfig(const TrainSpec& spec);
void describe(const TrainSpec& spec, Result& r);

Result runTrain(const RunArgs& args);
Result runServe(const RunArgs& args);

}  // namespace perfbench
