// Microbenchmarks of the sparkle engine: shuffle throughput (fast-path vs
// per-record serde A/B on flat and CSTF record types), join, reduceByKey
// with and without map-side combining, and cache vs lineage recomputation.
#include <benchmark/benchmark.h>

#include "cstf/records.hpp"
#include "sparkle/sparkle.hpp"

namespace {

using namespace cstf;
using namespace cstf::sparkle;
using KV = std::pair<std::uint32_t, double>;

ClusterConfig microCluster(bool fastPath = true) {
  ClusterConfig cfg;
  cfg.numNodes = 8;
  cfg.coresPerNode = 4;
  cfg.enableShuffleFastPath = fastPath;
  return cfg;
}

std::vector<KV> makeData(std::uint32_t n, std::uint32_t keys) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i % keys, double(i)});
  return v;
}

void BM_ShuffleThroughput(benchmark::State& state) {
  const auto records = static_cast<std::uint32_t>(state.range(0));
  const auto parts = static_cast<std::size_t>(state.range(1));
  Context ctx(microCluster(), 0, parts);
  const auto data = makeData(records, records);
  for (auto _ : state) {
    auto rdd = parallelize(ctx, data, parts)
                   .partitionBy(ctx.hashPartitioner(parts));
    rdd.materialize();
    benchmark::DoNotOptimize(rdd);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ShuffleThroughput)
    ->Args({10000, 8})
    ->Args({100000, 8})
    ->Args({100000, 64});

// ---------------------------------------------------------------------------
// Fast-path vs slow-path A/B on the record shapes CSTF actually shuffles.
// arg1 selects the path (0 = per-record serde slow path, 1 = fixed-width
// fast path); byte metrics are identical between the two by construction.
// ---------------------------------------------------------------------------

void BM_ShuffleFixedWidthKV(benchmark::State& state) {
  const auto records = static_cast<std::uint32_t>(state.range(0));
  const bool fast = state.range(1) != 0;
  const std::size_t parts = 16;
  Context ctx(microCluster(fast), 0, parts);
  // Source built once: iterations time the shuffle itself (hash + encode +
  // fetch + decode + metering), not the driver-side dataset construction.
  auto source = parallelize(ctx, makeData(records, records), parts);
  for (auto _ : state) {
    auto rdd = source.partitionBy(ctx.hashPartitioner(parts));
    rdd.materialize();
    benchmark::DoNotOptimize(rdd);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ShuffleFixedWidthKV)
    ->Args({200000, 0})
    ->Args({200000, 1});

std::vector<std::pair<Index, cstf_core::Carry>> makeCarryData(
    std::uint32_t n) {
  std::vector<std::pair<Index, cstf_core::Carry>> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cstf_core::Carry c;
    c.nz = tensor::makeNonzero3(i % 997, i % 877, i % 769, double(i));
    c.partial = la::Row{1.0 + i, 2.0 + i};
    v.emplace_back(i % 997, std::move(c));
  }
  return v;
}

void BM_ShuffleCarryRecords(benchmark::State& state) {
  const auto records = static_cast<std::uint32_t>(state.range(0));
  const bool fast = state.range(1) != 0;
  const std::size_t parts = 16;
  Context ctx(microCluster(fast), 0, parts);
  auto source = parallelize(ctx, makeCarryData(records), parts);
  for (auto _ : state) {
    auto rdd = source.partitionBy(ctx.hashPartitioner(parts));
    rdd.materialize();
    benchmark::DoNotOptimize(rdd);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ShuffleCarryRecords)
    ->Args({100000, 0})
    ->Args({100000, 1});

std::vector<std::pair<Index, cstf_core::QRecord>> makeQRecordData(
    std::uint32_t n) {
  std::vector<std::pair<Index, cstf_core::QRecord>> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cstf_core::QRecord q;
    q.nz = tensor::makeNonzero3(i % 997, i % 877, i % 769, double(i));
    q.enqueue(la::Row{1.0, 2.0});
    q.enqueue(la::Row{3.0, 4.0});
    v.emplace_back(i % 997, std::move(q));
  }
  return v;
}

void BM_ShuffleQRecords(benchmark::State& state) {
  const auto records = static_cast<std::uint32_t>(state.range(0));
  const bool fast = state.range(1) != 0;
  const std::size_t parts = 16;
  Context ctx(microCluster(fast), 0, parts);
  auto source = parallelize(ctx, makeQRecordData(records), parts);
  for (auto _ : state) {
    auto rdd = source.partitionBy(ctx.hashPartitioner(parts));
    rdd.materialize();
    benchmark::DoNotOptimize(rdd);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ShuffleQRecords)
    ->Args({100000, 0})
    ->Args({100000, 1});

void BM_Join(benchmark::State& state) {
  const auto records = static_cast<std::uint32_t>(state.range(0));
  Context ctx(microCluster(), 0, 16);
  const auto left = makeData(records, records / 4);
  const auto right = makeData(records / 4, records / 4);
  for (auto _ : state) {
    auto out = parallelize(ctx, left, 16)
                   .join(parallelize(ctx, right, 16));
    benchmark::DoNotOptimize(out.count());
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_Join)->Arg(10000)->Arg(100000);

void BM_ReduceByKeyCombine(benchmark::State& state) {
  const bool combine = state.range(1) != 0;
  const auto records = static_cast<std::uint32_t>(state.range(0));
  Context ctx(microCluster(), 0, 16);
  const auto data = makeData(records, 64);  // heavy key repetition
  for (auto _ : state) {
    auto out = parallelize(ctx, data, 16)
                   .reduceByKey(
                       [](const double& a, const double& b) { return a + b; },
                       nullptr, combine);
    benchmark::DoNotOptimize(out.count());
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ReduceByKeyCombine)
    ->Args({100000, 0})
    ->Args({100000, 1});

void BM_CachedVsRecomputedLineage(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  Context ctx(microCluster(), 0, 16);
  auto rdd = generate(ctx, 100000,
                      [](std::size_t i) {
                        // Deliberately non-trivial generation cost.
                        double acc = 0;
                        for (int k = 0; k < 16; ++k) acc += double(i * k);
                        return acc;
                      },
                      16)
                 .map([](const double& v) { return v * 2.0; });
  if (cached) {
    rdd.cache();
    rdd.materialize();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rdd.count());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_CachedVsRecomputedLineage)->Arg(0)->Arg(1);

void BM_Broadcast(benchmark::State& state) {
  Context ctx(microCluster(), 0, 8);
  std::vector<double> gram(static_cast<std::size_t>(state.range(0)), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(broadcast(ctx, gram));
  }
}
BENCHMARK(BM_Broadcast)->Arg(4)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
