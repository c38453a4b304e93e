// A tour of the sparkle engine itself — the Spark-like substrate CSTF runs
// on: lazy RDDs, shuffles with byte metering, caching semantics, and the
// cluster time model that turns measured work into 4..32-node runtime
// curves on a single machine.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/strings.hpp"
#include "sparkle/sparkle.hpp"

using namespace cstf;
using namespace cstf::sparkle;

int main() {
  // --- 1. a classic key-value pipeline -------------------------------------
  Context ctx(ClusterConfig{.numNodes = 8});

  std::vector<std::string> lines{
      "tensors are multi dimensional arrays",
      "sparse tensors store only nonzeros",
      "mttkrp dominates cp decomposition time",
      "shuffles dominate mttkrp time on clusters"};

  // Words are interned before parallelize, so the shuffle moves
  // fixed-width (word id, count) records — the only kind a sparkle
  // shuffle ships.
  std::vector<std::string> vocab;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::uint32_t> wordIds;
  for (const std::string& l : lines) {
    for (const std::string& w : splitFields(l, " ")) {
      const auto [it, fresh] =
          ids.try_emplace(w, static_cast<std::uint32_t>(vocab.size()));
      if (fresh) vocab.push_back(w);
      wordIds.push_back(it->second);
    }
  }
  auto counts = parallelize(ctx, wordIds, 4)
                    .map([](const std::uint32_t& id) {
                      return std::pair<std::uint32_t, std::uint32_t>(id, 1);
                    })
                    .reduceByKey([](std::uint32_t& a,
                                    const std::uint32_t& b) { a += b; });

  std::printf("word counts (via one shuffle):\n");
  auto result = counts.collect();
  for (const auto& [w, n] : result) {
    if (n > 1) std::printf("  %-14s %u\n", vocab[w].c_str(), n);
  }

  const auto t = ctx.metrics().totals();
  std::printf("\nengine metrics: %llu stages, %llu shuffle ops, "
              "%llu records shuffled, %s remote + %s local\n",
              static_cast<unsigned long long>(t.stages),
              static_cast<unsigned long long>(t.shuffleOps),
              static_cast<unsigned long long>(t.shuffleRecords),
              humanBytes(double(t.shuffleBytesRemote)).c_str(),
              humanBytes(double(t.shuffleBytesLocal)).c_str());

  // --- 2. caching vs lineage recomputation ---------------------------------
  Context ctx2(ClusterConfig{.numNodes = 4});
  auto expensive = generate(ctx2, 200000, [](std::size_t i) {
    return double(i % 1000) * 1.5;
  });
  expensive.count();
  expensive.count();
  const auto uncached = ctx2.metrics().totals().recordsProcessed;
  ctx2.metrics().reset();
  expensive.cache();
  expensive.count();
  expensive.count();
  const auto cached = ctx2.metrics().totals().recordsProcessed;
  std::printf("\ncaching: two actions touch %llu records uncached vs %llu "
              "cached (lineage recomputes without cache, as in Spark)\n",
              static_cast<unsigned long long>(uncached),
              static_cast<unsigned long long>(cached));

  // --- 3. the cluster time model -------------------------------------------
  std::printf("\nmodeled runtime of one shuffle-heavy job vs cluster size\n");
  std::printf("%-8s %14s %16s\n", "nodes", "Spark mode", "Hadoop mode");
  for (int nodes : {4, 8, 16, 32}) {
    double secs[2];
    int k = 0;
    for (ExecutionMode mode : {ExecutionMode::kSpark, ExecutionMode::kHadoop}) {
      ClusterConfig cfg;
      cfg.numNodes = nodes;
      cfg.coresPerNode = 24;
      cfg.mode = mode;
      Context c(cfg, 0, 64);
      auto rdd = generate(c, 300000,
                          [](std::size_t i) {
                            return std::pair<std::uint32_t, double>(
                                std::uint32_t(i % 50000), double(i));
                          },
                          64)
                     .reduceByKey([](double& a, const double& b) {
                       a += b;
                     });
      rdd.materialize();
      secs[k++] = c.metrics().totals().simTimeSec;
    }
    std::printf("%-8d %14s %16s\n", nodes, humanSeconds(secs[0]).c_str(),
                humanSeconds(secs[1]).c_str());
  }
  std::printf("(Hadoop mode pays per-job startup and disk materialization — "
              "the handicap BIGtensor runs under in the paper.)\n");
  return 0;
}
