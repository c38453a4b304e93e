// Ablation: map-side combining in the MTTKRP's final reduceByKey.
//
// Spark's reduceByKey pre-aggregates rows with equal output index inside
// each map task before shuffling. For MTTKRP this collapses at most
// (#partitions x mode dimension) records out of nnz — worth the most on
// short modes (few distinct output rows per partition). The engine makes
// it a knob (MttkrpOptions::mapSideCombine); this bench measures its
// effect on shuffle volume and modeled time. Only the join-chain paths
// (COO, QCOO, BIGtensor) read the knob; the broadcast-local path never
// combines, since its kernels emit each index once per partition.
#include <cstdio>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "cstf/cstf.hpp"
#include "tensor/generator.hpp"

using namespace cstf;
using cstf_core::Backend;

namespace {

struct Row {
  std::uint64_t shuffleRecords = 0;
  std::uint64_t shuffleBytes = 0;
  double simSec = 0.0;
};

Row run(bool combine, const tensor::CooTensor& t) {
  sparkle::Context ctx(bench::paperCluster(8), 0, 24);
  cstf_core::CpAlsOptions o;
  o.rank = 2;
  o.maxIterations = 2;
  o.backend = Backend::kCoo;
  o.computeFit = false;
  o.mttkrp.mapSideCombine = combine;
  auto res = cstf_core::cpAls(ctx, t, o);
  // Only the reduceByKey stages are affected by combining; the join
  // shuffles would dilute the comparison.
  Row row;
  for (const auto& s : ctx.metrics().stages()) {
    if (s.label.find("reduceByKey") == std::string::npos) continue;
    row.shuffleRecords += s.shuffleRecords;
    row.shuffleBytes += s.shuffleBytesRemote + s.shuffleBytesLocal;
  }
  row.simSec = ctx.metrics().totals().simTimeSec;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  cstf::bench::initBenchArgs(argc, argv);
  bench::printHeader(
      "Ablation: map-side combine in the MTTKRP reduce (CSTF-COO, 8 nodes)");

  // A tensor with one short mode (many nonzeros per output row) and one
  // long mode, to show the dependence on mode shape.
  struct DataCase {
    const char* name;
    tensor::GeneratorOptions gen;
  };
  tensor::GeneratorOptions shortMode;
  shortMode.dims = {64, 4000, 4000};
  shortMode.nnz = static_cast<std::size_t>(30000 * bench::benchScale() * 5);
  shortMode.seed = 77;
  tensor::GeneratorOptions longModes;
  longModes.dims = {4000, 4000, 4000};
  longModes.nnz = shortMode.nnz;
  longModes.seed = 78;

  const DataCase cases[] = {
      {"short mode-1 (dim 64)", shortMode},
      {"all long modes (dim 4000)", longModes},
  };

  for (const DataCase& c : cases) {
    const tensor::CooTensor t = tensor::generateRandom(c.gen);
    const Row off = run(false, t);
    const Row on = run(true, t);
    bench::printSubHeader(strprintf("%s, nnz=%zu", c.name, t.nnz()));
    std::printf("%-22s %16s %14s %12s\n", "combine", "reduce records",
                "reduce bytes", "sim time");
    std::printf("%-22s %16llu %14s %12.3f\n", "off",
                static_cast<unsigned long long>(off.shuffleRecords),
                humanBytes(double(off.shuffleBytes)).c_str(), off.simSec);
    std::printf("%-22s %16llu %14s %12.3f\n", "on (Spark default)",
                static_cast<unsigned long long>(on.shuffleRecords),
                humanBytes(double(on.shuffleBytes)).c_str(), on.simSec);
    std::printf("combine removes %.0f%% of reduce-shuffled records\n",
                100.0 * (1.0 - double(on.shuffleRecords) /
                                   double(off.shuffleRecords)));
  }
  return 0;
}
