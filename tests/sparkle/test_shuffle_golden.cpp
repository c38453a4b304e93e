// Golden shuffle bytes: every record shape the CSTF dataflows ship runs
// through one ShuffledDataset, and the stage's record count, remote/local
// byte split and per-task shuffleBytesOut must equal literals captured
// before the per-record codec was removed. The decoded records must be
// exactly the input multiset. Together these pin the byte accounting the
// paper's figures rest on to the one remaining codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cstf/records.hpp"
#include "sparkle/sparkle.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::sparkle {
namespace {

using KV = std::pair<std::uint32_t, double>;

ClusterConfig clusterCfg() {
  ClusterConfig cfg;
  cfg.numNodes = 4;
  cfg.coresPerNode = 2;
  return cfg;
}

/// Hash-shuffle `in` into `parts` partitions through one ShuffledDataset:
/// the codec under test, with no reduce-side merge after it.
template <typename K, typename V>
Rdd<std::pair<K, V>> shuffle(
    Context& ctx, const Rdd<std::pair<K, V>>& in, std::size_t parts,
    typename ShuffledDataset<K, V>::Combiner combiner = nullptr) {
  auto ds = std::make_shared<ShuffledDataset<K, V>>(
      &ctx, in.dataset(), ctx.hashPartitioner(parts), "golden",
      ctx.metrics().nextShuffleOpId(), std::move(combiner));
  return Rdd<std::pair<K, V>>(&ctx, std::move(ds));
}

// The combiner type refuses a value-returning merge at compile time: a
// std::function<void(V&, const V&)> would take it and silently drop every
// merged result.
using U64Combiner = ShuffledDataset<std::uint64_t, std::uint64_t>::Combiner;
static_assert(std::is_convertible_v<
              decltype([](std::uint64_t& acc, const std::uint64_t& x) {
                acc += x;
              }),
              U64Combiner>);
static_assert(!std::is_convertible_v<
              decltype([](const std::uint64_t& a, const std::uint64_t& b) {
                return a + b;
              }),
              U64Combiner>);

struct Golden {
  std::uint64_t records;
  std::uint64_t remote;
  std::uint64_t local;
  std::vector<std::uint64_t> taskBytesOut;
};

/// The shuffle stages the job ran, in order, against `want`.
void expectGolden(Context& ctx, const std::vector<Golden>& want) {
  std::vector<StageMetrics> shuffles;
  for (const auto& s : ctx.metrics().stages()) {
    if (s.kind == StageKind::kShuffle) shuffles.push_back(s);
  }
  ASSERT_EQ(shuffles.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const StageMetrics& s = shuffles[i];
    EXPECT_EQ(s.shuffleRecords, want[i].records) << "stage " << i;
    EXPECT_EQ(s.shuffleBytesRemote, want[i].remote) << "stage " << i;
    EXPECT_EQ(s.shuffleBytesLocal, want[i].local) << "stage " << i;
    std::vector<std::uint64_t> taskBytes;
    for (const auto& t : s.tasks) taskBytes.push_back(t.shuffleBytesOut);
    EXPECT_EQ(taskBytes, want[i].taskBytesOut) << "stage " << i;
  }
}

/// A multiset of records, compared through their encoded bytes so shapes
/// without operator< compare too.
template <typename T>
std::vector<std::string> encodedMultiset(const std::vector<T>& recs) {
  std::vector<std::string> out;
  out.reserve(recs.size());
  for (const T& rec : recs) {
    std::string& bytes =
        out.emplace_back(FixedWidthSerde<T>::width(rec), '\0');
    FixedWidthSerde<T>::encode(reinterpret_cast<std::uint8_t*>(bytes.data()),
                               rec);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Shuffle `data` and check both the decoded records and the metrics.
template <typename K, typename V>
void expectShuffle(const std::vector<std::pair<K, V>>& data,
                   std::size_t parts, const Golden& want) {
  Context ctx(clusterCfg(), 2);
  auto out = shuffle(ctx, parallelize(ctx, data, parts), parts).collect();
  EXPECT_EQ(encodedMultiset(out), encodedMultiset(data));
  expectGolden(ctx, {want});
}

std::vector<KV> makeKvData(std::uint32_t n) {
  std::vector<KV> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back({i * 7919u, double(i)});
  return v;
}

std::vector<std::pair<Index, cstf_core::Carry>> makeCarryData(
    std::uint32_t n) {
  std::vector<std::pair<Index, cstf_core::Carry>> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cstf_core::Carry c;
    c.nz = tensor::makeNonzero3(i % 97, i % 89, i % 83, 0.5 * i);
    c.partial = la::Row{1.0 + i, 2.0 + i};
    v.emplace_back(i % 97, std::move(c));
  }
  return v;
}

std::vector<std::pair<Index, cstf_core::QRecord>> makeQRecordData(
    std::uint32_t n) {
  std::vector<std::pair<Index, cstf_core::QRecord>> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cstf_core::QRecord q;
    q.nz = tensor::makeNonzero3(i % 97, i % 89, i % 83, -0.25 * i);
    q.enqueue(la::Row{1.0 * i, 2.0});
    q.enqueue(la::Row{3.0, 4.0 * i});
    v.emplace_back(i % 89, std::move(q));
  }
  return v;
}

TEST(ShuffleGolden, KvPairs) {
  expectShuffle(makeKvData(5000), 8,
                {5000, 222720, 77280,
                 {37500, 37500, 37500, 37500, 37500, 37500, 37500, 37500}});
}

TEST(ShuffleGolden, CooCarry) {
  // COO dataflow: pair<Index, Carry> is what cstf ships between join hops.
  expectShuffle(makeCarryData(3000), 8,
                {3000, 209157, 69843,
                 {34875, 34875, 34875, 34875, 34875, 34875, 34875, 34875}});
}

TEST(ShuffleGolden, QcooRecord) {
  // QCOO dataflow: pair<Index, QRecord> with a queue of factor rows.
  expectShuffle(makeQRecordData(3000), 8,
                {3000, 263952, 87048,
                 {43875, 43875, 43875, 43875, 43875, 43875, 43875, 43875}});
}

TEST(ShuffleGolden, RowPairs) {
  std::vector<std::pair<Index, la::Row>> data;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    data.emplace_back(i % 53, la::Row{0.5 * i, -1.0 * i});
  }
  expectShuffle(data, 6,
                {2000, 105048, 38952,
                 {23976, 23976, 24048, 23976, 23976, 24048}});
}

TEST(ShuffleGolden, MixedOrderNonzeros) {
  // Nonzero width depends on the order each record carries, so one map
  // task's batch mixes 17- and 21-byte records: buckets are sized by
  // summing widths per destination.
  std::vector<std::pair<std::uint32_t, tensor::Nonzero>> data;
  for (std::uint32_t i = 0; i < 1500; ++i) {
    if (i % 2 == 0) {
      data.emplace_back(i, tensor::makeNonzero3(i, i + 1, i + 2, 1.0 * i));
    } else {
      data.emplace_back(i, tensor::makeNonzero4(i, i + 1, i + 2, i + 3, 2.0));
    }
  }
  expectShuffle(data, 4, {1500, 82832, 29668, {28123, 28127, 28123, 28127}});
}

TEST(ShuffleGolden, MapSideCombiner) {
  // The combiner reorders records through its hash map before bucketing;
  // what ships is one partial sum per (map task, key).
  std::vector<KV> data;
  for (std::uint32_t i = 0; i < 4000; ++i) data.push_back({i % 37, 1.0});
  Context ctx(clusterCfg(), 2);
  auto out = shuffle<std::uint32_t, double>(
                 ctx, parallelize(ctx, data, 8), 8,
                 [](double& a, const double& b) { a += b; })
                 .collect();
  std::map<std::uint32_t, double> perKey;
  for (const auto& [k, v] : out) perKey[k] += v;
  ASSERT_EQ(perKey.size(), 37u);
  for (const auto& [k, v] : perKey) {
    EXPECT_DOUBLE_EQ(v, k < 4000 % 37 ? 109.0 : 108.0) << "key " << k;
  }
  expectGolden(ctx, {{296, 13320, 4440,
                      {2220, 2220, 2220, 2220, 2220, 2220, 2220, 2220}}});
}

TEST(ShuffleGolden, ChainedShuffles) {
  // Two hops back to back with a narrow map between them.
  const auto data = makeKvData(3000);
  Context ctx(clusterCfg(), 2);
  auto hop1 = shuffle(ctx, parallelize(ctx, data, 8), 8)
                  .mapValues([](const double& v) { return v * 2.0; });
  auto out = shuffle(ctx, hop1, 5).collect();
  std::vector<KV> want = data;
  for (auto& kv : want) kv.second *= 2.0;
  EXPECT_EQ(encodedMultiset(out), encodedMultiset(want));
  expectGolden(
      ctx,
      {{3000, 135360, 44640,
        {22500, 22500, 22500, 22500, 22500, 22500, 22500, 22500}},
       {3000, 138060, 41940,
        {21660, 23760, 23280, 25080, 21720, 23040, 22020, 19440}}});
}

TEST(ShuffleGolden, BufferPoolRecyclesAcrossStages) {
  // Steady-state iteration (the CP-ALS shape): the same shuffle run twice
  // must be served from pooled buffers the second time around.
  Context ctx(clusterCfg(), 2);
  auto source = parallelize(ctx, makeKvData(4000), 8);

  shuffle(ctx, source, 8).materialize();
  const auto first = ctx.bufferPool().stats();
  EXPECT_GT(first.acquires, 0u);
  EXPECT_GT(first.releases, 0u);

  shuffle(ctx, source, 8).materialize();
  const auto second = ctx.bufferPool().stats();
  EXPECT_GT(second.hits, first.hits);
  EXPECT_GT(second.bytesReused, first.bytesReused);
}

}  // namespace
}  // namespace cstf::sparkle
