// ModelPublisher: snapshot -> persist -> hot-swap with zero dropped
// queries, modelVersion/modelSeq visibility in stats and the serve report,
// and the staleness gauge's publish-time drop.
#include "stream/publisher.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "serve/model.hpp"
#include "tensor/generator.hpp"

namespace cstf::stream {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cstf-pub-" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

serve::CpModel randomModel(const std::vector<Index>& dims, std::size_t rank,
                           std::uint64_t seed) {
  serve::CpModel m;
  m.rank = rank;
  m.dims = dims;
  Pcg32 rng(seed);
  for (Index d : dims) m.factors.push_back(la::Matrix::random(d, rank, rng));
  m.lambda.assign(rank, 1.0);
  return m;
}

tensor::Delta deltaAt(std::uint64_t seq, const std::vector<Index>& dims,
                      std::uint64_t createdUnixMicros) {
  tensor::Delta d;
  d.seq = seq;
  d.createdUnixMicros = createdUnixMicros;
  d.dims = dims;
  d.entries = {tensor::makeNonzero3(Index(seq % dims[0]), 0, 1, 1.0 + seq),
               tensor::makeNonzero3(1, Index(seq % dims[1]), 2, 0.5)};
  return d;
}

std::uint64_t nowMicros() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::system_clock::now()
                               .time_since_epoch())
                           .count());
}

TEST(ModelPublisher, PublishPersistsSwapsAndTags) {
  metrics::Registry reg;
  const std::vector<Index> dims = {8, 7, 6};
  const serve::CpModel m0 = randomModel(dims, 2, 5);

  serve::BatcherOptions bo;
  bo.liveMetrics = &reg;
  serve::Batcher batcher(std::make_shared<serve::Engine>(m0, 1), bo);
  EXPECT_EQ(batcher.stats().modelVersion, 0u);
  EXPECT_EQ(batcher.stats().modelSeq, 0u);

  const std::string modelPath = freshDir("persist") + "/model.bin";
  PublisherOptions po;
  po.modelPath = modelPath;
  po.engineThreads = 1;
  po.liveMetrics = &reg;
  ModelPublisher pub(&batcher, po);

  OnlineUpdaterOptions uo;
  uo.liveMetrics = &reg;
  OnlineUpdater updater(m0, tensor::CooTensor(dims, {}), uo);
  updater.apply(deltaAt(3, dims, nowMicros()));
  updater.exactFit();
  EXPECT_EQ(pub.publish(updater), 3u);

  const serve::ServeStats st = batcher.stats();
  EXPECT_EQ(st.reloads, 1u);
  EXPECT_EQ(st.modelVersion, 1u);
  EXPECT_EQ(st.modelSeq, 3u);
  EXPECT_EQ(reg.counter("serve_model_reloads_total").value(), 1u);
  EXPECT_EQ(reg.gauge("serve_model_seq").value(), 3.0);

  // The persisted snapshot is a loadable model export.
  const serve::CpModel persisted = serve::loadModel(modelPath);
  EXPECT_EQ(persisted.rank, 2u);
  EXPECT_EQ(persisted.dims, dims);

  const serve::FreshnessStats fresh = pub.freshness();
  EXPECT_EQ(fresh.publishes, 1u);
  EXPECT_EQ(fresh.newestSeq, 3u);
  EXPECT_EQ(fresh.deltasApplied, 1u);
  EXPECT_FALSE(std::isnan(fresh.stalenessSec));
  EXPECT_FALSE(std::isnan(fresh.lastFitProbe));

  // Freshness + model land in the serve report.
  const std::string report = serveReportJson(st, nullptr, &fresh);
  EXPECT_NE(report.find("\"freshness\""), std::string::npos);
  EXPECT_NE(report.find("\"model\""), std::string::npos);
  EXPECT_NE(report.find("\"seq\":3"), std::string::npos);
}

TEST(ModelPublisher, StalenessDropsAfterPublish) {
  metrics::Registry reg;
  const std::vector<Index> dims = {6, 6, 6};
  const serve::CpModel m0 = randomModel(dims, 2, 9);
  PublisherOptions po;  // persist-only: no batcher, no model path
  po.liveMetrics = &reg;
  ModelPublisher pub(nullptr, po);
  EXPECT_TRUE(std::isnan(pub.refreshStaleness()));

  OnlineUpdaterOptions uo;
  uo.liveMetrics = nullptr;
  OnlineUpdater updater(m0, tensor::CooTensor(dims, {}), uo);
  // First delta created "two seconds ago": publishing it leaves the model
  // ~2s stale immediately.
  updater.apply(deltaAt(1, dims, nowMicros() - 2000000));
  pub.publish(updater);
  const double staleOld = pub.refreshStaleness();
  ASSERT_FALSE(std::isnan(staleOld));
  EXPECT_GT(staleOld, 1.5);

  // A fresher delta published now must *drop* the staleness gauge.
  updater.apply(deltaAt(2, dims, nowMicros()));
  pub.publish(updater);
  const double staleNew = pub.refreshStaleness();
  EXPECT_LT(staleNew, staleOld);
  EXPECT_LT(reg.gauge("cstf_staleness_sec").value(), staleOld);
}

TEST(ModelPublisher, ZeroDroppedQueriesAcrossHotSwaps) {
  metrics::Registry reg;
  const std::vector<Index> dims = {10, 9, 8};
  const serve::CpModel m0 = randomModel(dims, 2, 21);
  serve::BatcherOptions bo;
  bo.maxBatch = 4;
  bo.maxDelayMicros = 50;
  bo.liveMetrics = &reg;
  serve::Batcher batcher(std::make_shared<serve::Engine>(m0, 1), bo);

  PublisherOptions po;
  po.engineThreads = 1;
  po.liveMetrics = &reg;
  ModelPublisher pub(&batcher, po);
  OnlineUpdaterOptions uo;
  uo.liveMetrics = nullptr;
  OnlineUpdater updater(m0, tensor::CooTensor(dims, {}), uo);

  // Clients hammer the batcher while the publisher swaps engines under
  // them; every admitted future must resolve with a value.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Pcg32 rng(100 + c);
      while (!stop.load()) {
        serve::TopKRequest req;
        req.mode = ModeId(rng.nextBounded(3));
        req.fixed = {Index(rng.nextBounded(dims[0])),
                     Index(rng.nextBounded(dims[1])),
                     Index(rng.nextBounded(dims[2]))};
        req.k = 3;
        auto fut = batcher.submit(req);
        ASSERT_NE(fut.get(), nullptr);
        answered.fetch_add(1);
      }
    });
  }
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    updater.apply(deltaAt(seq, dims, nowMicros()));
    pub.publish(updater);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  const serve::ServeStats st = batcher.stats();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(st.reloads, 5u);
  EXPECT_EQ(st.modelVersion, 5u);
  EXPECT_EQ(st.modelSeq, 5u);
  EXPECT_EQ(st.shedTotal(), 0u) << "hot swaps must not shed queries";
  EXPECT_EQ(st.failed, 0u) << "hot swaps must not fail queries";
  EXPECT_EQ(st.submitted, st.completed + st.shedTotal());
}

TEST(ModelPublisher, UntaggedReloadKeepsModelSeq) {
  const std::vector<Index> dims = {5, 5, 5};
  const serve::CpModel m0 = randomModel(dims, 2, 3);
  serve::BatcherOptions bo;
  bo.liveMetrics = nullptr;
  serve::Batcher batcher(std::make_shared<serve::Engine>(m0, 1), bo);
  batcher.reload(std::make_shared<serve::Engine>(m0, 1), 7);
  EXPECT_EQ(batcher.stats().modelSeq, 7u);
  batcher.reload(std::make_shared<serve::Engine>(m0, 1));
  const serve::ServeStats st = batcher.stats();
  EXPECT_EQ(st.modelVersion, 2u);
  EXPECT_EQ(st.modelSeq, 7u) << "an untagged swap keeps the previous tag";
}

}  // namespace
}  // namespace cstf::stream
