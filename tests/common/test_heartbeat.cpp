// Heartbeat sampler: ndjson stream, Prometheus exposition, check callbacks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/heartbeat.hpp"
#include "common/metrics_registry.hpp"

namespace cstf {
namespace {

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name) {
    path = testing::TempDir() + name;
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

TEST(Heartbeat, StartStopYieldsAtLeastTwoSnapshots) {
  metrics::Registry reg;
  reg.counter("t_total").add(5);
  TempPath ndjson("hb_two.ndjson");
  HeartbeatOptions o;
  o.ndjsonPath = ndjson.path;
  o.intervalMs = 10000;  // longer than the test: only start+stop samples
  Heartbeat hb(reg, o);
  hb.start();
  hb.stop();
  EXPECT_GE(hb.samples(), 2u);
  const auto ls = lines(slurp(ndjson.path));
  ASSERT_GE(ls.size(), 2u);
  for (const std::string& l : ls) {
    EXPECT_NE(l.find("cstf-metrics-v1"), std::string::npos);
    EXPECT_NE(l.find("t_total"), std::string::npos);
  }
}

TEST(Heartbeat, PeriodicSamplingProgresses) {
  metrics::Registry reg;
  std::atomic<int> checks{0};
  Heartbeat hb(reg, HeartbeatOptions{"", "", /*intervalMs=*/1});
  hb.addCheck([&checks] { checks.fetch_add(1); });
  hb.start();
  // Wait until the sampler demonstrably ticked a few times on its own.
  for (int i = 0; i < 2000 && hb.samples() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hb.stop();
  EXPECT_GE(hb.samples(), 5u);
  // Checks run before every sample, including first and final.
  EXPECT_GE(checks.load(), 5);
}

TEST(Heartbeat, PromFileIsCompleteExposition) {
  metrics::Registry reg;
  reg.gauge("depth").set(3.0);
  reg.histogram("lat").record(10.0);
  TempPath ndjson("hb_prom.ndjson");
  TempPath prom("hb_prom.prom");
  HeartbeatOptions o;
  o.ndjsonPath = ndjson.path;
  o.promPath = prom.path;
  o.intervalMs = 10000;
  Heartbeat hb(reg, o);
  hb.start();
  hb.stop();
  const std::string text = slurp(prom.path);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat summary"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
}

TEST(Heartbeat, StopIsIdempotentAndDestructorSafe) {
  metrics::Registry reg;
  TempPath ndjson("hb_idem.ndjson");
  HeartbeatOptions o;
  o.ndjsonPath = ndjson.path;
  o.intervalMs = 10000;
  {
    Heartbeat hb(reg, o);
    hb.start();
    hb.stop();
    const std::uint64_t after = hb.samples();
    hb.stop();  // second stop: no extra sample, no crash
    EXPECT_EQ(hb.samples(), after);
  }  // destructor runs stop() again — must be a no-op
}

TEST(Heartbeat, FlushNowWorksWithoutStart) {
  // The abort path flushes a final snapshot from a heartbeat that may
  // never have been started.
  metrics::Registry reg;
  reg.counter("aborted_total").add();
  TempPath ndjson("hb_flush.ndjson");
  HeartbeatOptions o;
  o.ndjsonPath = ndjson.path;
  Heartbeat hb(reg, o);
  hb.flushNow();
  const auto ls = lines(slurp(ndjson.path));
  ASSERT_EQ(ls.size(), 1u);
  EXPECT_NE(ls[0].find("aborted_total"), std::string::npos);
}

TEST(Heartbeat, StartTruncatesPreviousStream) {
  metrics::Registry reg;
  TempPath ndjson("hb_trunc.ndjson");
  {
    std::ofstream out(ndjson.path);
    out << "stale line from a previous run\n";
  }
  HeartbeatOptions o;
  o.ndjsonPath = ndjson.path;
  o.intervalMs = 10000;
  Heartbeat hb(reg, o);
  hb.start();
  hb.stop();
  EXPECT_EQ(slurp(ndjson.path).find("stale line"), std::string::npos);
}

}  // namespace
}  // namespace cstf
