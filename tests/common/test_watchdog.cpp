// Straggler and SLO watchdogs, driven with explicit synthetic clocks.
#include <gtest/gtest.h>

#include <vector>

#include "common/watchdog.hpp"

namespace cstf {
namespace {

// Complete `n` tasks of duration `sec` each on stage `stage`.
void completeTasks(StragglerWatchdog& w, std::uint64_t stage, int n,
                   double sec, double& clock, std::uint32_t firstPartition) {
  for (int i = 0; i < n; ++i) {
    const auto p = firstPartition + std::uint32_t(i);
    w.taskStarted(stage, p, clock);
    clock += sec;
    w.taskFinished(stage, p, clock);
  }
}

TEST(StragglerWatchdog, FlagsSlowTaskAtCompletion) {
  StragglerWatchdog w;
  std::vector<StragglerEvent> events;
  w.setCallback([&](const StragglerEvent& e) { events.push_back(e); });

  double clock = 0.0;
  completeTasks(w, /*stage=*/1, /*n=*/8, /*sec=*/1.0, clock, 0);
  EXPECT_EQ(w.flagged(), 0u);
  EXPECT_NEAR(w.rollingMedianSec(1), 1.0, 1e-12);

  // One task at 10x the median must flag on finish.
  w.taskStarted(1, 100, clock);
  clock += 10.0;
  w.taskFinished(1, 100, clock);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(w.flagged(), 1u);
  EXPECT_EQ(events[0].stageId, 1u);
  EXPECT_EQ(events[0].partition, 100u);
  EXPECT_FALSE(events[0].stillRunning);
  EXPECT_NEAR(events[0].taskSec, 10.0, 1e-12);
  EXPECT_NEAR(events[0].ratio, 10.0, 1e-9);
}

TEST(StragglerWatchdog, MinSamplesGateSuppressesEarlyFlags) {
  StragglerWatchdog w;
  double clock = 0.0;
  // Only 3 completions — below the 8-sample gate, so even a huge outlier
  // passes.
  completeTasks(w, 1, 3, 1.0, clock, 0);
  w.taskStarted(1, 50, clock);
  clock += 100.0;
  w.taskFinished(1, 50, clock);
  EXPECT_EQ(w.flagged(), 0u);
}

TEST(StragglerWatchdog, CheckNowFlagsRunningTaskOnce) {
  StragglerWatchdog w;
  std::vector<StragglerEvent> events;
  w.setCallback([&](const StragglerEvent& e) { events.push_back(e); });

  double clock = 0.0;
  completeTasks(w, 1, 8, 1.0, clock, 0);

  w.taskStarted(1, 99, clock);
  EXPECT_EQ(w.running(), 1u);
  // Not yet past the threshold: nothing flagged.
  EXPECT_EQ(w.checkNow(clock + 2.0), 0u);
  // Past 4x median: flagged exactly once, even across repeated checks.
  EXPECT_EQ(w.checkNow(clock + 8.0), 1u);
  EXPECT_EQ(w.checkNow(clock + 9.0), 0u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].stillRunning);
  EXPECT_NEAR(events[0].taskSec, 8.0, 1e-12);

  // Finishing the already-flagged task must not double-count.
  w.taskFinished(1, 99, clock + 10.0);
  EXPECT_EQ(w.flagged(), 1u);
  EXPECT_EQ(w.running(), 0u);
}

TEST(StragglerWatchdog, MicroTasksAreIgnored) {
  StragglerWatchdog w;
  double clock = 0.0;
  completeTasks(w, 1, 8, 1e-5, clock, 0);
  w.taskStarted(1, 42, clock);
  clock += 1e-3;  // 100x the median, but under the 10 ms floor
  w.taskFinished(1, 42, clock);
  EXPECT_EQ(w.flagged(), 0u);
}

TEST(StragglerWatchdog, DefaultFloorIgnoresMillisecondTasks) {
  StragglerWatchdog w;
  double clock = 0.0;
  completeTasks(w, 1, 8, 0.001, clock, 0);
  w.taskStarted(1, 40, clock);
  clock += 0.004;  // 4x the 1 ms median: scheduling noise
  w.taskFinished(1, 40, clock);
  w.taskStarted(1, 39, clock);
  clock += 0.009;  // 9x the median, still under the 10 ms floor
  w.taskFinished(1, 39, clock);
  EXPECT_EQ(w.flagged(), 0u);

  w.taskStarted(1, 41, clock);
  clock += 0.05;  // 50 ms: past the floor and 50x the median
  w.taskFinished(1, 41, clock);
  EXPECT_EQ(w.flagged(), 1u);
}

TEST(StragglerWatchdog, RollingWindowRebaselines) {
  StragglerWatchdog w;
  double clock = 0.0;
  completeTasks(w, 1, 8, 1.0, clock, 0);
  EXPECT_NEAR(w.rollingMedianSec(1), 1.0, 1e-12);
  // 64 completions at 10s fill the 64-task window and push every 1s sample
  // out of it. The earliest of these legitimately flag against the old 1s
  // baseline.
  completeTasks(w, 1, 64, 10.0, clock, 100);
  EXPECT_NEAR(w.rollingMedianSec(1), 10.0, 1e-12);
  const std::uint64_t transitional = w.flagged();
  // 10s is now normal: no new flag once the window has re-baselined.
  w.taskStarted(1, 200, clock);
  clock += 10.0;
  w.taskFinished(1, 200, clock);
  EXPECT_EQ(w.flagged(), transitional);
}

TEST(StragglerWatchdog, StagesAreIndependent) {
  StragglerWatchdog w;
  double clock = 0.0;
  completeTasks(w, 1, 8, 1.0, clock, 0);
  // Stage 2 has no baseline; a 10s task there must not flag.
  w.taskStarted(2, 0, clock);
  clock += 10.0;
  w.taskFinished(2, 0, clock);
  EXPECT_EQ(w.flagged(), 0u);
  EXPECT_EQ(w.rollingMedianSec(2), 10.0);
}

TEST(SloWatchdog, DisabledWhenTargetNonPositive) {
  SloWatchdog w(SloOptions{0.0});
  EXPECT_FALSE(w.enabled());
  w.record(1e9, 0.0);
  EXPECT_FALSE(w.checkNow(1.0));
  EXPECT_EQ(w.breaches(), 0u);
}

TEST(SloWatchdog, BreachAndRecoveryTransitions) {
  SloWatchdog w(SloOptions{1000.0});
  std::vector<SloEvent> events;
  w.setCallback([&](const SloEvent& e) { events.push_back(e); });

  // Fast traffic: under target, no transition.
  for (int i = 0; i < 50; ++i) w.record(100.0, 1.0);
  EXPECT_FALSE(w.checkNow(2.0));
  EXPECT_EQ(w.breaches(), 0u);

  // Slow burst: p99 over target -> breach, exactly one transition.
  for (int i = 0; i < 50; ++i) w.record(5000.0, 3.0);
  EXPECT_TRUE(w.checkNow(4.0));
  EXPECT_TRUE(w.checkNow(5.0));  // still in breach, no second event
  EXPECT_EQ(w.breaches(), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].breach);
  EXPECT_GT(events[0].p99, 1000.0);
  EXPECT_EQ(events[0].target, 1000.0);

  // Let the window age past windowMs with no traffic: empty window means
  // p99 = 0 -> recovery.
  EXPECT_FALSE(w.checkNow(5.0 + w.windowMs() + 1.0));
  EXPECT_EQ(w.recoveries(), 1u);
  EXPECT_FALSE(w.inBreach());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1].breach);
  EXPECT_EQ(events[1].p99, 0.0);
}

TEST(SloWatchdog, RecoversWhenTrafficGetsFastAgain) {
  SloWatchdog w(SloOptions{1000.0});
  for (int i = 0; i < 50; ++i) w.record(5000.0, 0.0);
  EXPECT_TRUE(w.checkNow(1.0));
  // Old slow samples expire; fresh fast traffic keeps the window non-empty
  // but under target.
  const double later = w.windowMs() + 10.0;
  for (int i = 0; i < 50; ++i) w.record(100.0, later);
  EXPECT_FALSE(w.checkNow(later + 1.0));
  EXPECT_EQ(w.breaches(), 1u);
  EXPECT_EQ(w.recoveries(), 1u);
}

TEST(SloWatchdog, WindowP99TracksRecentLatencies) {
  SloWatchdog w(SloOptions{1000.0});
  for (int i = 0; i < 100; ++i) w.record(200.0, 0.0);
  const double p99 = w.windowP99(1.0);
  EXPECT_NEAR(p99, 200.0, 0.05 * 200.0);
  // After the window drains, p99 reads 0.
  EXPECT_EQ(w.windowP99(w.windowMs() * 2.0 + 5.0), 0.0);
}

TEST(SloWatchdog, NoTrafficNeverBreaches) {
  SloWatchdog w(SloOptions{1.0});  // absurdly tight target
  EXPECT_FALSE(w.checkNow(1.0));
  EXPECT_FALSE(w.checkNow(500.0));
  EXPECT_EQ(w.breaches(), 0u);
  EXPECT_EQ(w.recoveries(), 0u);
}

}  // namespace
}  // namespace cstf
