// The SLO watchdog, driven with an explicit synthetic clock.
#include <gtest/gtest.h>

#include <vector>

#include "common/watchdog.hpp"

namespace cstf {
namespace {

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
