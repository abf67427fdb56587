#include "energy/ledger.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hhpim::energy {
namespace {

using namespace hhpim::literals;

TEST(EnergyLedger, AccumulatesPerComponentAndActivity) {
  EnergyLedger ledger;
  const ComponentId a = ledger.register_component("a");
  const ComponentId b = ledger.register_component("b");
  ledger.add(a, Activity::kMemRead, 10_pJ);
  ledger.add(a, Activity::kMemRead, 5_pJ);
  ledger.add(a, Activity::kCompute, 2_pJ);
  ledger.add(b, Activity::kMemWrite, 7_pJ);

  EXPECT_DOUBLE_EQ(ledger.component_total(a, Activity::kMemRead).as_pj(), 15.0);
  EXPECT_DOUBLE_EQ(ledger.component_total(a).as_pj(), 17.0);
  EXPECT_DOUBLE_EQ(ledger.component_total(b).as_pj(), 7.0);
  EXPECT_DOUBLE_EQ(ledger.total().as_pj(), 24.0);
  EXPECT_DOUBLE_EQ(ledger.total(Activity::kMemRead).as_pj(), 15.0);
  EXPECT_DOUBLE_EQ(ledger.dynamic_total().as_pj(), 24.0);
}

TEST(EnergyLedger, LeakageSeparatedFromDynamic) {
  EnergyLedger ledger;
  const ComponentId a = ledger.register_component("sram");
  ledger.add_leakage(a, Power::mw(2.0), Time::ns(10.0));  // 20 pJ
  ledger.add(a, Activity::kMemRead, 5_pJ);
  EXPECT_DOUBLE_EQ(ledger.total(Activity::kLeakage).as_pj(), 20.0);
  EXPECT_DOUBLE_EQ(ledger.dynamic_total().as_pj(), 5.0);
}

TEST(EnergyLedger, ResetZeroes) {
  EnergyLedger ledger;
  const ComponentId a = ledger.register_component("x");
  ledger.add(a, Activity::kControl, 3_pJ);
  ledger.reset();
  EXPECT_DOUBLE_EQ(ledger.total().as_pj(), 0.0);
  EXPECT_EQ(ledger.component_count(), 1u);  // registrations survive
}

TEST(EnergyLedger, BreakdownMentionsComponentsAndTotal) {
  EnergyLedger ledger;
  ledger.add(ledger.register_component("hp0.sram"), Activity::kMemRead, 1_pJ);
  const std::string s = ledger.breakdown();
  EXPECT_NE(s.find("hp0.sram"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
}

// A capture around a nested record/replay logs the replay as one repeated
// run, and applying the log to zeroed cells gives the ledger's bits.
TEST(EnergyLedger, CaptureAppliesToTheSameCells) {
  EnergyLedger ledger;
  const ComponentId a = ledger.register_component("a");
  const ComponentId b = ledger.register_component("b");
  PostLog log;
  std::vector<RecordedPost> task;
  ledger.begin_capture(&log);
  ledger.add(a, Activity::kMemRead, Energy::pj(0.1));
  ledger.begin_recording(&task);
  ledger.add(b, Activity::kCompute, Energy::pj(0.2));
  ledger.add(a, Activity::kMemRead, Energy::pj(0.3));
  ledger.end_recording();
  ledger.replay(task, 3);
  ledger.add_leakage(b, Power::mw(0.7), Time::ns(1.3));
  ledger.end_capture();

  ASSERT_EQ(log.runs.size(), 3u);
  EXPECT_EQ(log.runs[0].end - log.runs[0].begin, 3u);  // the adds before the replay
  EXPECT_EQ(log.runs[1].end - log.runs[1].begin, 2u);
  EXPECT_EQ(log.runs[1].times, 3);
  EXPECT_EQ(log.runs[2].end - log.runs[2].begin, 1u);

  std::vector<double> cells(ledger.cell_count(), 0.0);
  EnergyLedger::apply(cells, log);
  constexpr auto kActivities = static_cast<std::size_t>(Activity::kCount);
  for (std::size_t i = 0; i < ledger.component_count(); ++i) {
    for (std::size_t act = 0; act < kActivities; ++act) {
      EXPECT_EQ(cells[i * kActivities + act],
                ledger.component_total_by_index(i, static_cast<Activity>(act)).as_pj());
    }
  }
  EXPECT_EQ(EnergyLedger::cells_total(cells).as_pj(), ledger.total().as_pj());
  EXPECT_EQ(EnergyLedger::cells_total(cells, Activity::kLeakage).as_pj(),
            ledger.total(Activity::kLeakage).as_pj());

  ledger.add(a, Activity::kCompute, 1_pJ);
  EXPECT_EQ(log.posts.size(), 6u);  // an ended capture logs nothing
}

TEST(LeakageTracker, IntegratesOnIntervals) {
  EnergyLedger ledger;
  const ComponentId id = ledger.register_component("leaky");
  LeakageTracker t{&ledger, id, Power::mw(1.0)};
  t.power_on(Time::ns(10));
  t.power_off(Time::ns(30));   // 20 ns on -> 20 pJ
  t.power_on(Time::ns(100));
  t.power_off(Time::ns(105));  // 5 ns -> 5 pJ
  EXPECT_DOUBLE_EQ(ledger.total(Activity::kLeakage).as_pj(), 25.0);
  EXPECT_EQ(t.total_on_time(), Time::ns(25));
}

TEST(LeakageTracker, RedundantTransitionsAreNoOps) {
  EnergyLedger ledger;
  const ComponentId id = ledger.register_component("leaky");
  LeakageTracker t{&ledger, id, Power::mw(1.0)};
  t.power_off(Time::ns(5));  // already off
  t.power_on(Time::ns(10));
  t.power_on(Time::ns(20));  // no restart: interval began at 10
  t.power_off(Time::ns(30));
  EXPECT_DOUBLE_EQ(ledger.total(Activity::kLeakage).as_pj(), 20.0);
}

TEST(LeakageTracker, SettleClosesWithoutStateChange) {
  EnergyLedger ledger;
  const ComponentId id = ledger.register_component("leaky");
  LeakageTracker t{&ledger, id, Power::mw(2.0)};
  t.power_on(Time::zero());
  t.settle(Time::ns(10));
  EXPECT_DOUBLE_EQ(ledger.total(Activity::kLeakage).as_pj(), 20.0);
  EXPECT_TRUE(t.is_on());
  t.settle(Time::ns(15));  // only the new 5 ns are added
  EXPECT_DOUBLE_EQ(ledger.total(Activity::kLeakage).as_pj(), 30.0);
}

TEST(LeakageTracker, SetPowerSplitsInterval) {
  EnergyLedger ledger;
  const ComponentId id = ledger.register_component("banked");
  LeakageTracker t{&ledger, id, Power::mw(4.0)};
  t.power_on(Time::zero());
  t.set_power(Power::mw(1.0), Time::ns(10));  // 40 pJ so far
  t.power_off(Time::ns(20));                  // + 10 pJ
  EXPECT_DOUBLE_EQ(ledger.total(Activity::kLeakage).as_pj(), 50.0);
}

TEST(ActivityNames, AllDistinct) {
  EXPECT_STREQ(to_string(Activity::kMemRead), "mem-read");
  EXPECT_STREQ(to_string(Activity::kLeakage), "leakage");
  EXPECT_STREQ(to_string(Activity::kTransfer), "transfer");
}

}  // namespace
}  // namespace hhpim::energy
