#include "mem/nvsim_lite.hpp"

#include <gtest/gtest.h>

namespace hhpim::mem {
namespace {

using energy::MemoryKind;

TEST(NvsimLite, ReproducesTableIIIAtAnchors) {
  const NvsimLite model;
  const auto hp = model.evaluate({MemoryKind::kMram, 64 * 1024, 1.2, 45.0});
  EXPECT_NEAR(hp.timing.read.as_ns(), 2.62, 0.01);
  EXPECT_NEAR(hp.timing.write.as_ns(), 11.81, 0.01);
  const auto lp = model.evaluate({MemoryKind::kMram, 64 * 1024, 0.8, 45.0});
  EXPECT_NEAR(lp.timing.read.as_ns(), 2.96, 0.01);
  EXPECT_NEAR(lp.timing.write.as_ns(), 14.65, 0.01);
  const auto sram_lp = model.evaluate({MemoryKind::kSram, 64 * 1024, 0.8, 45.0});
  EXPECT_NEAR(sram_lp.timing.read.as_ns(), 1.41, 0.01);
}

TEST(NvsimLite, ReproducesTableVAtAnchors) {
  const NvsimLite model;
  const auto hp = model.evaluate({MemoryKind::kSram, 64 * 1024, 1.2, 45.0});
  EXPECT_NEAR(hp.power.dyn_read.as_mw(), 508.93, 0.5);
  EXPECT_NEAR(hp.power.dyn_write.as_mw(), 500.0, 0.5);
  EXPECT_NEAR(hp.power.leakage.as_mw(), 23.29, 0.05);
  const auto lp = model.evaluate({MemoryKind::kSram, 64 * 1024, 0.8, 45.0});
  EXPECT_NEAR(lp.power.dyn_read.as_mw(), 177.30, 0.5);
  EXPECT_NEAR(lp.power.leakage.as_mw(), 5.45, 0.05);
}

TEST(NvsimLite, MakeSpecMatchesPaperSpec) {
  const NvsimLite model;
  const auto derived = model.make_spec(1.2, 0.8);
  const auto paper = energy::PowerSpec::paper_45nm();
  EXPECT_NEAR(derived.hp.mram_timing.read.as_ns(), paper.hp.mram_timing.read.as_ns(), 0.01);
  EXPECT_NEAR(derived.lp.sram_power.leakage.as_mw(), paper.lp.sram_power.leakage.as_mw(), 0.05);
  EXPECT_NEAR(derived.hp.pe.mac_latency.as_ns(), paper.hp.pe.mac_latency.as_ns(), 0.01);
  EXPECT_NEAR(derived.lp.pe.dynamic.as_mw(), paper.lp.pe.dynamic.as_mw(), 0.01);
}

TEST(NvsimLite, DelayIncreasesAsVoltageDrops) {
  const NvsimLite model;
  double prev = 0.0;
  for (const double vdd : {1.2, 1.1, 1.0, 0.9, 0.8, 0.7}) {
    const auto r = model.evaluate({MemoryKind::kSram, 64 * 1024, vdd, 45.0});
    EXPECT_GT(r.timing.read.as_ns(), prev);
    prev = r.timing.read.as_ns();
  }
}

TEST(NvsimLite, LeakageDecreasesAsVoltageDrops) {
  const NvsimLite model;
  const auto hi = model.evaluate({MemoryKind::kSram, 64 * 1024, 1.2, 45.0});
  const auto lo = model.evaluate({MemoryKind::kSram, 64 * 1024, 0.9, 45.0});
  EXPECT_GT(hi.power.leakage.as_mw(), lo.power.leakage.as_mw());
}

TEST(NvsimLite, CapacityScaling) {
  const NvsimLite model;
  const auto small = model.evaluate({MemoryKind::kSram, 64 * 1024, 1.2, 45.0});
  const auto big = model.evaluate({MemoryKind::kSram, 256 * 1024, 1.2, 45.0});
  // Delay grows with sqrt(capacity): 2x for 4x capacity.
  EXPECT_NEAR(big.timing.read.as_ns() / small.timing.read.as_ns(), 2.0, 0.01);
  // Leakage grows linearly: 4x.
  EXPECT_NEAR(big.power.leakage.as_mw() / small.power.leakage.as_mw(), 4.0, 0.01);
}

TEST(NvsimLite, SubThresholdVoltageRejected) {
  const NvsimLite model;
  EXPECT_THROW((void)model.evaluate({MemoryKind::kSram, 64 * 1024, 0.2, 45.0}),
               std::invalid_argument);
}

TEST(NvsimLite, PeScalesBetweenAnchors) {
  const NvsimLite model;
  const auto mid = model.evaluate_pe(1.0);
  EXPECT_GT(mid.mac_latency.as_ns(), 5.52);
  EXPECT_LT(mid.mac_latency.as_ns(), 10.68);
  EXPECT_GT(mid.dynamic.as_mw(), 0.51);
  EXPECT_LT(mid.dynamic.as_mw(), 0.90);
}

}  // namespace
}  // namespace hhpim::mem
