#include "pim/cluster.hpp"

#include <gtest/gtest.h>

namespace hhpim::pim {
namespace {

using energy::ClusterKind;
using energy::EnergyLedger;
using energy::MemoryKind;
using energy::PowerSpec;

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest()
      : cluster(ClusterConfig{"hp", ClusterKind::kHighPerformance, 4, 64 * 1024, 64 * 1024},
                spec, &ledger) {}

  PowerSpec spec = PowerSpec::paper_45nm();
  EnergyLedger ledger;
  Cluster cluster;
};

TEST_F(ClusterTest, ClusterComputeSplitsAcrossModules) {
  const Time done = cluster.compute(Time::zero(), MemoryKind::kSram, 1003);
  // 1003 over 4 modules: three get 251, one gets 250.
  EXPECT_EQ(cluster.module(0).total_macs(), 251u);
  EXPECT_EQ(cluster.module(3).total_macs(), 250u);
  EXPECT_EQ(done, Time::ns(251 * 6.64));
  EXPECT_EQ(cluster.busy_until(), done);
}

TEST_F(ClusterTest, ClusterResidencyDistribution) {
  cluster.distribute_resident(MemoryKind::kSram, 10, Time::zero());
  EXPECT_EQ(cluster.resident(MemoryKind::kSram), 10u);
  EXPECT_EQ(cluster.module(0).resident(MemoryKind::kSram), 3u);
  EXPECT_EQ(cluster.module(2).resident(MemoryKind::kSram), 2u);
  EXPECT_EQ(cluster.weight_capacity(MemoryKind::kSram), 4u * 64 * 1024);
}

}  // namespace
}  // namespace hhpim::pim
