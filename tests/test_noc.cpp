#include "noc/link.hpp"

#include <gtest/gtest.h>

namespace hhpim::noc {
namespace {

using energy::EnergyLedger;

TEST(Link, SerializationPlusLatency) {
  EnergyLedger ledger;
  Link link{LinkConfig{"l", 8.0, Time::ns(2.0), Energy::pj(0.15)}, &ledger};
  const auto r = link.transfer(Time::zero(), 80);
  EXPECT_EQ(r.start, Time::zero());
  EXPECT_EQ(r.complete, Time::ns(10.0 + 2.0));
  EXPECT_NEAR(r.energy.as_pj(), 12.0, 0.01);
  EXPECT_EQ(link.bytes_moved(), 80u);
}

TEST(Link, BackToBackTransfersQueueOnSerialization) {
  EnergyLedger ledger;
  Link link{LinkConfig{"l", 8.0, Time::ns(2.0), Energy::pj(0.15)}, &ledger};
  const auto r1 = link.transfer(Time::zero(), 80);
  const auto r2 = link.transfer(Time::zero(), 80);
  // Second transfer serializes after the first's payload (latency pipelines).
  EXPECT_EQ(r2.start, Time::ns(10.0));
  EXPECT_EQ(r2.complete, Time::ns(22.0));
  (void)r1;
}

}  // namespace
}  // namespace hhpim::noc
