#include "energy/ledger.hpp"

#include <gtest/gtest.h>

namespace qlec {
namespace {

TEST(EnergyLedger, StartsEmpty) {
  const EnergyLedger l;
  EXPECT_DOUBLE_EQ(l.total(), 0.0);
  EXPECT_DOUBLE_EQ(l.by_use(EnergyUse::kTransmit), 0.0);
}

TEST(EnergyLedger, ChargesAccumulate) {
  EnergyLedger l;
  l.charge(EnergyUse::kTransmit, 1.0);
  l.charge(EnergyUse::kTransmit, 2.0);
  l.charge(EnergyUse::kReceive, 0.5);
  EXPECT_DOUBLE_EQ(l.by_use(EnergyUse::kTransmit), 3.0);
  EXPECT_DOUBLE_EQ(l.by_use(EnergyUse::kReceive), 0.5);
  EXPECT_DOUBLE_EQ(l.total(), 3.5);
}

TEST(EnergyLedger, NegativeChargeIgnored) {
  EnergyLedger l;
  l.charge(EnergyUse::kAggregate, -5.0);
  EXPECT_DOUBLE_EQ(l.total(), 0.0);
}

TEST(EnergyLedger, SummaryMentionsAllBuckets) {
  EnergyLedger l;
  l.charge(EnergyUse::kTransmit, 1.0);
  const std::string s = l.summary();
  EXPECT_NE(s.find("tx="), std::string::npos);
  EXPECT_NE(s.find("rx="), std::string::npos);
  EXPECT_NE(s.find("agg="), std::string::npos);
  EXPECT_NE(s.find("ctl="), std::string::npos);
  EXPECT_NE(s.find("mac="), std::string::npos);
  EXPECT_NE(s.find("total="), std::string::npos);
}

TEST(EnergyUseName, AllNamed) {
  EXPECT_STREQ(energy_use_name(EnergyUse::kTransmit), "tx");
  EXPECT_STREQ(energy_use_name(EnergyUse::kReceive), "rx");
  EXPECT_STREQ(energy_use_name(EnergyUse::kAggregate), "agg");
  EXPECT_STREQ(energy_use_name(EnergyUse::kControl), "ctl");
  EXPECT_STREQ(energy_use_name(EnergyUse::kMac), "mac");
}

}  // namespace
}  // namespace qlec
