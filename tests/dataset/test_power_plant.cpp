#include "dataset/power_plant.hpp"

#include <gtest/gtest.h>

namespace qlec {
namespace {

const char* kSampleCsv =
    "name,capacity_mw,latitude,longitude,height_m\n"
    "Plant A,100,30.5,114.2,120\n"
    "Plant B,2000,39.9,116.4,35\n"
    "\"Quoted, Plant\",5.5,23.1,113.3,0\n";

TEST(ParsePowerPlants, ParsesValidRows) {
  const auto plants = parse_power_plants(kSampleCsv);
  ASSERT_TRUE(plants.has_value());
  ASSERT_EQ(plants->size(), 3u);
  EXPECT_EQ((*plants)[0].name, "Plant A");
  EXPECT_DOUBLE_EQ((*plants)[0].capacity_mw, 100.0);
  EXPECT_DOUBLE_EQ((*plants)[1].latitude, 39.9);
  EXPECT_EQ((*plants)[2].name, "Quoted, Plant");
  EXPECT_DOUBLE_EQ((*plants)[2].height_m, 0.0);
}

TEST(ParsePowerPlants, HeightColumnOptional) {
  const auto plants = parse_power_plants(
      "name,capacity_mw,latitude,longitude\nX,10,30,110\n");
  ASSERT_TRUE(plants.has_value());
  ASSERT_EQ(plants->size(), 1u);
  EXPECT_DOUBLE_EQ((*plants)[0].height_m, 0.0);
}

TEST(ParsePowerPlants, ColumnOrderFlexible) {
  const auto plants = parse_power_plants(
      "longitude,latitude,name,capacity_mw\n110,30,X,10\n");
  ASSERT_TRUE(plants.has_value());
  ASSERT_EQ(plants->size(), 1u);
  EXPECT_DOUBLE_EQ((*plants)[0].longitude, 110.0);
  EXPECT_DOUBLE_EQ((*plants)[0].latitude, 30.0);
}

TEST(ParsePowerPlants, SkipsMalformedRows) {
  const auto plants = parse_power_plants(
      "name,capacity_mw,latitude,longitude\n"
      "good,10,30,110\n"
      "bad,notanumber,30,110\n"
      "alsogood,20,31,111\n");
  ASSERT_TRUE(plants.has_value());
  EXPECT_EQ(plants->size(), 2u);
}

TEST(ParsePowerPlants, MissingRequiredColumnFails) {
  EXPECT_FALSE(parse_power_plants("name,capacity_mw,latitude\nX,1,2\n")
                   .has_value());
  EXPECT_FALSE(parse_power_plants("").has_value());
}

TEST(DatasetToNetwork, BasicConversion) {
  const auto plants = parse_power_plants(kSampleCsv);
  ASSERT_TRUE(plants.has_value());
  const Network net = dataset_to_network(*plants);
  EXPECT_EQ(net.size(), 3u);
  // Highest-capacity plant gets the most initial energy.
  EXPECT_GT(net.node(1).battery.initial(), net.node(0).battery.initial());
  EXPECT_GT(net.node(0).battery.initial(), net.node(2).battery.initial());
}

TEST(DatasetToNetwork, EnergyRangeRespected) {
  const auto plants = parse_power_plants(kSampleCsv);
  DatasetNetworkConfig cfg;
  cfg.e_min = 1.0;
  cfg.e_max = 3.0;
  const Network net = dataset_to_network(*plants, cfg);
  for (const SensorNode& n : net.nodes()) {
    EXPECT_GE(n.battery.initial(), 1.0 - 1e-9);
    EXPECT_LE(n.battery.initial(), 3.0 + 1e-9);
  }
  // Extremes map to the endpoints.
  EXPECT_NEAR(net.node(1).battery.initial(), 3.0, 1e-9);
  EXPECT_NEAR(net.node(2).battery.initial(), 1.0, 1e-9);
}

TEST(DatasetToNetwork, HorizontalExtentNormalized) {
  const auto plants = parse_power_plants(kSampleCsv);
  DatasetNetworkConfig cfg;
  cfg.target_extent_m = 1000.0;
  const Network net = dataset_to_network(*plants, cfg);
  const Vec3 ext = net.domain().extent();
  EXPECT_NEAR(std::max(ext.x, ext.y), 1000.0, 1.0);
}

TEST(DatasetToNetwork, HeightsBecomeZ) {
  const auto plants = parse_power_plants(kSampleCsv);
  const Network net = dataset_to_network(*plants);
  EXPECT_DOUBLE_EQ(net.node(0).pos.z, 120.0);
  EXPECT_DOUBLE_EQ(net.node(1).pos.z, 35.0);
}

TEST(DatasetToNetwork, EmptyInput) {
  const Network net = dataset_to_network({});
  EXPECT_EQ(net.size(), 0u);
}

TEST(DatasetToNetwork, BsAtTopCenter) {
  const auto plants = parse_power_plants(kSampleCsv);
  const Network net = dataset_to_network(*plants);
  EXPECT_DOUBLE_EQ(net.bs().z, net.domain().hi.z);
}

}  // namespace
}  // namespace qlec
