#include "dataset/synthetic_gppd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "util/csv.hpp"
#include "util/stats.hpp"

namespace qlec {
namespace {

TEST(SyntheticGppd, DefaultMatchesPaperCount) {
  const auto plants = generate_synthetic_gppd();
  EXPECT_EQ(plants.size(), 2896u);  // §5.3: 2896 nodes in China
}

TEST(SyntheticGppd, DeterministicForSameSeed) {
  const auto a = generate_synthetic_gppd();
  const auto b = generate_synthetic_gppd();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].latitude, b[i].latitude);
    EXPECT_DOUBLE_EQ(a[i].capacity_mw, b[i].capacity_mw);
  }
}

TEST(SyntheticGppd, DifferentSeedsDiffer) {
  SyntheticGppdConfig cfg;
  cfg.seed = 1;
  const auto a = generate_synthetic_gppd(cfg);
  cfg.seed = 2;
  const auto b = generate_synthetic_gppd(cfg);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); i += 10)
    same += a[i].latitude == b[i].latitude ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(SyntheticGppd, CoordinatesWithinChinaBounds) {
  for (const PowerPlant& p : generate_synthetic_gppd()) {
    EXPECT_GE(p.latitude, 18.0);
    EXPECT_LE(p.latitude, 53.0);
    EXPECT_GE(p.longitude, 74.0);
    EXPECT_LE(p.longitude, 134.0);
  }
}

TEST(SyntheticGppd, HeightsInConfiguredRange) {
  SyntheticGppdConfig cfg;
  cfg.height_min = 100.0;
  cfg.height_max = 500.0;
  for (const PowerPlant& p : generate_synthetic_gppd(cfg)) {
    EXPECT_GE(p.height_m, 100.0);
    EXPECT_LT(p.height_m, 500.0);
  }
}

TEST(SyntheticGppd, CapacitiesHeavyTailed) {
  const auto plants = generate_synthetic_gppd();
  std::vector<double> caps;
  caps.reserve(plants.size());
  RunningStats stats;
  for (const PowerPlant& p : plants) {
    EXPECT_GT(p.capacity_mw, 0.0);
    caps.push_back(p.capacity_mw);
    stats.add(p.capacity_mw);
  }
  // Log-normal: mean far above median.
  const double med = percentile(caps, 0.5);
  EXPECT_GT(stats.mean(), 1.5 * med);
}

TEST(SyntheticGppd, SpatiallyClumpy) {
  // Plants concentrate near anchors: the fraction within 3 degrees of some
  // anchor should be large.
  const auto plants = generate_synthetic_gppd();
  const auto& anchors = china_city_anchors();
  int near = 0;
  for (const PowerPlant& p : plants) {
    for (const CityAnchor& a : anchors) {
      const double dlat = p.latitude - a.latitude;
      const double dlon = p.longitude - a.longitude;
      if (dlat * dlat + dlon * dlon < 9.0) {
        ++near;
        break;
      }
    }
  }
  EXPECT_GT(near, static_cast<int>(plants.size() * 0.7));
}

TEST(SyntheticGppd, RoundTripsThroughCsv) {
  SyntheticGppdConfig cfg;
  cfg.plants = 50;
  const auto plants = generate_synthetic_gppd(cfg);
  std::ostringstream csv;
  CsvWriter w(csv);
  w.write_row(CsvRow{"name", "capacity_mw", "latitude", "longitude",
                     "height_m"});
  for (const PowerPlant& p : plants)
    w.write_row(CsvRow{p.name, std::to_string(p.capacity_mw),
                       std::to_string(p.latitude),
                       std::to_string(p.longitude),
                       std::to_string(p.height_m)});
  const auto again = parse_power_plants(csv.str());
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(again->size(), 50u);
  for (std::size_t i = 0; i < plants.size(); ++i) {
    EXPECT_EQ((*again)[i].name, plants[i].name);
    EXPECT_NEAR((*again)[i].latitude, plants[i].latitude, 1e-6);
  }
}

TEST(SyntheticGppd, ConvertsToUsableNetwork) {
  SyntheticGppdConfig cfg;
  cfg.plants = 300;
  const auto plants = generate_synthetic_gppd(cfg);
  const Network net = dataset_to_network(plants);
  EXPECT_EQ(net.size(), 300u);
  EXPECT_GT(net.total_initial_energy(), 0.0);
  EXPECT_GT(net.mean_dist_to_bs(), 0.0);
}

TEST(ChinaCityAnchors, WellFormed) {
  const auto& anchors = china_city_anchors();
  EXPECT_GE(anchors.size(), 25u);
  for (const CityAnchor& a : anchors) {
    EXPECT_NE(a.name, nullptr);
    EXPECT_GT(a.weight, 0.0);
  }
}

}  // namespace
}  // namespace qlec
