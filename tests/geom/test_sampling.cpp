#include "geom/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/sampling.hpp"

namespace qlec {
namespace {

TEST(SampleUniform, CountAndContainment) {
  Rng rng(1);
  const Aabb box = Aabb::cube(200.0);
  const auto pts = sample_uniform(500, box, rng);
  ASSERT_EQ(pts.size(), 500u);
  for (const Vec3& p : pts) EXPECT_TRUE(box.contains(p));
}

TEST(SampleUniform, MeanNearCenter) {
  Rng rng(2);
  const Aabb box = Aabb::cube(100.0);
  const auto pts = sample_uniform(20000, box, rng);
  const Vec3 c = centroid(pts);
  EXPECT_NEAR(c.x, 50.0, 1.0);
  EXPECT_NEAR(c.y, 50.0, 1.0);
  EXPECT_NEAR(c.z, 50.0, 1.0);
}

TEST(SampleUniform, ZeroCount) {
  Rng rng(3);
  EXPECT_TRUE(sample_uniform(0, Aabb::cube(10), rng).empty());
}

TEST(SampleClustered, PointsNearCenters) {
  Rng rng(4);
  const Aabb box = Aabb::cube(1000.0);
  const std::vector<Vec3> centers{{100, 100, 100}, {900, 900, 900}};
  const auto pts =
      sample_clustered(400, box, centers, {}, /*sigma=*/10.0, rng);
  ASSERT_EQ(pts.size(), 400u);
  for (const Vec3& p : pts) {
    const double d0 = distance(p, centers[0]);
    const double d1 = distance(p, centers[1]);
    EXPECT_LT(std::min(d0, d1), 100.0);  // within ~10 sigma of some center
    EXPECT_TRUE(box.contains(p));
  }
}

TEST(SampleClustered, WeightsBiasCenterChoice) {
  Rng rng(5);
  const Aabb box = Aabb::cube(1000.0);
  const std::vector<Vec3> centers{{100, 100, 100}, {900, 900, 900}};
  const auto pts =
      sample_clustered(2000, box, centers, {9.0, 1.0}, 5.0, rng);
  int near_first = 0;
  for (const Vec3& p : pts)
    if (distance(p, centers[0]) < distance(p, centers[1])) ++near_first;
  EXPECT_GT(near_first, 1600);  // ~90%
}

TEST(SampleClustered, EmptyCentersFallsBackToUniform) {
  Rng rng(6);
  const Aabb box = Aabb::cube(50.0);
  const auto pts = sample_clustered(100, box, {}, {}, 1.0, rng);
  ASSERT_EQ(pts.size(), 100u);
  for (const Vec3& p : pts) EXPECT_TRUE(box.contains(p));
}

TEST(SampleTerrain, StaysInBoxAndVariesHeight) {
  Rng rng(7);
  const Aabb box = Aabb::cube(200.0);
  const auto pts = sample_terrain(1000, box, 40.0, 5.0, rng);
  ASSERT_EQ(pts.size(), 1000u);
  double z_min = 1e9, z_max = -1e9;
  for (const Vec3& p : pts) {
    EXPECT_TRUE(box.contains(p));
    z_min = std::min(z_min, p.z);
    z_max = std::max(z_max, p.z);
  }
  // Terrain should produce meaningful vertical relief.
  EXPECT_GT(z_max - z_min, 40.0);
}

TEST(DistanceMoments, KnownConfiguration) {
  const std::vector<Vec3> pts{{3, 4, 0}, {0, 0, 5}};
  const DistanceMoments m = distance_moments(pts, {0, 0, 0});
  EXPECT_DOUBLE_EQ(m.mean, 5.0);
  EXPECT_DOUBLE_EQ(m.mean_sq, 25.0);
  EXPECT_DOUBLE_EQ(m.max, 5.0);
}

TEST(DistanceMoments, EmptyIsZero) {
  const DistanceMoments m = distance_moments({}, {1, 2, 3});
  EXPECT_EQ(m.mean, 0.0);
  EXPECT_EQ(m.mean_sq, 0.0);
  EXPECT_EQ(m.max, 0.0);
}

TEST(DistanceMoments, UniformCubeToCenterMatchesTheory) {
  // E[d^2] from a uniform cube side M to its center is M^2 / 4.
  Rng rng(8);
  const double m_side = 200.0;
  const Aabb box = Aabb::cube(m_side);
  const auto pts = sample_uniform(50000, box, rng);
  const DistanceMoments m = distance_moments(pts, box.center());
  EXPECT_NEAR(m.mean_sq, m_side * m_side / 4.0, 150.0);
}

TEST(Centroid, Basics) {
  EXPECT_EQ(centroid({}), (Vec3{0, 0, 0}));
  EXPECT_EQ(centroid({{2, 4, 6}}), (Vec3{2, 4, 6}));
  EXPECT_EQ(centroid({{0, 0, 0}, {2, 2, 2}}), (Vec3{1, 1, 1}));
}

}  // namespace
}  // namespace qlec
