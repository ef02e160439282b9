#include "cluster/kmeans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/sampling.hpp"
#include "support/sampling.hpp"

namespace qlec {
namespace {

std::vector<Vec3> three_blobs(Rng& rng, std::size_t per_blob) {
  const std::vector<Vec3> centers{
      {10, 10, 10}, {90, 90, 90}, {10, 90, 50}};
  return sample_clustered(per_blob * 3, Aabb::cube(100.0), centers, {},
                          /*sigma=*/2.0, rng);
}

TEST(Kmeans, EmptyInput) {
  Rng rng(1);
  const Clustering c = kmeans({}, 3, rng);
  EXPECT_TRUE(c.centroids.empty());
  EXPECT_TRUE(c.assignment.empty());
}

TEST(Kmeans, SinglePoint) {
  Rng rng(2);
  const Clustering c = kmeans({{1, 2, 3}}, 5, rng);  // k clamps to 1
  ASSERT_EQ(c.centroids.size(), 1u);
  EXPECT_EQ(c.centroids[0], (Vec3{1, 2, 3}));
  EXPECT_EQ(c.assignment, (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(c.objective, 0.0);
}

TEST(Kmeans, AssignmentInRange) {
  Rng rng(3);
  const auto pts = sample_uniform(200, Aabb::cube(50.0), rng);
  const Clustering c = kmeans(pts, 7, rng);
  ASSERT_EQ(c.assignment.size(), 200u);
  for (const int a : c.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 7);
  }
}

TEST(Kmeans, RecoversWellSeparatedBlobs) {
  Rng rng(4);
  const auto pts = three_blobs(rng, 50);
  const Clustering c = kmeans(pts, 3, rng);
  // Every point should be within a few sigma of its centroid.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_LT(distance(pts[i],
                       c.centroids[static_cast<std::size_t>(
                           c.assignment[i])]),
              15.0);
  }
  EXPECT_LT(c.objective, 150.0 * 9.0 * 3.0);  // ~n * sigma^2 * dims scale
}

TEST(Kmeans, EachPointAssignedToNearestCentroid) {
  Rng rng(5);
  const auto pts = sample_uniform(120, Aabb::cube(80.0), rng);
  const Clustering c = kmeans(pts, 5, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double assigned = distance2(
        pts[i], c.centroids[static_cast<std::size_t>(c.assignment[i])]);
    for (const Vec3& cent : c.centroids)
      EXPECT_LE(assigned, distance2(pts[i], cent) + 1e-9);
  }
}

TEST(Kmeans, MoreClustersNeverWorseInertia) {
  Rng rng(6);
  const auto pts = sample_uniform(150, Aabb::cube(60.0), rng);
  // k-means is a heuristic, but with a common seed and well-behaved data
  // inertia should broadly decrease as k grows.
  Rng r2(7), r8(7);
  const double inertia2 = kmeans(pts, 2, r2).objective;
  const double inertia8 = kmeans(pts, 8, r8).objective;
  EXPECT_LT(inertia8, inertia2);
}

TEST(Kmeans, KEqualsNGivesZeroInertia) {
  Rng rng(8);
  const auto pts = sample_uniform(12, Aabb::cube(30.0), rng);
  const Clustering c = kmeans(pts, 12, rng);
  EXPECT_NEAR(c.objective, 0.0, 1e-9);
}

TEST(Kmeans, DuplicatePointsHandled) {
  Rng rng(9);
  const std::vector<Vec3> pts(20, Vec3{5, 5, 5});
  const Clustering c = kmeans(pts, 3, rng);
  ASSERT_EQ(c.assignment.size(), 20u);
  EXPECT_NEAR(c.objective, 0.0, 1e-9);
}

TEST(Kmeans, IterationsReported) {
  Rng rng(10);
  const auto pts = sample_uniform(100, Aabb::cube(40.0), rng);
  const Clustering c = kmeans(pts, 4, rng);
  EXPECT_GE(c.iterations, 1);
  EXPECT_LE(c.iterations, 100);
}

TEST(Inertia, MatchesManualComputation) {
  const std::vector<Vec3> pts{{0, 0, 0}, {2, 0, 0}};
  const std::vector<Vec3> cents{{1, 0, 0}};
  EXPECT_DOUBLE_EQ(inertia(pts, cents, {0, 0}), 2.0);
}

TEST(NearestPointsToCentroids, PicksDistinctNearest) {
  const std::vector<Vec3> pts{{0, 0, 0}, {10, 0, 0}, {20, 0, 0}};
  const std::vector<Vec3> cents{{1, 0, 0}, {19, 0, 0}};
  const auto heads = nearest_points_to_centroids(pts, cents);
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], 0u);
  EXPECT_EQ(heads[1], 2u);
}

TEST(NearestPointsToCentroids, SharedNearestResolvedGreedily) {
  // Both centroids are nearest to point 0; the second must take another.
  const std::vector<Vec3> pts{{0, 0, 0}, {5, 0, 0}};
  const std::vector<Vec3> cents{{0.1, 0, 0}, {0.2, 0, 0}};
  const auto heads = nearest_points_to_centroids(pts, cents);
  ASSERT_EQ(heads.size(), 2u);
  const std::set<std::size_t> unique(heads.begin(), heads.end());
  EXPECT_EQ(unique.size(), 2u);
}

TEST(NearestPointsToCentroids, MoreCentroidsThanPoints) {
  const std::vector<Vec3> pts{{0, 0, 0}};
  const std::vector<Vec3> cents{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}};
  const auto heads = nearest_points_to_centroids(pts, cents);
  EXPECT_EQ(heads.size(), 1u);
}

// Property sweep: the k-means objective never increases when re-running
// assignment against the returned centroids (fixed-point consistency).
class KmeansProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KmeansProperty, ReturnedAssignmentIsStable) {
  Rng rng(100 + GetParam());
  const auto pts = sample_uniform(100, Aabb::cube(70.0), rng);
  const Clustering c = kmeans(pts, GetParam(), rng);
  // Reassigning against final centroids should not change the objective.
  std::vector<int> re(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    int best = 0;
    double best_d2 = distance2(pts[i], c.centroids[0]);
    for (std::size_t k = 1; k < c.centroids.size(); ++k) {
      const double d2 = distance2(pts[i], c.centroids[k]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = static_cast<int>(k);
      }
    }
    re[i] = best;
  }
  EXPECT_NEAR(inertia(pts, c.centroids, re), c.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ks, KmeansProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace qlec
