#include "cluster/fcm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "geom/sampling.hpp"
#include "support/sampling.hpp"

namespace qlec {
namespace {

TEST(Fcm, EmptyInput) {
  Rng rng(1);
  const FcmResult r = fuzzy_cmeans({}, 3, rng);
  EXPECT_TRUE(r.centers.empty());
  EXPECT_TRUE(r.membership.empty());
}

TEST(Fcm, MembershipRowsSumToOne) {
  Rng rng(2);
  const auto pts = sample_uniform(80, Aabb::cube(50.0), rng);
  const FcmResult r = fuzzy_cmeans(pts, 4, rng);
  ASSERT_EQ(r.membership.size(), 80u);
  for (const auto& row : r.membership) {
    ASSERT_EQ(row.size(), 4u);
    double sum = 0.0;
    for (const double u : row) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0 + 1e-12);
      sum += u;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Fcm, SeparatedBlobsGetCrispMemberships) {
  Rng rng(3);
  const std::vector<Vec3> centers{{10, 10, 10}, {90, 90, 90}};
  const auto pts = sample_clustered(100, Aabb::cube(100.0), centers, {},
                                    2.0, rng);
  const FcmResult r = fuzzy_cmeans(pts, 2, rng);
  // Points near a blob center should be dominated by one membership.
  int crisp = 0;
  for (const auto& row : r.membership)
    if (std::max(row[0], row[1]) > 0.9) ++crisp;
  EXPECT_GT(crisp, 90);
}

TEST(Fcm, CentersNearBlobCenters) {
  Rng rng(4);
  const std::vector<Vec3> centers{{10, 10, 10}, {90, 90, 90}};
  const auto pts = sample_clustered(200, Aabb::cube(100.0), centers, {},
                                    2.0, rng);
  const FcmResult r = fuzzy_cmeans(pts, 2, rng);
  ASSERT_EQ(r.centers.size(), 2u);
  // Each true center should have an FCM center within a few units.
  for (const Vec3& c : centers) {
    const double d = std::min(distance(r.centers[0], c),
                              distance(r.centers[1], c));
    EXPECT_LT(d, 5.0);
  }
}

TEST(Fcm, CoincidentPointGetsFullMembership) {
  Rng rng(5);
  // A point exactly on a center must not divide by zero.
  std::vector<Vec3> pts{{0, 0, 0}, {0, 0, 0}, {10, 10, 10}, {10, 10, 10}};
  const FcmResult r = fuzzy_cmeans(pts, 2, rng);
  for (const auto& row : r.membership) {
    double sum = 0.0;
    for (const double u : row) {
      EXPECT_TRUE(std::isfinite(u));
      sum += u;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Fcm, ObjectiveIsFiniteAndNonNegative) {
  Rng rng(6);
  const auto pts = sample_uniform(60, Aabb::cube(40.0), rng);
  const FcmResult r = fuzzy_cmeans(pts, 3, rng);
  EXPECT_TRUE(std::isfinite(r.objective));
  EXPECT_GE(r.objective, 0.0);
}

TEST(Fcm, KClampedToPointCount) {
  Rng rng(7);
  const std::vector<Vec3> pts{{0, 0, 0}, {5, 5, 5}};
  const FcmResult r = fuzzy_cmeans(pts, 10, rng);
  EXPECT_EQ(r.centers.size(), 2u);
}

TEST(FcmSelectHeads, EnergyBreaksMembershipTies) {
  // Two nodes equally central; the one with more residual energy heads.
  FcmResult r;
  r.centers = {{0, 0, 0}};
  r.membership = {{1.0}, {1.0}};
  const std::vector<double> residual{1.0, 4.0};
  const std::vector<double> initial{5.0, 5.0};
  const auto heads = fcm_select_heads(r, residual, initial);
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], 1u);
}

TEST(FcmSelectHeads, MembershipMattersWhenEnergyEqual) {
  FcmResult r;
  r.centers = {{0, 0, 0}};
  r.membership = {{0.3}, {0.9}};
  const std::vector<double> residual{5.0, 5.0};
  const std::vector<double> initial{5.0, 5.0};
  const auto heads = fcm_select_heads(r, residual, initial);
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], 1u);
}

TEST(FcmSelectHeads, HeadsAreDistinct) {
  Rng rng(8);
  const auto pts = sample_uniform(40, Aabb::cube(60.0), rng);
  const FcmResult r = fuzzy_cmeans(pts, 5, rng);
  const std::vector<double> residual(40, 3.0);
  const std::vector<double> initial(40, 5.0);
  const auto heads = fcm_select_heads(r, residual, initial);
  EXPECT_EQ(heads.size(), 5u);
  const std::set<std::size_t> unique(heads.begin(), heads.end());
  EXPECT_EQ(unique.size(), heads.size());
}

TEST(FcmSelectHeads, EmptyInputs) {
  EXPECT_TRUE(fcm_select_heads(FcmResult{}, {}, {}).empty());
}

// Sweep the fuzzifier: memberships must stay a valid partition for every m.
class FcmFuzzifierSweep : public ::testing::TestWithParam<double> {};

TEST_P(FcmFuzzifierSweep, ValidPartitionMatrix) {
  Rng rng(9);
  const auto pts = sample_uniform(50, Aabb::cube(30.0), rng);
  FcmConfig cfg;
  cfg.fuzzifier = GetParam();
  const FcmResult r = fuzzy_cmeans(pts, 3, rng, cfg);
  for (const auto& row : r.membership) {
    double sum = 0.0;
    for (const double u : row) {
      EXPECT_TRUE(std::isfinite(u));
      EXPECT_GE(u, -1e-12);
      sum += u;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzzifiers, FcmFuzzifierSweep,
                         ::testing::Values(1.2, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace qlec
