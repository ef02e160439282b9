#include "net/link.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace qlec {
namespace {

TEST(LinkModel, PerfectAtZeroDistance) {
  const LinkModel m;
  EXPECT_DOUBLE_EQ(m.success_probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.success_probability(-1.0), 1.0);
}

TEST(LinkModel, MonotoneDecreasingUntilFloor) {
  const LinkModel m;
  double prev = 1.1;
  for (double d = 0.0; d <= 2000.0; d += 50.0) {
    const double p = m.success_probability(d);
    EXPECT_LE(p, prev + 1e-15);
    EXPECT_GE(p, m.p_floor);
    prev = p;
  }
}

TEST(LinkModel, GaussianShape) {
  const LinkModel m{.d_ref = 100.0, .p_floor = 0.0};
  EXPECT_NEAR(m.success_probability(100.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(m.success_probability(200.0), std::exp(-4.0), 1e-12);
}

TEST(LinkModel, FloorApplies) {
  const LinkModel m{.d_ref = 10.0, .p_floor = 0.05};
  EXPECT_DOUBLE_EQ(m.success_probability(1000.0), 0.05);
}

TEST(LinkModel, BsUplinkMoreReliable) {
  const LinkModel m;
  for (double d = 10.0; d < 500.0; d += 37.0) {
    EXPECT_GE(m.bs_success_probability(d), m.success_probability(d));
  }
}

TEST(LinkModel, BsReliabilityFactorExtremes) {
  LinkModel m;
  m.bs_reliability_factor = 0.0;  // perfect BS uplink
  EXPECT_DOUBLE_EQ(m.bs_success_probability(1e6), 1.0);
  m.bs_reliability_factor = 1.0;  // same as normal link
  EXPECT_DOUBLE_EQ(m.bs_success_probability(300.0),
                   m.success_probability(300.0));
}

TEST(LinkModel, AttemptFrequencyMatchesProbability) {
  const LinkModel m{.d_ref = 100.0, .p_floor = 0.0};
  Rng rng(3);
  const double d = 120.0;
  const double p = m.success_probability(d);
  int hits = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) hits += m.attempt(d, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, p, 0.01);
}

TEST(LinkEstimator, PriorBeforeObservations) {
  const LinkEstimator est(16, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(est.estimate(0, 1), 1.0);  // optimistic prior 1/1
  EXPECT_EQ(est.observations(0, 1), 0u);
}

TEST(LinkEstimator, TracksSuccessRatio) {
  LinkEstimator est(32, 0.0, 1e-9);
  for (int i = 0; i < 8; ++i) est.record(0, 1, true);
  for (int i = 0; i < 8; ++i) est.record(0, 1, false);
  EXPECT_NEAR(est.estimate(0, 1), 0.5, 1e-6);
  EXPECT_EQ(est.observations(0, 1), 16u);
}

TEST(LinkEstimator, WindowEvictsOldOutcomes) {
  LinkEstimator est(4, 0.0, 1e-9);
  for (int i = 0; i < 4; ++i) est.record(0, 1, false);
  EXPECT_NEAR(est.estimate(0, 1), 0.0, 1e-6);
  for (int i = 0; i < 4; ++i) est.record(0, 1, true);
  // All failures evicted.
  EXPECT_NEAR(est.estimate(0, 1), 1.0, 1e-6);
  EXPECT_EQ(est.observations(0, 1), 4u);
}

TEST(LinkEstimator, LinksAreIndependent) {
  LinkEstimator est(8, 0.0, 1e-9);
  est.record(0, 1, true);
  est.record(0, 2, false);
  est.record(1, 0, false);
  EXPECT_NEAR(est.estimate(0, 1), 1.0, 1e-6);
  EXPECT_NEAR(est.estimate(0, 2), 0.0, 1e-6);
  EXPECT_NEAR(est.estimate(1, 0), 0.0, 1e-6);
}

TEST(LinkEstimator, DirectionMatters) {
  LinkEstimator est(8, 0.0, 1e-9);
  est.record(3, 5, true);
  EXPECT_EQ(est.observations(5, 3), 0u);
}

TEST(LinkEstimator, BaseStationSentinelKeyWorks) {
  LinkEstimator est(8, 0.0, 1e-9);
  est.record(7, -1, true);  // kBaseStationId
  est.record(7, -1, true);
  EXPECT_NEAR(est.estimate(7, -1), 1.0, 1e-6);
  EXPECT_EQ(est.observations(7, -1), 2u);
}

TEST(LinkEstimator, ClearForgets) {
  LinkEstimator est(8, 1.0, 2.0);
  est.record(0, 1, false);
  est.clear();
  EXPECT_DOUBLE_EQ(est.estimate(0, 1), 0.5);  // back to prior 1/2
}

TEST(LinkEstimator, PriorSmoothsEarlyEstimates) {
  LinkEstimator est(32, 1.0, 2.0);  // Beta(1,1)-ish prior at 0.5
  est.record(0, 1, true);
  // (1 + 1) / (1 + 2) = 2/3, not 1.0: one success shouldn't saturate.
  EXPECT_NEAR(est.estimate(0, 1), 2.0 / 3.0, 1e-9);
}

TEST(LinkEstimator, WindowClampedToSupportedRange) {
  LinkEstimator est(1000, 0.0, 1e-9);  // clamped to 64
  for (int i = 0; i < 200; ++i) est.record(0, 1, i < 100);
  // Only the most recent 64 (all failures) should remain.
  EXPECT_NEAR(est.estimate(0, 1), 0.0, 1e-6);
  EXPECT_LE(est.observations(0, 1), 64u);
}

// fill_estimates must write what estimate() returns for each target, bit
// for bit, whatever the target list looks like and wherever `from`'s
// history is stored.
TEST(LinkEstimator, FillEstimatesMatchesPerTargetEstimate) {
  LinkEstimator est(4, 1.0, 2.0);
  Rng rng(11);
  // Source 3: a full window into 5 that has evicted 7 outcomes, a partial
  // one into the BS, and one failure into 7.
  for (int i = 0; i < 11; ++i) est.record(3, 5, rng.bernoulli(0.5));
  est.record(3, kBaseStationId, true);
  est.record(3, kBaseStationId, false);
  est.record(3, 7, false);
  // Source 2 exists with no history; negative sources use the side map.
  est.record(-4, 5, true);
  est.record(-4, kBaseStationId, false);
  ASSERT_EQ(est.observations(3, 5), 4u);

  // Unobserved targets (9, 12, 0), duplicates (5, 7, BS) and the BS.
  const std::vector<int> targets{9, 5, kBaseStationId, 5, 7,
                                 12, 7, kBaseStationId, 0};
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (const int from : {3, 2, -4, 1000}) {
    SCOPED_TRACE("from = " + std::to_string(from));
    std::vector<double> got(targets.size(),
                            std::numeric_limits<double>::quiet_NaN());
    est.fill_estimates(from, targets.data(), targets.size(), got.data());
    for (std::size_t i = 0; i < targets.size(); ++i)
      EXPECT_EQ(bits(got[i]), bits(est.estimate(from, targets[i])))
          << "target " << targets[i];
  }
  double untouched = -1.0;
  est.fill_estimates(3, targets.data(), 0, &untouched);  // n == 0
  EXPECT_EQ(untouched, -1.0);
}

}  // namespace
}  // namespace qlec
