#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace qlec {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, CvZeroMean) {
  RunningStats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_EQ(s.cv(), 0.0);  // mean is 0 -> defined as 0
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  RunningStats small, large;
  Rng rng(6);
  for (int i = 0; i < 10; ++i) small.add(rng.normal(0, 1));
  for (int i = 0; i < 1000; ++i) large.add(rng.normal(0, 1));
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, InterpolatesBetweenValues) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Percentile, ExtremesAndClamping) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 5.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.bin_count(1), 0u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, ZeroBinsClampedToOne) {
  Histogram h(0.0, 1.0, 0);
  h.add(0.5);
  EXPECT_EQ(h.bins(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.25);
  h.add(0.75);
  const std::string out = h.render(20);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
}

TEST(Gini, PerfectEqualityIsZero) {
  EXPECT_NEAR(gini({5.0, 5.0, 5.0, 5.0}), 0.0, 1e-12);
}

TEST(Gini, ExtremeInequalityApproachesOne) {
  std::vector<double> v(100, 0.0);
  v.back() = 100.0;
  EXPECT_GT(gini(v), 0.95);
}

TEST(Gini, DegenerateInputs) {
  EXPECT_EQ(gini({}), 0.0);
  EXPECT_EQ(gini({3.0}), 0.0);
  EXPECT_EQ(gini({0.0, 0.0}), 0.0);
}

TEST(Gini, KnownTwoValueCase) {
  // {1, 3}: gini = 1/4.
  EXPECT_NEAR(gini({1.0, 3.0}), 0.25, 1e-12);
}

TEST(Gini, ScaleInvariant) {
  const std::vector<double> v{1.0, 2.0, 5.0, 9.0};
  std::vector<double> scaled;
  for (const double x : v) scaled.push_back(x * 7.5);
  EXPECT_NEAR(gini(v), gini(scaled), 1e-12);
}

// Property sweep: RunningStats against a brute-force computation.
class RunningStatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunningStatsProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  RunningStats s;
  std::vector<double> values;
  const int n = 10 + static_cast<int>(rng.uniform_int(std::uint64_t{200}));
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-100.0, 100.0);
    values.push_back(v);
    s.add(v);
  }
  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningStatsProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace qlec
