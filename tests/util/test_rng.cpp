#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace qlec {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.next_u64());
  EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng r(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[r.uniform_int(std::uint64_t{10})];
  for (const int c : counts) EXPECT_GT(c, 800);  // fair-ish
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = r.uniform_int(std::int64_t{-3}, std::int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntZeroReturnsZero) {
  Rng r(1);
  EXPECT_EQ(r.uniform_int(std::uint64_t{0}), 0u);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng r(21);
  int hits = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(31);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng r(33);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.exponential(2.0), 0.0);
  EXPECT_EQ(r.exponential(0.0), 0.0);
  EXPECT_EQ(r.exponential(-1.0), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(51);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, LognormalPositive) {
  Rng r(53);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(61);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(63);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> orig = v;
  r.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(71);
  const std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[r.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.25);
}

TEST(Rng, WeightedIndexDegenerateInputs) {
  Rng r(73);
  EXPECT_EQ(r.weighted_index({}), 0u);
  // All-zero weights fall back to uniform over the indices.
  const std::vector<double> zeros{0.0, 0.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.weighted_index(zeros), 3u);
  // Negative weights are treated as zero.
  const std::vector<double> mixed{-1.0, 2.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.weighted_index(mixed), 1u);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

// Chi-square sanity sweep across several seeds: uniform_int(16) buckets
// should not be wildly skewed for any seed.
class RngChiSquare : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngChiSquare, UniformBucketsBalanced) {
  Rng r(GetParam());
  constexpr int kBuckets = 16;
  constexpr int kN = 16000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kN; ++i)
    ++counts[r.uniform_int(std::uint64_t{kBuckets})];
  const double expected = static_cast<double>(kN) / kBuckets;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 15 dof; 99.9th percentile ~ 37.7.
  EXPECT_LT(chi2, 37.7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngChiSquare,
                         ::testing::Values(1u, 2u, 42u, 1234u, 99999u,
                                           0xDEADBEEFu));

}  // namespace
}  // namespace qlec
