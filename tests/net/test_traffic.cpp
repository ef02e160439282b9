#include "net/traffic.hpp"

#include <gtest/gtest.h>

namespace qlec {
namespace {

TEST(PoissonTraffic, DisabledWhenMeanNonPositive) {
  Rng rng(1);
  PoissonTraffic t(10, 0.0, rng);
  std::vector<std::size_t> out{3, 4};  // stale entries are cleared
  for (std::int64_t s = 0; s < 100; ++s) {
    t.arrivals_into(s, rng, out);
    EXPECT_TRUE(out.empty());
  }
}

TEST(PoissonTraffic, RateMatchesMeanInterarrival) {
  Rng rng(2);
  const std::size_t nodes = 50;
  const double lambda = 4.0;  // one packet per node every 4 slots
  PoissonTraffic t(nodes, lambda, rng);
  std::vector<std::size_t> out;
  std::size_t total = 0;
  const std::int64_t slots = 2000;
  for (std::int64_t s = 0; s < slots; ++s) {
    t.arrivals_into(s, rng, out);
    total += out.size();
  }
  const double expected =
      static_cast<double>(nodes) * static_cast<double>(slots) / lambda;
  EXPECT_NEAR(static_cast<double>(total), expected, expected * 0.05);
}

TEST(PoissonTraffic, SmallerLambdaMeansMoreTraffic) {
  Rng rng1(3), rng2(3);
  PoissonTraffic fast(20, 2.0, rng1);
  PoissonTraffic slow(20, 16.0, rng2);
  std::vector<std::size_t> out;
  std::size_t fast_total = 0, slow_total = 0;
  for (std::int64_t s = 0; s < 500; ++s) {
    fast.arrivals_into(s, rng1, out);
    fast_total += out.size();
    slow.arrivals_into(s, rng2, out);
    slow_total += out.size();
  }
  EXPECT_GT(fast_total, 4 * slow_total);
}

TEST(PoissonTraffic, ArrivalIndicesInRange) {
  Rng rng(4);
  PoissonTraffic t(7, 1.0, rng);
  std::vector<std::size_t> out;
  for (std::int64_t s = 0; s < 200; ++s) {
    t.arrivals_into(s, rng, out);
    for (const std::size_t i : out) EXPECT_LT(i, 7u);
  }
}

TEST(PoissonTraffic, NoArrivalLostBetweenSlots) {
  // Querying every slot in order must enumerate each arrival exactly once:
  // total count is reproducible for a fixed seed regardless of chunking.
  Rng rng_a(5), rng_b(5);
  PoissonTraffic a(5, 3.0, rng_a);
  PoissonTraffic b(5, 3.0, rng_b);
  std::vector<std::size_t> out;
  std::size_t total_a = 0;
  for (std::int64_t s = 0; s < 300; ++s) {
    a.arrivals_into(s, rng_a, out);
    total_a += out.size();
  }
  std::size_t total_b = 0;
  for (std::int64_t s = 0; s < 300; ++s) {
    b.arrivals_into(s, rng_b, out);
    total_b += out.size();
  }
  EXPECT_EQ(total_a, total_b);
  EXPECT_GT(total_a, 0u);
}

TEST(PoissonTraffic, BurstsPossibleWithinOneSlot) {
  Rng rng(6);
  PoissonTraffic t(1, 0.2, rng);  // ~5 arrivals per slot on one node
  std::vector<std::size_t> out;
  bool saw_burst = false;
  for (std::int64_t s = 0; s < 100 && !saw_burst; ++s) {
    t.arrivals_into(s, rng, out);
    saw_burst = out.size() >= 2;
  }
  EXPECT_TRUE(saw_burst);
}

TEST(PoissonTraffic, ZeroNodes) {
  Rng rng(7);
  PoissonTraffic t(0, 1.0, rng);
  std::vector<std::size_t> out;
  t.arrivals_into(0, rng, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace qlec
