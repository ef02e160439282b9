// Equivalence oracles for the hot-path rewrites: the grid-backed
// nearest-head assignment must reproduce the brute-force scan exactly
// (argmin AND tie-break), and the flat per-source link estimator must match
// a straightforward hash-map reference on arbitrary record/estimate
// sequences. These pin the optimizations to the committed golden digests.
#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "sim/experiment.hpp"
#include "sim/protocols/common.hpp"
#include "util/rng.hpp"

namespace qlec {
namespace {

Network random_network(std::size_t n, double side, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.scenario.n = n;
  cfg.scenario.m_side = side;
  return build_network(cfg, seed);
}

// Flags every `stride`-th node as head and returns the head list in a
// deliberately scrambled (non-ascending) order, since the tie-break is
// defined by list order, not id order.
std::vector<int> pick_heads(Network& net, std::size_t stride) {
  std::vector<int> heads;
  for (std::size_t i = 0; i < net.size(); i += stride) {
    net.node(static_cast<int>(i)).is_head = true;
    heads.push_back(static_cast<int>(i));
  }
  std::reverse(heads.begin(), heads.end());
  return heads;
}

// The one-node nearest_alive_head (the route() fallback), asked for every
// node id, must return the brute oracle's entry and the grid/SIMD path's.
void expect_helper_matches(const Network& net, const std::vector<int>& heads,
                           double death_line, const std::vector<int>& grid) {
  const auto brute = detail::assign_nearest_head_brute(net, heads, death_line);
  ASSERT_EQ(brute.size(), net.size());
  ASSERT_EQ(grid.size(), net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    const int one =
        detail::nearest_alive_head(net, heads, static_cast<int>(i), death_line);
    EXPECT_EQ(one, brute[i]) << "node " << i;
    EXPECT_EQ(one, grid[i]) << "node " << i;
  }
}

TEST(RoutingEquivalence, GridMatchesBruteAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Network net = random_network(400, 300.0, seed);
    const std::vector<int> heads = pick_heads(net, 13);  // ~31 heads
    ASSERT_GE(heads.size(), 16u);  // grid path engaged
    const auto grid = detail::assign_nearest_head(net, heads, 0.0);
    const auto brute = detail::assign_nearest_head_brute(net, heads, 0.0);
    ASSERT_EQ(grid.size(), brute.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
      EXPECT_EQ(grid[i], brute[i]) << "node " << i << " seed " << seed;
    expect_helper_matches(net, heads, 0.0, grid);
  }
}

TEST(RoutingEquivalence, GridMatchesBruteWithDeadHeads) {
  Network net = random_network(500, 250.0, 99);
  const std::vector<int> heads = pick_heads(net, 9);  // ~56 heads
  // Kill every third head: the assignment must skip them identically.
  for (std::size_t i = 0; i < heads.size(); i += 3) {
    Battery& b = net.node(heads[i]).battery;
    b.consume(b.residual() + 1.0);
  }
  const auto grid = detail::assign_nearest_head(net, heads, 0.0);
  const auto brute = detail::assign_nearest_head_brute(net, heads, 0.0);
  EXPECT_EQ(grid, brute);
  expect_helper_matches(net, heads, 0.0, grid);
  // Fault-down heads (battery intact) are skipped the same way.
  for (std::size_t i = 1; i < heads.size(); i += 3)
    net.node(heads[i]).up = false;
  expect_helper_matches(net, heads, 0.0,
                        detail::assign_nearest_head(net, heads, 0.0));
}

TEST(RoutingEquivalence, ExactDistanceTiesFollowHeadListOrder) {
  // 18 heads stacked pairwise on 9 positions: every query has an exact
  // distance tie that must resolve to the earlier entry of the heads list.
  std::vector<Vec3> pos;
  std::vector<int> heads;
  for (int i = 0; i < 9; ++i) {
    const Vec3 p{10.0 * i, 5.0 * i, 3.0 * i};
    pos.push_back(p);
    pos.push_back(p);  // duplicate position, distinct node
  }
  for (int i = 0; i < 30; ++i)
    pos.push_back(Vec3{7.0 * i, 11.0 * (i % 5), 2.0 * i});
  Network net(pos, 1.0, Vec3{0, 0, 0}, Aabb::cube(200.0));
  for (int i = 0; i < 18; ++i) {
    net.node(i).is_head = true;
    heads.push_back(i);
  }
  std::swap(heads[0], heads[1]);  // make list order differ from id order
  const auto grid = detail::assign_nearest_head(net, heads, 0.0);
  const auto brute = detail::assign_nearest_head_brute(net, heads, 0.0);
  EXPECT_EQ(grid, brute);
  expect_helper_matches(net, heads, 0.0, grid);
  // Ties below the SIMD threshold: keep one stacked pair and a single.
  const std::vector<int> few = {1, 0, 4};
  expect_helper_matches(net, few, 0.0,
                        detail::assign_nearest_head(net, few, 0.0));
}

TEST(RoutingEquivalence, SmallHeadSetsUseIdenticalBrutePath) {
  Network net = random_network(120, 150.0, 7);
  const std::vector<int> heads = pick_heads(net, 20);  // 6 heads < threshold
  EXPECT_EQ(detail::assign_nearest_head(net, heads, 0.0),
            detail::assign_nearest_head_brute(net, heads, 0.0));
  expect_helper_matches(net, heads, 0.0,
                        detail::assign_nearest_head(net, heads, 0.0));
}

TEST(RoutingEquivalence, NoAliveHeadsAssignsBaseStation) {
  Network net = random_network(50, 100.0, 3);
  const auto a = detail::assign_nearest_head(net, {}, 0.0);
  for (const int t : a) EXPECT_EQ(t, kBaseStationId);
  expect_helper_matches(net, {}, 0.0, a);
  // Heads exist but none is operational: one drained, one fault-down.
  net.node(4).is_head = true;
  net.node(9).is_head = true;
  net.node(4).battery.consume(net.node(4).battery.residual());
  net.node(9).up = false;
  const std::vector<int> heads = {9, 4};
  const auto none = detail::assign_nearest_head(net, heads, 0.0);
  for (const int t : none) EXPECT_EQ(t, kBaseStationId);
  expect_helper_matches(net, heads, 0.0, none);
}

// Reference estimator: the pre-optimization semantics, one hash map over
// (from, to) pairs with the same sliding window and prior.
class ReferenceEstimator {
 public:
  ReferenceEstimator(std::size_t window, double ps, double pn)
      : window_(window), prior_s_(ps), prior_n_(pn) {}

  void record(int from, int to, bool success) {
    auto& w = map_[key(from, to)];
    if (w.outcomes.size() == window_) w.outcomes.erase(w.outcomes.begin());
    w.outcomes.push_back(success);
  }
  double estimate(int from, int to) const {
    const auto it = map_.find(key(from, to));
    if (it == map_.end()) return prior_s_ / prior_n_;
    std::size_t s = 0;
    for (const bool b : it->second.outcomes) s += b ? 1 : 0;
    return (static_cast<double>(s) + prior_s_) /
           (static_cast<double>(it->second.outcomes.size()) + prior_n_);
  }

 private:
  struct Hist {
    std::vector<bool> outcomes;
  };
  static std::uint64_t key(int from, int to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }
  std::size_t window_;
  double prior_s_;
  double prior_n_;
  std::unordered_map<std::uint64_t, Hist> map_;
};

TEST(RoutingEquivalence, FlatEstimatorMatchesMapReference) {
  constexpr std::size_t kWindow = 8;
  LinkEstimator flat(kWindow, 1.0, 2.0);
  ReferenceEstimator ref(kWindow, 1.0, 2.0);
  Rng rng(2024);
  // Random traffic over a small id set, including the BS sentinel and a
  // negative source (the estimator's fallback-map path).
  const int sources[] = {0, 1, 5, 17, -3};
  const int targets[] = {kBaseStationId, 0, 2, 9, 31};
  for (int step = 0; step < 5000; ++step) {
    const int f = sources[rng.uniform_int(5)];
    const int t = targets[rng.uniform_int(5)];
    const bool ok = rng.bernoulli(0.6);
    flat.record(f, t, ok);
    ref.record(f, t, ok);
    if (step % 7 == 0) {
      const int qf = sources[rng.uniform_int(5)];
      const int qt = targets[rng.uniform_int(5)];
      ASSERT_DOUBLE_EQ(flat.estimate(qf, qt), ref.estimate(qf, qt))
          << "step " << step << " (" << qf << " -> " << qt << ")";
    }
  }
}

TEST(RoutingEquivalence, EstimatorObservationsCapAtWindow) {
  LinkEstimator e(4, 1.0, 1.0);
  for (int i = 0; i < 10; ++i) e.record(3, 7, i % 2 == 0);
  EXPECT_EQ(e.observations(3, 7), 4u);
  EXPECT_EQ(e.observations(7, 3), 0u);
  e.clear();
  EXPECT_EQ(e.observations(3, 7), 0u);
}

}  // namespace
}  // namespace qlec
