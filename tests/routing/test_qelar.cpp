#include "routing/qelar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geom/sampling.hpp"

namespace qlec {
namespace {

Network line_network(int n, double spacing = 30.0) {
  std::vector<Vec3> pts;
  for (int i = 1; i <= n; ++i)
    pts.push_back({spacing * static_cast<double>(i), 0, 0});
  return Network(pts, 5.0, {0, 0, 0}, Aabb::cube(spacing * (n + 1)));
}

// Trains round-robin from every node until the max V change over an entire
// sweep drops below `tol` (or `max_sweeps` sweeps have run).
void train_to_convergence(QelarRouter& router, std::size_t nodes, double tol,
                          int max_sweeps, Rng& rng) {
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) {
      const int id = static_cast<int>(i);
      const double before = router.v(id);
      router.train_episode(id, 4 * nodes + 16, rng);
      max_delta = std::max(max_delta, std::fabs(router.v(id) - before));
    }
    if (max_delta < tol) return;
  }
}

QelarParams deterministic_params() {
  QelarParams p;
  p.epsilon = 0.0;
  p.p_success = 1.0;
  return p;
}

TEST(Qelar, LearnsToReachBsOnLine) {
  const Network net = line_network(6);
  const ConnectivityGraph g(net, 35.0, 4000.0, RadioModel{});
  QelarRouter router(g, net, deterministic_params());
  Rng rng(1);
  train_to_convergence(router, net.size(), 1e-10, 200, rng);
  for (int src = 0; src < 6; ++src) {
    const auto path = router.route(src);
    ASSERT_FALSE(path.empty()) << src;
    EXPECT_EQ(path.back(), kBaseStationId) << src;
    // On a line, the only route is down the chain: src hops each time.
    EXPECT_EQ(path.size(), static_cast<std::size_t>(src + 1));
  }
}

TEST(Qelar, ValuesDecreaseWithDistanceFromBs) {
  const Network net = line_network(6);
  const ConnectivityGraph g(net, 35.0, 4000.0, RadioModel{});
  QelarRouter router(g, net, deterministic_params());
  Rng rng(2);
  train_to_convergence(router, net.size(), 1e-10, 200, rng);
  for (int i = 1; i < 6; ++i) EXPECT_LT(router.v(i), router.v(i - 1));
}

TEST(Qelar, PrefersRelayOverLongDirectHop) {
  // 160 m direct (d^4 regime) vs two 80 m hops: the energy term must steer
  // the learned route through the relay, like Dijkstra does.
  const std::vector<Vec3> pts{{80, 0, 0}, {160, 0, 0}};
  const Network net(pts, 5.0, {0, 0, 0}, Aabb::cube(300.0));
  const ConnectivityGraph g(net, 200.0, 4000.0, RadioModel{});
  QelarRouter router(g, net, deterministic_params());
  Rng rng(3);
  train_to_convergence(router, net.size(), 1e-10, 200, rng);
  const auto path = router.route(1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 0);
  EXPECT_EQ(path[1], kBaseStationId);
}

TEST(Qelar, RouteEnergyNearDijkstraOptimum) {
  Rng deploy(4);
  const Aabb box = Aabb::cube(150.0);
  const Network net(sample_uniform(50, box, deploy), 5.0, {0, 0, 0}, box);
  const ConnectivityGraph g(net, 70.0, 4000.0, RadioModel{});
  const ShortestPaths sp = min_energy_paths(g);
  QelarRouter router(g, net, deterministic_params());
  Rng rng(5);
  train_to_convergence(router, net.size(), 1e-10, 400, rng);
  int reachable = 0, routed = 0;
  double stretch_worst = 0.0;
  for (int src = 0; src < 50; ++src) {
    if (std::isinf(sp.cost[static_cast<std::size_t>(src)])) continue;
    ++reachable;
    const auto path = router.route(src);
    if (path.empty() || path.back() != kBaseStationId) continue;
    ++routed;
    const double e = router.route_energy(src, path);
    stretch_worst = std::max(
        stretch_worst, e / sp.cost[static_cast<std::size_t>(src)]);
  }
  ASSERT_GT(reachable, 20);
  EXPECT_EQ(routed, reachable);  // everything reachable gets routed
  // The discounted-reward objective is not exactly min-energy (the -g
  // punishment rewards fewer hops), but routes must stay near-optimal.
  EXPECT_LT(stretch_worst, 3.0);
}

TEST(Qelar, TrainEpisodeReportsFailureWithoutNeighbours) {
  const std::vector<Vec3> pts{{500, 0, 0}};
  const Network net(pts, 5.0, {0, 0, 0}, Aabb::cube(600.0));
  const ConnectivityGraph g(net, 50.0, 4000.0, RadioModel{});
  QelarRouter router(g, net, deterministic_params());
  Rng rng(6);
  EXPECT_LT(router.train_episode(0, 32, rng), 0);
  EXPECT_EQ(router.best_hop(0), -2);
  EXPECT_TRUE(router.route(0).empty());
}

TEST(Qelar, LossyLinksSlowButDoNotBreakTraining) {
  const Network net = line_network(4);
  const ConnectivityGraph g(net, 35.0, 4000.0, RadioModel{});
  QelarParams params = deterministic_params();
  params.p_success = 0.7;
  QelarRouter router(g, net, params);
  Rng rng(7);
  train_to_convergence(router, net.size(), 1e-8, 500, rng);
  const auto path = router.route(3);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), kBaseStationId);
  // Self-transition probability lowers the values vs the lossless case.
  EXPECT_LT(router.v(3), 0.0);
}

TEST(Qelar, RouteEnergyInfiniteForNonBsPath) {
  const Network net = line_network(3);
  const ConnectivityGraph g(net, 35.0, 4000.0, RadioModel{});
  QelarRouter router(g, net, deterministic_params());
  EXPECT_TRUE(std::isinf(router.route_energy(2, {1})));
  EXPECT_TRUE(std::isinf(router.route_energy(2, {})));
}

TEST(Qelar, UpdatesCounterAdvances) {
  const Network net = line_network(3);
  const ConnectivityGraph g(net, 35.0, 4000.0, RadioModel{});
  QelarRouter router(g, net, deterministic_params());
  Rng rng(8);
  EXPECT_EQ(router.updates(), 0u);
  router.train_episode(2, 16, rng);
  EXPECT_GT(router.updates(), 0u);
}

TEST(Qelar, DrainedRelayLosesAttraction) {
  // Two parallel relays at the same distance; drain one and confirm the
  // energy-aware reward steers the route through the healthy one.
  const std::vector<Vec3> pts{
      {80, 20, 0}, {80, -20, 0}, {160, 0, 0}};
  Network net(pts, 5.0, {0, 0, 0}, Aabb::cube(300.0));
  net.node(0).battery.consume(4.9);  // relay 0 nearly dead
  const ConnectivityGraph g(net, 130.0, 4000.0, RadioModel{});
  QelarRouter router(g, net, deterministic_params());
  Rng rng(9);
  train_to_convergence(router, net.size(), 1e-10, 300, rng);
  const auto path = router.route(2);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path[0], 1);  // the healthy relay
}

}  // namespace
}  // namespace qlec
