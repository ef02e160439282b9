#include "routing/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geom/sampling.hpp"
#include "util/rng.hpp"

namespace qlec {
namespace {

// Line of nodes 30 m apart; BS at the origin.
Network line_network(int n, double spacing = 30.0) {
  std::vector<Vec3> pts;
  for (int i = 1; i <= n; ++i)
    pts.push_back({spacing * static_cast<double>(i), 0, 0});
  return Network(pts, 5.0, {0, 0, 0}, Aabb::cube(spacing * (n + 1)));
}

TEST(ConnectivityGraph, EdgesRespectRange) {
  const Network net = line_network(5);
  const ConnectivityGraph g(net, 35.0, 4000.0, RadioModel{});
  // Each interior node sees exactly its two 30 m neighbours.
  EXPECT_EQ(g.neighbours(2).size(), 2u);
  // Node 0 (x=30): neighbour node 1 plus the BS at 30 m.
  EXPECT_EQ(g.neighbours(0).size(), 2u);
  const auto has_bs_edge = [&g](int id) {
    return std::any_of(g.neighbours(id).begin(), g.neighbours(id).end(),
                       [](const Edge& e) { return e.to == kBaseStationId; });
  };
  EXPECT_TRUE(has_bs_edge(0));
  EXPECT_FALSE(has_bs_edge(3));
}

TEST(ConnectivityGraph, EdgeEnergyMatchesRadioModel) {
  const Network net = line_network(2);
  const RadioModel radio;
  const ConnectivityGraph g(net, 100.0, 4000.0, radio);
  for (const Edge& e : g.neighbours(0)) {
    EXPECT_NEAR(e.energy, radio.tx_energy(4000.0, e.distance), 1e-15);
  }
}

TEST(ConnectivityGraph, SymmetricNeighbours) {
  Rng rng(1);
  const Aabb box = Aabb::cube(100.0);
  const Network net(sample_uniform(60, box, rng), 5.0, box.center(), box);
  const ConnectivityGraph g(net, 40.0, 4000.0, RadioModel{});
  for (int u = 0; u < 60; ++u) {
    for (const Edge& e : g.neighbours(u)) {
      if (e.to == kBaseStationId) continue;
      bool back = false;
      for (const Edge& r : g.neighbours(e.to)) back |= r.to == u;
      EXPECT_TRUE(back) << u << "->" << e.to;
    }
  }
}

TEST(MinEnergyPaths, LineGraphChainsToBs) {
  const Network net = line_network(5);
  const ConnectivityGraph g(net, 35.0, 4000.0, RadioModel{});
  const ShortestPaths sp = min_energy_paths(g);
  // Node 0 hops straight to the BS; the rest chain down the line.
  EXPECT_EQ(sp.first_hop[0], kBaseStationId);
  EXPECT_EQ(sp.first_hop[1], 0);
  EXPECT_EQ(sp.first_hop[4], 3);
  // Costs strictly increase along the line.
  for (int i = 1; i < 5; ++i)
    EXPECT_GT(sp.cost[static_cast<std::size_t>(i)],
              sp.cost[static_cast<std::size_t>(i - 1)]);
  // Exact cost for node 2: three 30 m hops.
  const RadioModel radio;
  EXPECT_NEAR(sp.cost[2], 3.0 * radio.tx_energy(4000.0, 30.0), 1e-12);
}

TEST(MinEnergyPaths, UnreachableNodesFlagged) {
  // Two nodes far apart; only one is in range of the BS.
  const std::vector<Vec3> pts{{30, 0, 0}, {500, 0, 0}};
  const Network net(pts, 5.0, {0, 0, 0}, Aabb::cube(600.0));
  const ConnectivityGraph g(net, 50.0, 4000.0, RadioModel{});
  const ShortestPaths sp = min_energy_paths(g);
  EXPECT_EQ(sp.first_hop[0], kBaseStationId);
  EXPECT_EQ(sp.first_hop[1], ShortestPaths::kUnreachable);
  EXPECT_TRUE(std::isinf(sp.cost[1]));
}

TEST(MinEnergyPaths, MultiHopBeatsLongDirectHop) {
  // Node at 160 m with a relay at 80 m: two free-space-ish hops cost less
  // than one direct hop in the d^4 regime, and Dijkstra must find that.
  const std::vector<Vec3> pts{{80, 0, 0}, {160, 0, 0}};
  const Network net(pts, 5.0, {0, 0, 0}, Aabb::cube(300.0));
  const RadioModel radio;
  const ConnectivityGraph g(net, 200.0, 4000.0, radio);
  const ShortestPaths sp = min_energy_paths(g);
  EXPECT_EQ(sp.first_hop[1], 0);  // via the relay
  EXPECT_LT(sp.cost[1], radio.tx_energy(4000.0, 160.0));
}

TEST(MinEnergyPaths, MatchesBruteForceOnSmallRandomGraphs) {
  Rng rng(7);
  const Aabb box = Aabb::cube(120.0);
  const Network net(sample_uniform(12, box, rng), 5.0, {0, 0, 0}, box);
  const ConnectivityGraph g(net, 80.0, 4000.0, RadioModel{});
  const ShortestPaths sp = min_energy_paths(g);
  // Brute force: Bellman-Ford style relaxation.
  std::vector<double> cost(12, 1e18);
  for (int i = 0; i < 12; ++i)
    for (const Edge& e : g.neighbours(i))
      if (e.to == kBaseStationId)
        cost[static_cast<std::size_t>(i)] =
            std::min(cost[static_cast<std::size_t>(i)], e.energy);
  for (int pass = 0; pass < 12; ++pass) {
    for (int u = 0; u < 12; ++u) {
      for (const Edge& e : g.neighbours(u)) {
        if (e.to == kBaseStationId) continue;
        cost[static_cast<std::size_t>(u)] =
            std::min(cost[static_cast<std::size_t>(u)],
                     cost[static_cast<std::size_t>(e.to)] + e.energy);
      }
    }
  }
  for (int i = 0; i < 12; ++i) {
    if (cost[static_cast<std::size_t>(i)] > 1e17) {
      EXPECT_TRUE(std::isinf(sp.cost[static_cast<std::size_t>(i)]));
    } else {
      EXPECT_NEAR(sp.cost[static_cast<std::size_t>(i)],
                  cost[static_cast<std::size_t>(i)], 1e-12);
    }
  }
}

}  // namespace
}  // namespace qlec
