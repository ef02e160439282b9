#include "routing/graph.hpp"

#include <limits>
#include <queue>

#include "geom/spatial_grid.hpp"

namespace qlec {

ConnectivityGraph::ConnectivityGraph(const Network& net, double range,
                                     double bits, const RadioModel& radio)
    : range_(range > 0.0 ? range : 1.0),
      adjacency_(net.size()) {
  const SpatialGrid grid(net.positions(), range_);
  for (const SensorNode& n : net.nodes()) {
    auto& edges = adjacency_[static_cast<std::size_t>(n.id)];
    for (const std::size_t j :
         grid.neighbours_of(static_cast<std::size_t>(n.id), range_)) {
      const int to = static_cast<int>(j);
      const double d = net.dist(n.id, to);
      edges.push_back(Edge{to, d, radio.tx_energy(bits, d)});
    }
    const double d_bs = net.dist_to_bs(n.id);
    if (d_bs <= range_) {
      edges.push_back(Edge{kBaseStationId, d_bs,
                           radio.tx_energy(bits, d_bs)});
    }
  }
}

const std::vector<Edge>& ConnectivityGraph::neighbours(int id) const {
  return adjacency_.at(static_cast<std::size_t>(id));
}

ShortestPaths min_energy_paths(const ConnectivityGraph& graph) {
  // Dijkstra from the BS backward; edges are symmetric in distance so the
  // reverse graph has the same weights.
  const std::size_t n = graph.nodes();
  ShortestPaths sp;
  sp.cost.assign(n, std::numeric_limits<double>::infinity());
  sp.first_hop.assign(n, ShortestPaths::kUnreachable);

  using Item = std::pair<double, int>;  // (cost-to-BS, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;

  // Seed: nodes with a direct BS edge.
  for (std::size_t i = 0; i < n; ++i) {
    for (const Edge& e : graph.neighbours(static_cast<int>(i))) {
      if (e.to != kBaseStationId) continue;
      if (e.energy < sp.cost[i]) {
        sp.cost[i] = e.energy;
        sp.first_hop[i] = kBaseStationId;
        heap.push({e.energy, static_cast<int>(i)});
      }
    }
  }

  while (!heap.empty()) {
    const auto [cost, u] = heap.top();
    heap.pop();
    if (cost > sp.cost[static_cast<std::size_t>(u)]) continue;  // stale
    for (const Edge& e : graph.neighbours(u)) {
      if (e.to == kBaseStationId) continue;
      const auto v = static_cast<std::size_t>(e.to);
      const double through = cost + e.energy;
      if (through < sp.cost[v]) {
        sp.cost[v] = through;
        sp.first_hop[v] = u;
        heap.push({through, e.to});
      }
    }
  }
  return sp;
}

}  // namespace qlec
