// Connectivity graph over a deployed network: nodes are sensors plus the
// BS; edges connect pairs within communication range, weighted by the
// transmission energy of the first-order radio model. Substrate for the
// QELAR-style multi-hop Q-routing module and its Dijkstra ground truth.
#pragma once

#include <cstddef>
#include <vector>

#include "energy/radio_model.hpp"
#include "net/network.hpp"

namespace qlec {

struct Edge {
  int to = 0;          ///< node id or kBaseStationId
  double distance = 0; ///< meters
  double energy = 0;   ///< J to push one reference packet across
};

class ConnectivityGraph {
 public:
  /// Builds the graph over all nodes of `net` within `range` of each other
  /// (plus BS edges for nodes within `range` of the sink). Edge energy is
  /// tx_energy(bits, d).
  ConnectivityGraph(const Network& net, double range, double bits,
                    const RadioModel& radio);

  std::size_t nodes() const noexcept { return adjacency_.size(); }
  /// Outgoing edges of node `id` (sensors only; the BS is a sink).
  const std::vector<Edge>& neighbours(int id) const;
  double range() const noexcept { return range_; }

 private:
  double range_;
  std::vector<std::vector<Edge>> adjacency_;
};

/// Dijkstra over edge energies from every node to the BS. Returns, per
/// node, the minimum total energy to reach the BS and the first hop of an
/// optimal path (kBaseStationId for a direct hop; -2 when unreachable).
struct ShortestPaths {
  std::vector<double> cost;     ///< J; +inf when unreachable
  std::vector<int> first_hop;   ///< next node on an optimal path
  static constexpr int kUnreachable = -2;
};
ShortestPaths min_energy_paths(const ConnectivityGraph& graph);

}  // namespace qlec
