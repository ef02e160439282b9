// QELAR-style multi-hop Q-routing (Hu & Fei, TMC 2010 — the paper's [6],
// and the direct ancestor of QLEC's reward design). Every node learns a
// value V and routes packets hop by hop to the neighbor maximizing the
// model-based Q, with rewards combining a constant transmission punishment,
// residual energies of sender and candidate, and the link's energy cost —
// exactly the structure QLEC reuses for cluster choice (Eq. 17-20).
//
// This module is a standalone routing substrate on the ConnectivityGraph
// (no clustering); tests validate it against Dijkstra's minimum-energy
// paths and the bench measures learning-curve stretch.
#pragma once

#include <cstddef>
#include <vector>

#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "routing/graph.hpp"
#include "util/rng.hpp"

namespace qlec {

struct QelarParams {
  double gamma = 0.95;
  double g = 0.1;      ///< constant per-transmission punishment
  double alpha1 = 0.05;
  double alpha2 = 1.05;
  /// Link success probability per hop when no channel model is supplied.
  double p_success = 1.0;
  /// Optional channel model: per-edge success probability from distance
  /// (model-based planning with a known channel). Not owned; must outlive
  /// the router. nullptr falls back to the constant p_success.
  const struct LinkModel* link = nullptr;
  double epsilon = 0.1;  ///< exploration during training
  /// Normalization scale for edge energies (<= 0: max edge energy in the
  /// graph), mirroring QLEC's y normalization.
  double y_scale = -1.0;
};

class QelarRouter {
 public:
  QelarRouter(const ConnectivityGraph& graph, const Network& net,
              QelarParams params);

  /// Q(u, via edge e) under current values.
  double q_value(int u, const Edge& e) const;
  /// Greedy next hop from u (kBaseStationId allowed); -2 when u has no
  /// neighbours.
  int best_hop(int u) const;

  /// One training episode: route a virtual packet from `source` greedily
  /// (epsilon-exploring), updating V at every visited node; stops at the
  /// BS or after `max_hops`. Returns hops taken (negative if it failed to
  /// reach the BS).
  int train_episode(int source, std::size_t max_hops, Rng& rng);

  /// Greedy route from `source` to the BS under the learned values.
  /// Empty when no progress is possible. The path excludes `source` and
  /// ends with kBaseStationId on success.
  std::vector<int> route(int source, std::size_t max_hops = 256) const;

  /// Total edge energy of a route produced by `route()` (returns +inf for
  /// paths that do not end at the BS).
  double route_energy(int source, const std::vector<int>& path) const;

  double v(int node) const;
  std::size_t updates() const noexcept { return updates_; }

  /// Optional telemetry binding (nullptr detaches): bumps the counter once
  /// per V update. Purely observational; the counter must outlive the
  /// router (obs::MetricsRegistry references do).
  void bind_update_counter(obs::Counter* counter) noexcept {
    updates_metric_ = counter;
  }

 private:
  double reward(int u, const Edge& e) const;

  const ConnectivityGraph& graph_;
  const Network& net_;
  QelarParams params_;
  double y_scale_ = 1.0;
  std::vector<double> v_;
  std::size_t updates_ = 0;
  obs::Counter* updates_metric_ = nullptr;
};

}  // namespace qlec
