#include "routing/qelar.hpp"

#include <algorithm>
#include <limits>

namespace qlec {

QelarRouter::QelarRouter(const ConnectivityGraph& graph, const Network& net,
                         QelarParams params)
    : graph_(graph), net_(net), params_(params), v_(net.size(), 0.0) {
  if (params_.y_scale > 0.0) {
    y_scale_ = params_.y_scale;
  } else {
    double max_energy = 0.0;
    for (std::size_t i = 0; i < graph_.nodes(); ++i)
      for (const Edge& e : graph_.neighbours(static_cast<int>(i)))
        max_energy = std::max(max_energy, e.energy);
    y_scale_ = max_energy > 0.0 ? max_energy : 1.0;
  }
}

double QelarRouter::reward(int u, const Edge& e) const {
  const auto x = [this](int id) {
    if (id == kBaseStationId) return 1.0;
    const Battery& b = net_.node(id).battery;
    return b.initial() > 0.0 ? b.residual() / b.initial() : 0.0;
  };
  return -params_.g + params_.alpha1 * (x(u) + x(e.to)) -
         params_.alpha2 * e.energy / y_scale_;
}

double QelarRouter::v(int node) const {
  if (node == kBaseStationId) return 0.0;
  return v_.at(static_cast<std::size_t>(node));
}

double QelarRouter::q_value(int u, const Edge& e) const {
  const double p = params_.link != nullptr
                       ? params_.link->success_probability(e.distance)
                       : params_.p_success;
  return reward(u, e) + params_.gamma * (p * v(e.to) + (1.0 - p) * v(u));
}

int QelarRouter::best_hop(int u) const {
  const auto& edges = graph_.neighbours(u);
  if (edges.empty()) return -2;
  const Edge* best = &edges.front();
  double best_q = q_value(u, *best);
  for (const Edge& e : edges) {
    const double q = q_value(u, e);
    if (q > best_q) {
      best_q = q;
      best = &e;
    }
  }
  return best->to;
}

int QelarRouter::train_episode(int source, std::size_t max_hops, Rng& rng) {
  int u = source;
  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    const auto& edges = graph_.neighbours(u);
    if (edges.empty()) return -static_cast<int>(hop) - 1;
    // Value backup: V(u) <- max_e Q(u, e).
    double best_q = -std::numeric_limits<double>::infinity();
    const Edge* best = nullptr;
    for (const Edge& e : edges) {
      const double q = q_value(u, e);
      if (q > best_q) {
        best_q = q;
        best = &e;
      }
    }
    v_[static_cast<std::size_t>(u)] = best_q;
    ++updates_;
    if (updates_metric_ != nullptr) updates_metric_->inc();

    const Edge* chosen = best;
    if (params_.epsilon > 0.0 && rng.bernoulli(params_.epsilon))
      chosen = &edges[rng.uniform_int(edges.size())];
    const double p_hop =
        params_.link != nullptr
            ? params_.link->success_probability(chosen->distance)
            : params_.p_success;
    if (!rng.bernoulli(p_hop)) continue;  // failed hop: stay
    if (chosen->to == kBaseStationId) return static_cast<int>(hop) + 1;
    u = chosen->to;
  }
  return -static_cast<int>(max_hops) - 1;
}

std::vector<int> QelarRouter::route(int source, std::size_t max_hops) const {
  std::vector<int> path;
  int u = source;
  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    const int next = best_hop(u);
    if (next == -2) break;
    path.push_back(next);
    if (next == kBaseStationId) break;
    u = next;
  }
  return path;
}

double QelarRouter::route_energy(int source,
                                 const std::vector<int>& path) const {
  if (path.empty() || path.back() != kBaseStationId)
    return std::numeric_limits<double>::infinity();
  double total = 0.0;
  int u = source;
  for (const int next : path) {
    const auto& edges = graph_.neighbours(u);
    const auto it = std::find_if(edges.begin(), edges.end(),
                                 [next](const Edge& e) {
                                   return e.to == next;
                                 });
    if (it == edges.end())
      return std::numeric_limits<double>::infinity();
    total += it->energy;
    if (next == kBaseStationId) break;
    u = next;
  }
  return total;
}

}  // namespace qlec
