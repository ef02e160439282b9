#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qlec {

Network::Network(const std::vector<Vec3>& positions,
                 const std::vector<double>& initial_energy, const Vec3& bs,
                 const Aabb& domain)
    : bs_(bs), domain_(domain) {
  if (positions.size() != initial_energy.size())
    throw std::invalid_argument(
        "Network: positions/energies size mismatch");
  nodes_.reserve(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    nodes_.emplace_back(static_cast<int>(i), positions[i], initial_energy[i]);
}

Network::Network(const std::vector<Vec3>& positions, double initial_energy,
                 const Vec3& bs, const Aabb& domain)
    : Network(positions,
              std::vector<double>(positions.size(), initial_energy), bs,
              domain) {}

double Network::cube_side() const {
  return std::cbrt(std::max(domain_.volume(), 0.0));
}

double Network::dist(int from, int to) const {
  const Vec3& a = node(from).pos;
  const Vec3& b = to == kBaseStationId ? bs_ : node(to).pos;
  return distance(a, b);
}

double Network::dist_to_bs(int id) const { return dist(id, kBaseStationId); }

std::vector<int> Network::alive_ids(double death_line) const {
  std::vector<int> out;
  out.reserve(nodes_.size());
  for (const SensorNode& n : nodes_)
    if (n.operational(death_line)) out.push_back(n.id);
  return out;
}

std::size_t Network::alive_count(double death_line) const {
  std::size_t c = 0;
  for (const SensorNode& n : nodes_)
    if (n.operational(death_line)) ++c;
  return c;
}

std::vector<int> Network::head_ids() const {
  std::vector<int> out;
  head_ids_into(out);
  return out;
}

void Network::head_ids_into(std::vector<int>& out) const {
  out.clear();
  for (const SensorNode& n : nodes_)
    if (n.is_head) out.push_back(n.id);
}

void Network::reset_heads() {
  for (SensorNode& n : nodes_) n.is_head = false;
}

double Network::total_initial_energy() const {
  double t = 0.0;
  for (const SensorNode& n : nodes_) t += n.battery.initial();
  return t;
}

double Network::total_residual_energy() const {
  double t = 0.0;
  for (const SensorNode& n : nodes_) t += n.battery.residual();
  return t;
}

double Network::mean_residual_alive(double death_line) const {
  double t = 0.0;
  std::size_t c = 0;
  for (const SensorNode& n : nodes_) {
    if (!n.operational(death_line)) continue;
    t += n.battery.residual();
    ++c;
  }
  return c ? t / static_cast<double>(c) : 0.0;
}

double Network::mean_dist_to_bs() const {
  if (nodes_.empty()) return 0.0;
  double t = 0.0;
  for (const SensorNode& n : nodes_) t += distance(n.pos, bs_);
  return t / static_cast<double>(nodes_.size());
}

std::vector<Vec3> Network::positions() const {
  std::vector<Vec3> out;
  out.reserve(nodes_.size());
  for (const SensorNode& n : nodes_) out.push_back(n.pos);
  return out;
}

}  // namespace qlec
