#include "sim/protocols/kmeans_protocol.hpp"

#include <cmath>

#include "cluster/kmeans.hpp"
#include "core/optimal_k.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

KmeansProtocol::KmeansProtocol(std::size_t k, double death_line,
                               RadioModel radio, double hello_bits)
    : k_(k == 0 ? 1 : k),
      death_line_(death_line),
      radio_(radio),
      hello_bits_(hello_bits) {}

void KmeansProtocol::on_round_start(Network& net, int round, Rng& rng,
                                    EnergyLedger& ledger) {
  (void)round;
  net.reset_heads();
  const std::vector<int> alive = net.alive_ids(death_line_);
  if (alive.empty()) {
    assignment_.assign(net.size(), kBaseStationId);
    return;
  }
  std::vector<Vec3> pts;
  pts.reserve(alive.size());
  for (const int id : alive) pts.push_back(net.node(id).pos);

  const Clustering clustering = kmeans(pts, k_, rng);
  const std::vector<std::size_t> head_idx =
      nearest_points_to_centroids(pts, clustering.centroids);

  std::vector<int> heads;
  heads.reserve(head_idx.size());
  for (const std::size_t i : head_idx) {
    const int id = alive[i];
    net.node(id).is_head = true;
    net.node(id).last_head_round = round;
    heads.push_back(id);
  }
  assignment_ = detail::assign_nearest_head(net, heads, death_line_);

  const double m_side = std::cbrt(std::max(net.domain().volume(), 0.0));
  detail::charge_hello(net, heads, assignment_, radio_, hello_bits_,
                       cluster_radius(m_side, static_cast<double>(k_)),
                       death_line_, ledger);
}

int KmeansProtocol::route(const Network& net, int src, double bits,
                          Rng& rng) {
  (void)bits;
  (void)rng;
  const int a = assignment_.at(static_cast<std::size_t>(src));
  if (a != kBaseStationId && net.node(a).operational(death_line_))
    return a;
  // Assigned head died mid-round: fall back to the nearest live head.
  const std::vector<int> heads = net.head_ids();
  const std::vector<int> fresh =
      detail::assign_nearest_head(net, heads, death_line_);
  return fresh.at(static_cast<std::size_t>(src));
}

}  // namespace qlec
