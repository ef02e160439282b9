#include "sim/protocols/kmeans_protocol.hpp"

#include "cluster/kmeans.hpp"
#include "core/optimal_k.hpp"

namespace qlec {

KmeansProtocol::KmeansProtocol(std::size_t k, double death_line,
                               RadioModel radio, double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits),
      k_(k == 0 ? 1 : k) {}

void KmeansProtocol::on_round_start(Network& net, int round, Rng& rng,
                                    EnergyLedger& ledger) {
  net.reset_heads();
  const std::vector<int> alive = net.alive_ids(death_line_);
  std::vector<int> heads;
  if (!alive.empty()) {
    std::vector<Vec3> pts;
    pts.reserve(alive.size());
    for (const int id : alive) pts.push_back(net.node(id).pos);

    const Clustering clustering = kmeans(pts, k_, rng);
    const std::vector<std::size_t> head_idx =
        nearest_points_to_centroids(pts, clustering.centroids);

    heads.reserve(head_idx.size());
    for (const std::size_t i : head_idx) {
      const int id = alive[i];
      net.node(id).is_head = true;
      net.node(id).last_head_round = round;
      heads.push_back(id);
    }
  }
  settle_round(net, heads,
               cluster_radius(net.cube_side(), static_cast<double>(k_)),
               ledger);
}

}  // namespace qlec
