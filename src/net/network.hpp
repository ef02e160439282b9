// The wireless sensor network: N nodes in a 3-D deployment box plus one
// base station (sink). Owns node state; protocols and the simulator mutate
// it through this interface.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"

namespace qlec {

class Network {
 public:
  Network() = default;
  /// Builds nodes at `positions` with per-node initial energies (scalar
  /// overload gives every node the same budget).
  Network(const std::vector<Vec3>& positions,
          const std::vector<double>& initial_energy, const Vec3& bs,
          const Aabb& domain);
  Network(const std::vector<Vec3>& positions, double initial_energy,
          const Vec3& bs, const Aabb& domain);

  std::size_t size() const noexcept { return nodes_.size(); }
  const Aabb& domain() const noexcept { return domain_; }
  /// Side of the cube with the domain's volume (the m_side of the k_opt
  /// and cluster-radius formulas); 0 for an empty or inverted domain.
  double cube_side() const;
  const Vec3& bs() const noexcept { return bs_; }
  /// Moves the sink (BsTrajectory advances it at round boundaries). Every
  /// BS-distance consumer, QlecRouter's y(src, BS) included, reads through
  /// bs()/dist_to_bs when it needs the distance, so a moved sink is visible
  /// immediately and nothing caches the old position.
  void set_bs(const Vec3& bs) noexcept { bs_ = bs; }

  SensorNode& node(int id) { return nodes_.at(static_cast<std::size_t>(id)); }
  const SensorNode& node(int id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }
  std::vector<SensorNode>& nodes() noexcept { return nodes_; }
  const std::vector<SensorNode>& nodes() const noexcept { return nodes_; }

  /// Distance helpers; `to == kBaseStationId` measures to the sink.
  double dist(int from, int to) const;
  double dist_to_bs(int id) const;

  /// Node ids with residual energy above `death_line`.
  std::vector<int> alive_ids(double death_line) const;
  std::size_t alive_count(double death_line) const;
  /// Ids currently flagged as cluster heads.
  std::vector<int> head_ids() const;
  /// Allocation-free variant: clears `out` and refills it with the current
  /// head ids (for per-round buffers reused across rounds).
  void head_ids_into(std::vector<int>& out) const;
  /// Clears every is_head flag (start of an election round).
  void reset_heads();

  double total_initial_energy() const;
  double total_residual_energy() const;
  /// Mean residual among nodes above `death_line` (0 when none).
  double mean_residual_alive(double death_line) const;
  /// Mean node -> BS distance, the d_toBS approximation from [1].
  double mean_dist_to_bs() const;

  /// Position snapshot (index == node id), for clustering substrates.
  std::vector<Vec3> positions() const;

 private:
  std::vector<SensorNode> nodes_;
  Vec3 bs_;
  Aabb domain_;
};

}  // namespace qlec
