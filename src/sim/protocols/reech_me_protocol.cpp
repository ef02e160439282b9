#include "sim/protocols/reech_me_protocol.hpp"

#include <algorithm>
#include <utility>

#include "core/optimal_k.hpp"

namespace qlec {

ReechMeProtocol::ReechMeProtocol(SectorMode mode, double death_line,
                                 RadioModel radio, double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits), mode_(mode) {}

void ReechMeProtocol::on_round_start(Network& net, int round, Rng& rng,
                                     EnergyLedger& ledger) {
  (void)rng;  // fully deterministic election: zero main-stream draws
  net.reset_heads();
  const SectorGrid grid = SectorGrid::for_mode(net.domain(), mode_);
  const std::size_t sectors = grid.count();

  // Region head = argmax residual energy among the region's operational
  // nodes; the id-order scan breaks exact-energy ties to the lower id.
  std::vector<std::uint64_t> sector(net.size(), 0);
  std::vector<int> region_head(sectors, kBaseStationId);
  std::vector<double> region_energy(sectors, -1.0);
  for (const SensorNode& n : net.nodes()) {
    const std::uint64_t s = grid.sector_of(n.pos);
    sector[static_cast<std::size_t>(n.id)] = s;
    if (!n.operational(death_line_)) continue;
    if (n.battery.residual() > region_energy[s]) {
      region_energy[s] = n.battery.residual();
      region_head[s] = n.id;
    }
  }
  std::vector<int> heads;
  for (std::size_t s = 0; s < sectors; ++s) {
    if (region_head[s] == kBaseStationId) continue;
    SensorNode& n = net.node(region_head[s]);
    n.is_head = true;
    n.last_head_round = round;
    heads.push_back(n.id);
  }
  std::sort(heads.begin(), heads.end());

  // Region-aware membership: every node reports to its own region's head;
  // nodes in a bare region (no operational node at all) fall back to the
  // global nearest alive head. RNG-free and id-ordered.
  std::vector<int> assignment(net.size(), kBaseStationId);
  for (const SensorNode& n : net.nodes()) {
    const int rh =
        region_head[static_cast<std::size_t>(
            sector[static_cast<std::size_t>(n.id)])];
    assignment[static_cast<std::size_t>(n.id)] =
        rh != kBaseStationId
            ? rh
            : detail::nearest_alive_head(net, heads, n.id, death_line_);
  }

  settle_round(net, heads, std::move(assignment),
               cluster_radius(net.cube_side(),
                              std::max<double>(
                                  1.0, static_cast<double>(sectors))),
               ledger);
}

}  // namespace qlec
