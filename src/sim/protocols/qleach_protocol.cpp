#include "sim/protocols/qleach_protocol.hpp"

#include <algorithm>
#include <utility>

#include "cluster/leach.hpp"
#include "core/optimal_k.hpp"

namespace qlec {

QLeachProtocol::QLeachProtocol(double p, SectorMode mode, double death_line,
                               RadioModel radio, double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits),
      p_(p),
      mode_(mode) {}

void QLeachProtocol::on_round_start(Network& net, int round, Rng& rng,
                                    EnergyLedger& ledger) {
  net.reset_heads();
  const SectorGrid grid = SectorGrid::for_mode(net.domain(), mode_);
  const std::size_t sectors = grid.count();

  // One LEACH rotation across all sectors, drawn in a single id-order pass
  // so RNG consumption is node-for-node identical to global LEACH and
  // independent of the sector layout.
  std::vector<int> heads;
  std::vector<std::uint64_t> sector(net.size(), 0);
  std::vector<int> fallback(sectors, kBaseStationId);
  std::vector<double> fallback_energy(sectors, -1.0);
  std::vector<char> has_head(sectors, 0);
  for (SensorNode& n : net.nodes()) {
    const std::uint64_t s = grid.sector_of(n.pos);
    sector[static_cast<std::size_t>(n.id)] = s;
    if (!n.operational(death_line_)) continue;
    if (n.battery.residual() > fallback_energy[s]) {
      fallback_energy[s] = n.battery.residual();
      fallback[s] = n.id;
    }
    if (!leach_eligible(n.last_head_round, round, p_)) continue;
    if (rng.uniform01() < leach_threshold(p_, round)) {
      n.is_head = true;
      n.last_head_round = round;
      has_head[s] = 1;
      heads.push_back(n.id);
    }
  }
  // The sectoring's whole point is guaranteed local coverage: promote the
  // max-energy alive node of any populated sector the rotation left bare.
  for (std::size_t s = 0; s < sectors; ++s) {
    if (has_head[s] || fallback[s] == kBaseStationId) continue;
    SensorNode& n = net.node(fallback[s]);
    n.is_head = true;
    n.last_head_round = round;
    heads.push_back(n.id);
  }
  std::sort(heads.begin(), heads.end());

  // Per-sector head lists (ascending id, the distance tie-break order).
  std::vector<std::vector<int>> sector_heads(sectors);
  for (const int h : heads)
    sector_heads[static_cast<std::size_t>(
                     sector[static_cast<std::size_t>(h)])]
        .push_back(h);

  // Members join the nearest alive head of their own sector; a sector with
  // no head (possible only when it holds no operational node) falls back to
  // the global nearest. RNG-free and id-ordered.
  std::vector<int> assignment(net.size(), kBaseStationId);
  for (const SensorNode& n : net.nodes()) {
    const std::vector<int>& local =
        sector_heads[static_cast<std::size_t>(
            sector[static_cast<std::size_t>(n.id)])];
    assignment[static_cast<std::size_t>(n.id)] = detail::nearest_alive_head(
        net, local.empty() ? heads : local, n.id, death_line_);
  }

  const double k_expected =
      std::max(static_cast<double>(sectors),
               p_ * static_cast<double>(net.size()));
  settle_round(net, heads, std::move(assignment),
               cluster_radius(net.cube_side(), k_expected), ledger);
}

}  // namespace qlec
