#include "sim/protocols/tl_leach_protocol.hpp"

#include <algorithm>

#include "core/optimal_k.hpp"

namespace qlec {

TlLeachProtocol::TlLeachProtocol(double p_primary, double p_secondary,
                                 double death_line, RadioModel radio,
                                 double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits),
      p_primary_(p_primary),
      p_secondary_(p_secondary) {}

void TlLeachProtocol::on_round_start(Network& net, int round, Rng& rng,
                                     EnergyLedger& ledger) {
  levels_ = tl_leach_elect(net, p_primary_, p_secondary_, round, rng,
                           death_line_);
  // Members attach to the nearest head of either level (secondary heads do
  // the bulk of collection; a primary can also serve local members).
  const double k_expected = std::max(
      1.0, (p_primary_ + p_secondary_) * static_cast<double>(net.size()));
  settle_round(net, net.head_ids(),
               cluster_radius(net.cube_side(), k_expected), ledger);
}

int TlLeachProtocol::uplink_target(const Network& net, int head, Rng& rng) {
  (void)rng;
  // Primaries go straight up; secondaries relay via their primary.
  if (std::find(levels_.primaries.begin(), levels_.primaries.end(), head) !=
      levels_.primaries.end())
    return kBaseStationId;
  return tl_leach_primary_for(net, levels_, head, death_line_);
}

}  // namespace qlec
