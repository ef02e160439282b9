#include "sim/protocols/leach_protocol.hpp"

#include <algorithm>

#include "cluster/leach.hpp"
#include "core/optimal_k.hpp"

namespace qlec {

LeachProtocol::LeachProtocol(double p, double death_line, RadioModel radio,
                             double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits), p_(p) {}

void LeachProtocol::on_round_start(Network& net, int round, Rng& rng,
                                   EnergyLedger& ledger) {
  const std::vector<int> heads =
      leach_elect(net, p_, round, rng, death_line_);
  const double k_expected =
      std::max(1.0, p_ * static_cast<double>(net.size()));
  settle_round(net, heads, cluster_radius(net.cube_side(), k_expected),
               ledger);
}

}  // namespace qlec
