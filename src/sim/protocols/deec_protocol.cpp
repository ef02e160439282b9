#include "sim/protocols/deec_protocol.hpp"

#include <algorithm>

#include "core/optimal_k.hpp"

namespace qlec {

DeecProtocol::DeecProtocol(DeecParams params, double death_line,
                           RadioModel radio, double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits), params_(params) {}

void DeecProtocol::on_round_start(Network& net, int round, Rng& rng,
                                  EnergyLedger& ledger) {
  const std::vector<int> heads =
      deec_elect(net, params_, round, rng, death_line_);
  const double k_expected =
      std::max(1.0, params_.p_opt * static_cast<double>(net.size()));
  settle_round(net, heads, cluster_radius(net.cube_side(), k_expected),
               ledger);
}

}  // namespace qlec
