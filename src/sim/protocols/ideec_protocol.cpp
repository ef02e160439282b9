#include "sim/protocols/ideec_protocol.hpp"

#include <algorithm>

#include "core/optimal_k.hpp"

namespace qlec {

ImprovedDeecProtocol::ImprovedDeecProtocol(std::size_t k, int total_rounds,
                                           double death_line,
                                           RadioModel radio,
                                           double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits),
      k_(k == 0 ? 1 : k),
      total_rounds_(total_rounds) {}

void ImprovedDeecProtocol::on_round_start(Network& net, int round, Rng& rng,
                                          EnergyLedger& ledger) {
  ImprovedDeecConfig cfg;
  cfg.p_opt = static_cast<double>(k_) /
              static_cast<double>(std::max<std::size_t>(net.size(), 1));
  cfg.total_rounds = total_rounds_;
  cfg.coverage_radius =
      cluster_radius(net.cube_side(), static_cast<double>(k_));
  const std::vector<int> heads =
      improved_deec_elect(net, cfg, round, rng, death_line_, &stats_);
  settle_round(net, heads, cfg.coverage_radius, ledger);
}

}  // namespace qlec
