#include "sim/protocols/ideec_protocol.hpp"

#include <cmath>

#include "core/optimal_k.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

ImprovedDeecProtocol::ImprovedDeecProtocol(std::size_t k, int total_rounds,
                                           double death_line,
                                           RadioModel radio,
                                           double hello_bits)
    : k_(k == 0 ? 1 : k),
      total_rounds_(total_rounds),
      death_line_(death_line),
      radio_(radio),
      hello_bits_(hello_bits) {}

void ImprovedDeecProtocol::on_round_start(Network& net, int round, Rng& rng,
                                          EnergyLedger& ledger) {
  const double m_side = std::cbrt(std::max(net.domain().volume(), 0.0));
  ImprovedDeecConfig cfg;
  cfg.p_opt = static_cast<double>(k_) /
              static_cast<double>(std::max<std::size_t>(net.size(), 1));
  cfg.total_rounds = total_rounds_;
  cfg.coverage_radius = cluster_radius(m_side, static_cast<double>(k_));
  const std::vector<int> heads =
      improved_deec_elect(net, cfg, round, rng, death_line_, &stats_);
  assignment_ = detail::assign_nearest_head(net, heads, death_line_);
  detail::charge_hello(net, heads, assignment_, radio_, hello_bits_,
                       cfg.coverage_radius, death_line_, ledger);
}

int ImprovedDeecProtocol::route(const Network& net, int src, double bits,
                                Rng& rng) {
  (void)bits;
  (void)rng;
  const int a = assignment_.at(static_cast<std::size_t>(src));
  if (a != kBaseStationId && net.node(a).operational(death_line_))
    return a;
  const std::vector<int> fresh =
      detail::assign_nearest_head(net, net.head_ids(), death_line_);
  return fresh.at(static_cast<std::size_t>(src));
}

}  // namespace qlec
