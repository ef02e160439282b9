#include "sim/protocols/deec_protocol.hpp"

#include <cmath>

#include "core/optimal_k.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

DeecProtocol::DeecProtocol(DeecParams params, double death_line,
                           RadioModel radio, double hello_bits)
    : params_(params), death_line_(death_line), radio_(radio),
      hello_bits_(hello_bits) {}

void DeecProtocol::on_round_start(Network& net, int round, Rng& rng,
                                  EnergyLedger& ledger) {
  const std::vector<int> heads =
      deec_elect(net, params_, round, rng, death_line_);
  assignment_ = detail::assign_nearest_head(net, heads, death_line_);
  const double m_side = std::cbrt(std::max(net.domain().volume(), 0.0));
  const double k_expected =
      std::max(1.0, params_.p_opt * static_cast<double>(net.size()));
  detail::charge_hello(net, heads, assignment_, radio_, hello_bits_,
                       cluster_radius(m_side, k_expected), death_line_,
                       ledger);
}

int DeecProtocol::route(const Network& net, int src, double bits, Rng& rng) {
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
