#include "sim/protocols/leach_rlc_protocol.hpp"

#include <cmath>

#include "core/optimal_k.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

LeachRlcProtocol::LeachRlcProtocol(std::unique_ptr<Controller> controller,
                                   double death_line, RadioModel radio,
                                   double hello_bits)
    : controller_(std::move(controller)), death_line_(death_line),
      radio_(radio), hello_bits_(hello_bits) {}

void LeachRlcProtocol::on_round_start(Network& net, int round, Rng& rng,
                                      EnergyLedger& ledger) {
  net.reset_heads();
  controller_->select_heads(net, round, death_line_, rng, heads_);
  for (const int h : heads_) {
    SensorNode& n = net.node(h);
    n.is_head = true;
    n.last_head_round = round;
  }
  assignment_ = detail::assign_nearest_head(net, heads_, death_line_);
  const double m_side = std::cbrt(std::max(net.domain().volume(), 0.0));
  const double k_expected =
      std::max<double>(1.0, static_cast<double>(heads_.size()));
  detail::charge_hello(net, heads_, assignment_, radio_, hello_bits_,
                       cluster_radius(m_side, k_expected), death_line_,
                       ledger);
}

int LeachRlcProtocol::route(const Network& net, int src, double bits,
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

void LeachRlcProtocol::on_round_end(Network& net, int round) {
  controller_->on_round_end(net, round);
}

}  // namespace qlec
