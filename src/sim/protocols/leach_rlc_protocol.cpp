#include "sim/protocols/leach_rlc_protocol.hpp"

#include <algorithm>
#include <utility>

#include "core/optimal_k.hpp"

namespace qlec {

LeachRlcProtocol::LeachRlcProtocol(std::unique_ptr<Controller> controller,
                                   double death_line, RadioModel radio,
                                   double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits),
      controller_(std::move(controller)) {}

void LeachRlcProtocol::on_round_start(Network& net, int round, Rng& rng,
                                      EnergyLedger& ledger) {
  net.reset_heads();
  controller_->select_heads(net, round, death_line_, rng, heads_);
  for (const int h : heads_) {
    SensorNode& n = net.node(h);
    n.is_head = true;
    n.last_head_round = round;
  }
  const double k_expected =
      std::max<double>(1.0, static_cast<double>(heads_.size()));
  settle_round(net, heads_, cluster_radius(net.cube_side(), k_expected),
               ledger);
}

void LeachRlcProtocol::on_round_end(Network& net, int round) {
  controller_->on_round_end(net, round);
}

}  // namespace qlec
