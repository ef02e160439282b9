#include "sim/protocols/tl_leach_protocol.hpp"

#include <algorithm>
#include <cmath>

#include "core/optimal_k.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

TlLeachProtocol::TlLeachProtocol(double p_primary, double p_secondary,
                                 double death_line, RadioModel radio,
                                 double hello_bits)
    : p_primary_(p_primary),
      p_secondary_(p_secondary),
      death_line_(death_line),
      radio_(radio),
      hello_bits_(hello_bits) {}

void TlLeachProtocol::on_round_start(Network& net, int round, Rng& rng,
                                     EnergyLedger& ledger) {
  levels_ = tl_leach_elect(net, p_primary_, p_secondary_, round, rng,
                           death_line_);
  // Members attach to the nearest head of either level (secondary heads do
  // the bulk of collection; a primary can also serve local members).
  assignment_ =
      detail::assign_nearest_head(net, net.head_ids(), death_line_);
  const double m_side = std::cbrt(std::max(net.domain().volume(), 0.0));
  const double k_expected = std::max(
      1.0, (p_primary_ + p_secondary_) * static_cast<double>(net.size()));
  detail::charge_hello(net, net.head_ids(), assignment_, radio_,
                       hello_bits_, cluster_radius(m_side, k_expected),
                       death_line_, ledger);
}

int TlLeachProtocol::route(const Network& net, int src, double bits,
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

int TlLeachProtocol::uplink_target(const Network& net, int head, Rng& rng) {
  (void)rng;
  // Primaries go straight up; secondaries relay via their primary.
  if (std::find(levels_.primaries.begin(), levels_.primaries.end(), head) !=
      levels_.primaries.end())
    return kBaseStationId;
  return tl_leach_primary_for(net, levels_, head, death_line_);
}

}  // namespace qlec
