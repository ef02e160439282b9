#include "sim/protocols/heed_protocol.hpp"

#include "sim/protocols/common.hpp"

namespace qlec {

HeedProtocol::HeedProtocol(HeedConfig cfg, double death_line,
                           RadioModel radio, double hello_bits)
    : cfg_(cfg),
      death_line_(death_line),
      radio_(radio),
      hello_bits_(hello_bits) {}

void HeedProtocol::on_round_start(Network& net, int round, Rng& rng,
                                  EnergyLedger& ledger) {
  const HeedResult result = heed_elect(net, cfg_, round, rng, death_line_);
  assignment_ = detail::assign_nearest_head(net, result.heads, death_line_);
  detail::charge_hello(net, result.heads, assignment_, radio_, hello_bits_,
                       cfg_.cluster_range, death_line_, ledger);
}

int HeedProtocol::route(const Network& net, int src, double bits, Rng& rng) {
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
