#include "sim/protocols/heed_protocol.hpp"

namespace qlec {

HeedProtocol::HeedProtocol(HeedConfig cfg, double death_line,
                           RadioModel radio, double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits), cfg_(cfg) {}

void HeedProtocol::on_round_start(Network& net, int round, Rng& rng,
                                  EnergyLedger& ledger) {
  const HeedResult result = heed_elect(net, cfg_, round, rng, death_line_);
  settle_round(net, result.heads, cfg_.cluster_range, ledger);
}

}  // namespace qlec
