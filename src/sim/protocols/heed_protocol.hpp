// HEED adapter (Related Work [17]): coverage-driven, energy-hybrid head
// election; members join the nearest head; heads uplink directly.
#pragma once

#include <string>

#include "cluster/heed.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class HeedProtocol final : public AssignedHeadProtocol {
 public:
  HeedProtocol(HeedConfig cfg, double death_line, RadioModel radio,
               double hello_bits = 200.0);

  std::string name() const override { return "HEED"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;

 private:
  HeedConfig cfg_;
};

}  // namespace qlec
