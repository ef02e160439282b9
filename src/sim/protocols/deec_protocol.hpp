// Plain DEEC adapter (ablation baseline): energy-proportional election
// WITHOUT the QLEC improvements (no Eq. 4 threshold, no Algorithm 3
// pruning), members join the nearest head, heads uplink directly.
#pragma once

#include <string>

#include "cluster/deec.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class DeecProtocol final : public AssignedHeadProtocol {
 public:
  DeecProtocol(DeecParams params, double death_line, RadioModel radio,
               double hello_bits = 200.0);

  std::string name() const override { return "DEEC"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;

 private:
  DeecParams params_;
};

}  // namespace qlec
