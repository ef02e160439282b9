// Classic LEACH adapter (ablation baseline): randomized rotation election,
// members join the nearest head, heads uplink directly.
#pragma once

#include <string>

#include "sim/protocols/common.hpp"

namespace qlec {

class LeachProtocol final : public AssignedHeadProtocol {
 public:
  LeachProtocol(double p, double death_line, RadioModel radio,
                double hello_bits = 200.0);

  std::string name() const override { return "LEACH"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;

 private:
  double p_;
};

}  // namespace qlec
