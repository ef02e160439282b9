// TL-LEACH adapter (Related Work [10]): members send to the nearest
// secondary head; secondaries relay their fused aggregate through the
// nearest primary head; primaries uplink to the BS.
#pragma once

#include <string>

#include "cluster/tl_leach.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class TlLeachProtocol final : public AssignedHeadProtocol {
 public:
  TlLeachProtocol(double p_primary, double p_secondary, double death_line,
                  RadioModel radio, double hello_bits = 200.0);

  std::string name() const override { return "TL-LEACH"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;
  int uplink_target(const Network& net, int head, Rng& rng) override;

  const TlLeachLevels& levels() const noexcept { return levels_; }

 private:
  double p_primary_;
  double p_secondary_;
  TlLeachLevels levels_;
};

}  // namespace qlec
