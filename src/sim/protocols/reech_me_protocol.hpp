// REECH-ME adapter (arXiv 1307.7052): the deployment volume is split into
// static regions (quadrants / octants via geom/sectors) and each region's
// head is simply its maximum-residual-energy operational node — no
// randomized rotation at all, so head placement tracks the energy
// topology round by round. Members join their own region's head (global
// nearest alive head when the region is bare); heads uplink directly.
#pragma once

#include <string>

#include "geom/sectors.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class ReechMeProtocol final : public AssignedHeadProtocol {
 public:
  ReechMeProtocol(SectorMode mode, double death_line, RadioModel radio,
                  double hello_bits = 200.0);

  std::string name() const override { return "REECH-ME"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;

 private:
  SectorMode mode_;
};

}  // namespace qlec
