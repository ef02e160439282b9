// Q-LEACH adapter (arXiv 1303.5240): the deployment volume is statically
// partitioned into sectors (quadrants in the paper's planar network,
// octants as the natural lift to this repo's 3-D deployments) and a
// LEACH-style randomized rotation runs inside each sector, so every region
// of the volume keeps a local head instead of the global rotation's
// feast-or-famine head placement. Members join the nearest alive head of
// their own sector (falling back to the global nearest when their sector
// has none); heads uplink directly.
#pragma once

#include <string>

#include "geom/sectors.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class QLeachProtocol final : public AssignedHeadProtocol {
 public:
  QLeachProtocol(double p, SectorMode mode, double death_line,
                 RadioModel radio, double hello_bits = 200.0);

  std::string name() const override { return "Q-LEACH"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;

 private:
  double p_;
  SectorMode mode_;
};

}  // namespace qlec
