// "Classic k-means clustering" comparator: every round, cluster the alive
// nodes purely by position, head each cluster with the node nearest its
// centroid (energy-blind — the property the paper's Fig. 3 punishes), and
// send members to their geometric head.
#pragma once

#include <string>

#include "sim/protocols/common.hpp"

namespace qlec {

class KmeansProtocol final : public AssignedHeadProtocol {
 public:
  KmeansProtocol(std::size_t k, double death_line, RadioModel radio,
                 double hello_bits = 200.0);

  std::string name() const override { return "k-means"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;

 private:
  std::size_t k_;
};

}  // namespace qlec
