// The FCM-based comparator (Wang, Qin & Liu, WCNC 2018, the paper's [14]):
// fuzzy C-means clustering with energy-aware head selection, plus the
// hierarchical multi-hop uplink (heads relay ring-by-ring toward the BS).
#pragma once

#include <string>

#include "cluster/fcm_routing.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class FcmProtocol final : public AssignedHeadProtocol {
 public:
  FcmProtocol(std::size_t k, int hierarchy_levels, double death_line,
              RadioModel radio, double hello_bits = 200.0);

  std::string name() const override { return "FCM"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;
  int uplink_target(const Network& net, int head, Rng& rng) override;

  const FcmHierarchy& hierarchy() const noexcept { return hierarchy_; }

 private:
  std::size_t k_;
  int levels_;
  FcmHierarchy hierarchy_;
};

}  // namespace qlec
