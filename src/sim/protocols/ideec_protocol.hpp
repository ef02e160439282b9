// Improved-DEEC-only protocol: QLEC's Cluster Head Selection Phase (Eq. 4
// threshold + Algorithm 3 pruning + top-up) with plain nearest-head member
// routing instead of the Q-learning Data Transmission Phase. Isolates the
// contribution of Q-routing in ablations ("what does the learning add on
// top of the improved election?").
#pragma once

#include <string>

#include "core/improved_deec.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class ImprovedDeecProtocol final : public AssignedHeadProtocol {
 public:
  /// `k` is the target head count (p_opt = k / N); `total_rounds` feeds the
  /// Eq. 2 / Eq. 4 schedules.
  ImprovedDeecProtocol(std::size_t k, int total_rounds, double death_line,
                       RadioModel radio, double hello_bits = 200.0);

  std::string name() const override { return "iDEEC"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;

  const ElectionStats& last_election() const noexcept { return stats_; }

 private:
  std::size_t k_;
  int total_rounds_;
  ElectionStats stats_{};
};

}  // namespace qlec
