// LEACH-RLC adapter (arXiv 2401.15767): clustering is decided by a
// base-station-side Controller (sim/controller.hpp, DESIGN.md §15) that
// observes the global network state at every round boundary — here an
// RL-lite tabular Q-learner tuning the cluster-count budget, or the
// trivial passthrough rotation for seam tests. The protocol is a thin
// adapter: it stamps the controller's head set onto the network, assigns
// members to the nearest alive head, charges the HELLO exchange, and
// feeds the settled post-round state back for the controller's backup.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/controller.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

class LeachRlcProtocol final : public AssignedHeadProtocol {
 public:
  LeachRlcProtocol(std::unique_ptr<Controller> controller, double death_line,
                   RadioModel radio, double hello_bits = 200.0);

  std::string name() const override { return "LEACH-RLC"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;
  void on_round_end(Network& net, int round) override;
  std::size_t learning_updates() const override {
    return controller_->updates();
  }

  const Controller& controller() const { return *controller_; }

 private:
  std::unique_ptr<Controller> controller_;
  std::vector<int> heads_;
};

}  // namespace qlec
