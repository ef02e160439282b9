// The complete QLEC protocol (Algorithm 1): improved-DEEC head election per
// round + Q-learning relay choice for the data transmission phase. This is
// the object applications plug into the simulator.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/improved_deec.hpp"
#include "core/optimal_k.hpp"
#include "core/params.hpp"
#include "core/qlec_routing.hpp"
#include "sim/protocol.hpp"

namespace qlec {

class QlecProtocol final : public ClusteringProtocol {
 public:
  /// `net` fixes N/M/d_toBS, from which k_opt (Theorem 1) and d_c (Eq. 5)
  /// are derived once up front (or taken from params.force_k).
  QlecProtocol(const Network& net, QlecParams params, RadioModel radio,
               double death_line);

  std::string name() const override { return "QLEC"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override;
  /// Algorithm 4 Send-Data through the router. The router keeps only V,
  /// the link estimator and O(k) scratch: each call prices its k + 1
  /// actions from the current geometry.
  int route(const Network& net, int src, double bits, Rng& rng) override;
  void on_tx_result(const Network& net, int src, int target,
                    bool success) override;
  void on_uplink_result(const Network& net, int head, bool success) override;
  std::size_t learning_updates() const override {
    return router_.q_evaluations();
  }

  std::size_t k_opt() const noexcept { return k_opt_; }
  double coverage_radius() const noexcept { return d_c_; }
  const QlecRouter& router() const noexcept { return router_; }
  QlecRouter& router() noexcept { return router_; }
  const ElectionStats& last_election() const noexcept { return last_stats_; }
  const std::vector<int>& current_heads() const noexcept { return heads_; }
  const QlecParams& params() const noexcept { return params_; }

 private:
  /// The HELLO control-plane charge: one receiver-centric walk in node-id
  /// order (see qlec.cpp).
  void charge_hello(Network& net, EnergyLedger& ledger);

  QlecParams params_;
  RadioModel radio_;
  double death_line_;
  std::size_t k_opt_ = 1;
  double d_c_ = 0.0;
  QlecRouter router_;
  std::vector<int> heads_;
  ElectionStats last_stats_{};
  double uplink_bits_hint_ = 4000.0;  // refreshed from route() calls
  int cur_round_ = -1;                // for telemetry emitted off-round
};

}  // namespace qlec
