// The Data Transmission Phase of QLEC (Section 4.2 / Algorithm 4): each
// non-cluster-head node picks a relay by a model-based Q-learning backup over
// the action set {forward to head h_j} ∪ {direct to BS}, with transition
// probabilities estimated from ACK history and rewards from Eq. 16-20.
//
// The backup is the paper's Eq. 15: the agent estimates transition
// probabilities and computes Q*(s,a) = R_t + gamma * sum_s' P(s'|s,a) V*(s')
// directly instead of sampling. QLEC's MDP has exactly two successors per
// action (delivery succeeded -> h_j, failed -> stay at b_i), captured by
// TwoOutcomeTransition; the tests validate it against exact value iteration.
#pragma once

#include <cstddef>
#include <vector>

#include "core/params.hpp"
#include "energy/radio_model.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace qlec {

/// The QLEC backup: one action, two outcomes (success / stay-put).
struct TwoOutcomeTransition {
  double p_success = 1.0;     ///< P^{a_j}_{b_i h_j}
  double reward_success = 0;  ///< R^{a_j}_{b_i h_j} (Eq. 17 / 19)
  double reward_failure = 0;  ///< R^{a_j}_{b_i b_i} (Eq. 20)
  double v_success = 0;       ///< V*(h_j)
  double v_failure = 0;       ///< V*(b_i)

  /// Q = R_t + gamma (p V(h_j) + (1-p) V(b_i)) with
  /// R_t = p r_s + (1-p) r_f   (Eq. 16 substituted into Eq. 15).
  double q_value(double gamma) const noexcept;
};

class QlecRouter {
 public:
  QlecRouter(QlecParams params, RadioModel radio, std::size_t n_nodes);

  /// Installs this round's head set (Algorithm 1 line 8-9 output). V values
  /// persist across rounds — a node's V survives its head/member role
  /// changes, which is what lets learning accumulate.
  ///
  /// Contract: head positions stay fixed until the next begin_round. The
  /// round's first choose_target from a sender outside `heads` caches the
  /// action list and the head positions for every later such call (the
  /// simulator moves nodes only before election; the BS position is not
  /// cached and may move at any time).
  void begin_round(std::vector<int> heads);

  /// Algorithm 4 Send-Data(b_i): computes Q*(b_i, a_j) for every action,
  /// updates V*(b_i) to the max, and returns the argmax target (a head id or
  /// kBaseStationId). With params.epsilon > 0, explores uniformly with that
  /// probability (V is still updated from the greedy max). Residual energy,
  /// V and link estimates are read live on every call.
  int choose_target(const Network& net, int src, double bits, Rng& rng);

  /// ACK outcome of a member -> target attempt; feeds the link estimator.
  void record_outcome(int from, int to, bool success);

  /// Algorithm 1 line 15: after head h_j uplinks to the BS, refresh
  /// V*(h_j) = Q*(h_j, a_BS).
  void update_head_value(const Network& net, int head, double bits);

  /// Q*(b_i, a) for one candidate target (exposed for tests/benches).
  double q_value(const Network& net, int src, int target, double bits) const;

  /// Eq. 17 / 19 success reward and Eq. 20 failure reward.
  double reward_success(const Network& net, int src, int target,
                        double bits) const;
  double reward_failure(const Network& net, int src, int target,
                        double bits) const;

  double v(int node_or_bs) const;
  const std::vector<int>& heads() const noexcept { return heads_; }
  LinkEstimator& estimator() noexcept { return estimator_; }
  const LinkEstimator& estimator() const noexcept { return estimator_; }
  /// Total Q evaluations performed — the footprint behind Theorem 3's
  /// O(kX) bound (each Send-Data call performs k+1 of them).
  std::size_t q_evaluations() const noexcept { return q_evals_; }
  /// Largest |V delta| seen in the most recent begin_round()..now window;
  /// used by convergence instrumentation.
  double max_v_delta_this_round() const noexcept { return max_v_delta_; }

  const QlecParams& params() const noexcept { return params_; }
  const RadioModel& radio() const noexcept { return radio_; }

 private:
  /// Normalized residual energy x(node); x(BS) = params.x_bs.
  double x_of(const Network& net, int node_or_bs) const;
  /// Normalized transmission cost y(src, target).
  double y_of(const Network& net, int src, int target, double bits) const;
  /// y_of's normalizer: one value for every head target, one for the BS.
  double y_scale(int target, double bits) const;
  double& v_slot(int node_or_bs);
  /// Fills actions_ (heads_ in list order minus `src`, then the BS) and
  /// the head actions' positions. Throws std::out_of_range for a head id
  /// outside `net` or v_, as x_of() and v() would.
  void build_lanes(const Network& net, int src);

  QlecParams params_;
  RadioModel radio_;
  std::vector<double> v_;  // per node id
  double v_bs_ = 0.0;      // V*(h_BS); the sink is absorbing, stays 0
  LinkEstimator estimator_;
  std::vector<int> heads_;
  std::size_t q_evals_ = 0;
  double max_v_delta_ = 0.0;

  // ---- Hot-path scratch (no behavioural effect) ----
  // The action list and head-position lanes. A call from a sender outside
  // heads_ builds them once per round (round_lanes_) and later such calls
  // reuse them; a head sender leaves itself out, so it rebuilds them.
  std::vector<int> actions_;
  std::vector<double> hx_, hy_, hz_;
  bool round_lanes_ = false;
  // The per-call lanes of the SIMD Q-scan; members so the per-packet path
  // allocates nothing once warm.
  std::vector<double> qs_p_, qs_y_, qs_x_, qs_v_, qs_q_;
};

}  // namespace qlec
