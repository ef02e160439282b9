// The model-based one-step Q backup the paper uses (Eq. 15): the agent
// estimates transition probabilities (from ACK statistics) and computes
// Q*(s,a) = R_t + gamma * sum_s' P(s'|s,a) V*(s') directly instead of
// sampling. QLEC's MDP has exactly two successors per action (delivery
// succeeded -> h_j, failed -> stay at b_i), captured by
// TwoOutcomeTransition. rl/value_iteration.hpp is the exact reference it is
// validated against.
#pragma once

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

}  // namespace qlec
