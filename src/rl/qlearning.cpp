#include "rl/qlearning.hpp"

namespace qlec {

double TwoOutcomeTransition::q_value(double gamma) const noexcept {
  const double p = p_success;
  const double rt = p * reward_success + (1.0 - p) * reward_failure;
  return rt + gamma * (p * v_success + (1.0 - p) * v_failure);
}

}  // namespace qlec
