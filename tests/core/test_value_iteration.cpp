#include "support/value_iteration.hpp"

#include <gtest/gtest.h>

#include "core/qlec_routing.hpp"

namespace qlec {
namespace {

// 4-state chain: 0 -> 1 -> 2 -> 3(goal). Action 0 = forward (reward 1 on
// reaching the goal), action 1 = stay (reward 0).
Mdp chain_mdp() {
  Mdp m = Mdp::make(4, 2);
  for (std::size_t s = 0; s < 3; ++s) {
    m.add_transition(s, 0, s + 1, 1.0, s + 1 == 3 ? 1.0 : 0.0);
    m.add_transition(s, 1, s, 1.0, 0.0);
  }
  m.terminal[3] = true;
  return m;
}

TEST(ValueIteration, SolvesChainExactly) {
  const ValueIterationResult r = value_iteration(chain_mdp(), 0.9);
  EXPECT_NEAR(r.v[2], 1.0, 1e-9);
  EXPECT_NEAR(r.v[1], 0.9, 1e-9);
  EXPECT_NEAR(r.v[0], 0.81, 1e-9);
  EXPECT_DOUBLE_EQ(r.v[3], 0.0);  // terminal pinned
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(r.policy[s], 0u);
  EXPECT_LT(r.residual, 1e-10);
}

TEST(ValueIteration, GammaZeroIsMyopic) {
  const ValueIterationResult r = value_iteration(chain_mdp(), 0.0);
  EXPECT_NEAR(r.v[2], 1.0, 1e-12);  // immediate reward only
  EXPECT_NEAR(r.v[1], 0.0, 1e-12);
  EXPECT_NEAR(r.v[0], 0.0, 1e-12);
}

TEST(ValueIteration, StochasticTransition) {
  // One state, one action: succeed (p=0.7, r=1, terminal) or stay
  // (p=0.3, r=-0.1). V = (0.7 - 0.03) / (1 - 0.3*gamma).
  Mdp m = Mdp::make(2, 1);
  m.add_transition(0, 0, 1, 0.7, 1.0);
  m.add_transition(0, 0, 0, 0.3, -0.1);
  m.terminal[1] = true;
  const double gamma = 0.95;
  const ValueIterationResult r = value_iteration(m, gamma);
  EXPECT_NEAR(r.v[0], (0.7 * 1.0 + 0.3 * -0.1) / (1.0 - 0.3 * gamma),
              1e-9);
}

TEST(ValueIteration, MatchesTwoOutcomeTransitionFixedPoint) {
  // The QLEC one-action MDP: forward to a head (success -> absorbing head
  // state with value v_h, failure -> self). Build it as an MDP where the
  // "head" state is terminal but carries its value through the reward.
  const double gamma = 0.95;
  const double p = 0.8, r_s = 0.4, r_f = -0.2, v_h = -1.0;
  Mdp m = Mdp::make(2, 1);
  // Fold gamma*v_h into the success reward since state 1 is terminal:
  m.add_transition(0, 0, 1, p, r_s + gamma * v_h);
  m.add_transition(0, 0, 0, 1.0 - p, r_f);
  m.terminal[1] = true;
  const ValueIterationResult exact = value_iteration(m, gamma);

  // Iterating the paper's Eq. 15 backup (TwoOutcomeTransition with
  // v_failure = the previous V) must converge to the same fixed point.
  double v = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const TwoOutcomeTransition t{p, r_s, r_f, v_h, v};
    v = t.q_value(gamma);
  }
  EXPECT_NEAR(v, exact.v[0], 1e-9);
}

TEST(ValueIteration, QFromValuesConsistentWithPolicy) {
  const Mdp m = chain_mdp();
  const ValueIterationResult r = value_iteration(m, 0.9);
  for (std::size_t s = 0; s < 3; ++s) {
    const double q_fwd = q_from_values(m, r.v, s, 0, 0.9);
    const double q_stay = q_from_values(m, r.v, s, 1, 0.9);
    EXPECT_GT(q_fwd, q_stay);
    EXPECT_NEAR(r.v[s], q_fwd, 1e-9);  // V = max_a Q
  }
}

TEST(ValueIteration, UnreachableActionIgnored) {
  Mdp m = Mdp::make(2, 2);
  m.add_transition(0, 0, 1, 1.0, 2.0);
  // action 1 has no branches in state 0 (unavailable)
  m.terminal[1] = true;
  const ValueIterationResult r = value_iteration(m, 0.9);
  EXPECT_NEAR(r.v[0], 2.0, 1e-9);
  EXPECT_EQ(r.policy[0], 0u);
}

TEST(ValueIteration, IterationCapRespected) {
  const ValueIterationResult r =
      value_iteration(chain_mdp(), 0.999, 1e-15, 3);
  EXPECT_EQ(r.iterations, 3);
}

}  // namespace
}  // namespace qlec
