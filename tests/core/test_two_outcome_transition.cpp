#include "core/qlec_routing.hpp"

#include <gtest/gtest.h>

namespace qlec {
namespace {

TEST(TwoOutcomeTransition, MatchesPaperEq15Substitution) {
  const TwoOutcomeTransition t{
      .p_success = 0.8,
      .reward_success = 1.0,
      .reward_failure = -0.5,
      .v_success = 2.0,
      .v_failure = -1.0,
  };
  const double gamma = 0.95;
  const double rt = 0.8 * 1.0 + 0.2 * -0.5;
  const double expect = rt + gamma * (0.8 * 2.0 + 0.2 * -1.0);
  EXPECT_DOUBLE_EQ(t.q_value(gamma), expect);
}

TEST(TwoOutcomeTransition, CertainSuccessIgnoresFailureBranch) {
  const TwoOutcomeTransition t{
      .p_success = 1.0,
      .reward_success = 3.0,
      .reward_failure = -100.0,
      .v_success = 1.0,
      .v_failure = -100.0,
  };
  EXPECT_DOUBLE_EQ(t.q_value(0.5), 3.0 + 0.5);
}

}  // namespace
}  // namespace qlec
