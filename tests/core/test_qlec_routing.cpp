#include "core/qlec_routing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace qlec {
namespace {

// Geometry: node 0 (member) between two heads; head 1 near, head 2 far.
Network routing_net() {
  const std::vector<Vec3> pts{
      {100, 100, 50},   // 0: member
      {110, 100, 50},   // 1: near head (d = 10)
      {180, 100, 50},   // 2: far head (d = 80)
      {100, 180, 50},   // 3: spare
  };
  return Network(pts, 5.0, /*bs=*/{100, 100, 200}, Aabb::cube(200.0));
}

QlecParams base_params() {
  QlecParams p;
  p.epsilon = 0.0;  // deterministic argmax for tests
  return p;
}

TEST(QlecRouter, InitialValuesAreZero) {
  const QlecRouter router(base_params(), RadioModel{}, 4);
  EXPECT_DOUBLE_EQ(router.v(0), 0.0);
  EXPECT_DOUBLE_EQ(router.v(kBaseStationId), 0.0);
}

TEST(QlecRouter, RewardSuccessStructure) {
  const Network net = routing_net();
  QlecParams p = base_params();
  const QlecRouter router(p, RadioModel{}, net.size());
  const double r_near = router.reward_success(net, 0, 1, 4000.0);
  const double r_far = router.reward_success(net, 0, 2, 4000.0);
  // Nearer head costs less energy => strictly better reward (same x terms).
  EXPECT_GT(r_near, r_far);
  // With full batteries, x terms are 1 each: -g + a1*2 - a2*y.
  const RadioModel radio;
  const double y_near = radio.amp_energy(4000.0, 10.0) /
                        radio.amp_energy(4000.0, radio.d0());
  EXPECT_NEAR(r_near, -p.g + p.alpha1 * 2.0 - p.alpha2 * y_near, 1e-12);
}

TEST(QlecRouter, DirectToBsCarriesPenalty) {
  const Network net = routing_net();
  QlecParams p = base_params();
  const QlecRouter router(p, RadioModel{}, net.size());
  const double r_bs = router.reward_success(net, 0, kBaseStationId, 4000.0);
  const double r_head = router.reward_success(net, 0, 1, 4000.0);
  EXPECT_LT(r_bs, r_head - p.l * 0.5);  // dominated by the -l penalty
}

TEST(QlecRouter, RewardFailureUsesBetaWeights) {
  const Network net = routing_net();
  QlecParams p = base_params();
  const QlecRouter router(p, RadioModel{}, net.size());
  const RadioModel radio;
  const double y = radio.amp_energy(4000.0, 10.0) /
                   radio.amp_energy(4000.0, radio.d0());
  EXPECT_NEAR(router.reward_failure(net, 0, 1, 4000.0),
              -p.g + p.beta1 * 1.0 - p.beta2 * y, 1e-12);
}

TEST(QlecRouter, ChoosesNearHeadInitially) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({1, 2});
  Rng rng(1);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 1);
}

TEST(QlecRouter, NeverChoosesBsWhenHeadsExist) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({1, 2});
  Rng rng(2);
  for (int i = 0; i < 20; ++i)
    EXPECT_NE(router.choose_target(net, 0, 4000.0, rng), kBaseStationId);
}

TEST(QlecRouter, BsIsOnlyOptionWithoutHeads) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({});
  Rng rng(3);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), kBaseStationId);
}

TEST(QlecRouter, SelfExcludedFromActions) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({0, 2});  // src itself is a listed head
  Rng rng(4);
  const int target = router.choose_target(net, 0, 4000.0, rng);
  EXPECT_NE(target, 0);
}

TEST(QlecRouter, VUpdatedToMaxQ) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({1, 2});
  Rng rng(5);
  router.choose_target(net, 0, 4000.0, rng);
  const double q1 = router.q_value(net, 0, 1, 4000.0);
  // After the update, V(0) equals max_a Q which recursively references
  // V(0) itself; verify it equals the best action's *current* Q.
  EXPECT_NEAR(router.v(0), q1, std::fabs(q1) * 0.5 + 1e-6);
  EXPECT_NE(router.v(0), 0.0);
}

TEST(QlecRouter, FailedAcksLowerLinkEstimateAndFlipChoice) {
  // Heads at 10 m and 40 m: close enough in transmission cost that link
  // quality decides, far enough that the choice starts at the near head.
  const std::vector<Vec3> pts{
      {100, 100, 50}, {110, 100, 50}, {140, 100, 50}};
  Network net(pts, 5.0, {100, 100, 200}, Aabb::cube(200.0));
  QlecParams p = base_params();
  QlecRouter router(p, RadioModel{}, net.size());
  router.begin_round({1, 2});
  Rng rng(6);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 1);
  // Hammer the near link with failures and reinforce the far link. The
  // flip also needs V(b_0) to relax through a few Send-Data sweeps (the
  // self-transition compounds the expected retry cost).
  for (int i = 0; i < 64; ++i) router.record_outcome(0, 1, false);
  for (int i = 0; i < 8; ++i) router.record_outcome(0, 2, true);
  int chosen = -1;
  for (int sweep = 0; sweep < 20; ++sweep)
    chosen = router.choose_target(net, 0, 4000.0, rng);
  EXPECT_EQ(chosen, 2);
}

TEST(QlecRouter, QValueUsesEstimatedLinkProbability) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({1});
  const double q_before = router.q_value(net, 0, 1, 4000.0);
  for (int i = 0; i < 32; ++i) router.record_outcome(0, 1, false);
  const double q_after = router.q_value(net, 0, 1, 4000.0);
  EXPECT_LT(q_after, q_before);
}

TEST(QlecRouter, HeadValueUpdateReflectsUplinkCost) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({1, 2});
  // Head 1 is ~100 m from the BS; head 2 is ~sqrt(80^2+150^2) ~ 170 m.
  router.update_head_value(net, 1, 2000.0);
  router.update_head_value(net, 2, 2000.0);
  EXPECT_GT(router.v(1), router.v(2));
}

TEST(QlecRouter, HeadValuesInfluenceMemberChoice) {
  // Make the near head's V strongly negative; a sufficiently close far
  // head race shows the gamma*V(h) term at work.
  const std::vector<Vec3> pts{
      {100, 100, 50}, {110, 100, 50}, {112, 100, 50}};
  Network net(pts, 5.0, {100, 100, 200}, Aabb::cube(200.0));
  QlecParams p = base_params();
  QlecRouter router(p, RadioModel{}, net.size());
  router.begin_round({1, 2});
  Rng rng(7);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 1);
  // Drive V(1) down via repeated failed uplinks.
  for (int i = 0; i < 64; ++i) {
    router.record_outcome(1, kBaseStationId, false);
    router.update_head_value(net, 1, 4000.0);
  }
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 2);
}

TEST(QlecRouter, QEvaluationsCountKPlusOnePerSendData) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({1, 2});
  Rng rng(8);
  const std::size_t before = router.q_evaluations();
  router.choose_target(net, 0, 4000.0, rng);
  // Algorithm 4 evaluates each head + the BS: k + 1 = 3.
  EXPECT_EQ(router.q_evaluations() - before, 3u);
}

TEST(QlecRouter, EpsilonExploresNonGreedyActions) {
  const Network net = routing_net();
  QlecParams p = base_params();
  p.epsilon = 1.0;  // always explore
  QlecRouter router(p, RadioModel{}, net.size());
  router.begin_round({1, 2});
  Rng rng(9);
  bool saw_other = false;
  for (int i = 0; i < 64 && !saw_other; ++i)
    saw_other = router.choose_target(net, 0, 4000.0, rng) != 1;
  EXPECT_TRUE(saw_other);
}

TEST(QlecRouter, RawJoulesModeMatchesPaperFormulas) {
  // With x_scale = y_scale = 1 the rewards use raw joules (paper-literal).
  const Network net = routing_net();
  QlecParams p = base_params();
  p.x_scale = 1.0;
  p.y_scale = 1.0;
  const QlecRouter router(p, RadioModel{}, net.size());
  const RadioModel radio;
  const double expect = -p.g + p.alpha1 * (5.0 + 5.0) -
                        p.alpha2 * radio.amp_energy(4000.0, 10.0);
  EXPECT_NEAR(router.reward_success(net, 0, 1, 4000.0), expect, 1e-12);
}

TEST(QlecRouter, MaxVDeltaResetsEachRound) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round({1});
  Rng rng(10);
  router.choose_target(net, 0, 4000.0, rng);
  EXPECT_GT(router.max_v_delta_this_round(), 0.0);
  router.begin_round({1});
  EXPECT_DOUBLE_EQ(router.max_v_delta_this_round(), 0.0);
}

// ---- choose_target against the per-action q_value() oracle ----

/// What Algorithm 4's Send-Data must produce for (src, bits): the argmax
/// (first strict maximum, BS last) of q_value() over the action set, the
/// V(src) it writes, and the number of Q evaluations it costs.
struct SendDataOracle {
  int target = kBaseStationId;
  double v_src = -std::numeric_limits<double>::infinity();
  std::size_t q_evals = 0;
};

SendDataOracle send_data_oracle(const QlecRouter& router, const Network& net,
                                int src, double bits) {
  SendDataOracle o;
  const auto consider = [&](int a) {
    const double q = router.q_value(net, src, a, bits);
    ++o.q_evals;
    if (q > o.v_src) {
      o.v_src = q;
      o.target = a;
    }
  };
  for (const int h : router.heads())
    if (h != src) consider(h);
  consider(kBaseStationId);
  return o;
}

/// One choose_target call checked bit-for-bit against the oracle; returns
/// the target it chose.
int expect_matches_oracle(QlecRouter& router, const Network& net, int src,
                          double bits, Rng& rng) {
  const SendDataOracle want = send_data_oracle(router, net, src, bits);
  const std::size_t evals_before = router.q_evaluations();
  const int got = router.choose_target(net, src, bits, rng);
  EXPECT_EQ(got, want.target) << "src " << src << ", bits " << bits;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(router.v(src)),
            std::bit_cast<std::uint64_t>(want.v_src))
      << "src " << src << ": V " << router.v(src) << " vs " << want.v_src;
  EXPECT_EQ(router.q_evaluations() - evals_before, want.q_evals)
      << "src " << src;
  return got;
}

// Head counts straddle choose_target's SIMD threshold (8 head actions).
// Heads 0 and 1 share a position, a battery and a link history, and never
// send, so their Q values tie exactly for every source. Heads from 2 on
// are also routed from (src in the head list), the packet size changes
// between calls, and the BS moves between rounds.
TEST(QlecRouterOracle, ChooseTargetMatchesPerActionQValueArgmax) {
  constexpr double kBits[] = {4000.0, 2000.0, 4000.0, 6500.0};
  for (const int k : {1, 7, 8, 9, 20, 33}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    Rng rng(100 + static_cast<std::uint64_t>(k));
    const int n = 64;
    std::vector<Vec3> pts;
    std::vector<double> energy;
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0, 200), rng.uniform(0, 200),
                     rng.uniform(0, 200)});
      energy.push_back(rng.uniform(1.0, 5.0));
    }
    pts[1] = pts[0];
    energy[1] = energy[0];
    Network net(pts, energy, {100, 100, 200}, Aabb::cube(200.0));
    std::vector<int> heads;
    for (int h = 0; h < k; ++h) heads.push_back(h);

    QlecRouter router(base_params(), RadioModel{}, net.size());
    // Uneven link history so p differs per (src, target) pair, except on
    // links into and out of heads 0 and 1, which stay at the shared prior.
    for (int i = 0; i < 400; ++i) {
      const auto other = [&] {
        return 2 + static_cast<int>(rng.uniform_int(std::uint64_t{n - 2}));
      };
      const int from = other();
      const int to = other();
      router.record_outcome(from, to, rng.bernoulli(0.6));
    }
    for (int round = 0; round < 3; ++round) {
      if (round > 0)
        net.set_bs({rng.uniform(0, 200), rng.uniform(0, 200), 200.0});
      router.begin_round(heads);
      for (const int h : heads) router.update_head_value(net, h, 4000.0);
      for (int call = 0; call < 2 * n; ++call) {
        const int src = 2 + call % (n - 2);
        expect_matches_oracle(router, net, src, kBits[call % 4], rng);
      }
    }
  }
}

// Many calls inside one round, with the state a round changes between
// calls: link outcomes on the chosen links, residual energy drained from
// random heads, and head senders, whose V is a head action's v for every
// other sender. choose_target caches only what begin_round fixes, so every
// call must still match the oracle on the live state.
TEST(QlecRouterOracle, WithinRoundCallsSeeLiveLinkEnergyAndValueState) {
  constexpr double kBits[] = {4000.0, 2000.0, 4000.0, 6500.0};
  for (const int k : {8, 20, 33}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    Rng rng(300 + static_cast<std::uint64_t>(k));
    const int n = 80;
    std::vector<Vec3> pts;
    std::vector<double> energy;
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0, 200), rng.uniform(0, 200),
                     rng.uniform(0, 200)});
      energy.push_back(rng.uniform(1.0, 5.0));
    }
    Network net(pts, energy, {100, 100, 200}, Aabb::cube(200.0));
    std::vector<int> heads;
    for (int h = 0; h < k; ++h) heads.push_back(h);
    const auto any_head = [&] {
      return heads[rng.uniform_int(static_cast<std::uint64_t>(k))];
    };

    QlecRouter router(base_params(), RadioModel{}, net.size());
    router.begin_round(heads);
    for (const int h : heads) router.update_head_value(net, h, 4000.0);
    for (int call = 0; call < 240; ++call) {
      const int src =
          call % 4 == 3
              ? any_head()
              : k + static_cast<int>(rng.uniform_int(
                        static_cast<std::uint64_t>(n - k)));
      const int target =
          expect_matches_oracle(router, net, src, kBits[call % 4], rng);
      router.record_outcome(src, target, rng.bernoulli(0.4));
      net.node(any_head()).battery.consume(rng.uniform(0.0, 0.05));
    }
  }
}

// Every head at one point with one battery and no link history: all head
// actions tie exactly, and the first head in list order other than src
// must win — in both the scalar loop and the SIMD lane.
TEST(QlecRouterOracle, ColocatedHeadsTieToFirstInListOrder) {
  for (const int k : {1, 7, 8, 9, 20, 33}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    std::vector<Vec3> pts(static_cast<std::size_t>(k), Vec3{100, 100, 60});
    pts.push_back({104, 100, 60});  // the member source
    Network net(pts, 5.0, {100, 100, 200}, Aabb::cube(200.0));
    const int member = k;
    std::vector<int> heads;
    for (int h = 0; h < k; ++h) heads.push_back(h);
    QlecRouter router(base_params(), RadioModel{}, net.size());
    router.begin_round(heads);
    Rng rng(7);
    expect_matches_oracle(router, net, member, 4000.0, rng);
    EXPECT_EQ(router.choose_target(net, member, 4000.0, rng), 0);
    if (k > 1) {  // a head source skips itself and ties to the next head
      expect_matches_oracle(router, net, 0, 4000.0, rng);
      EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 1);
    }
  }
}

}  // namespace
}  // namespace qlec
