// The centralized-controller seam (sim/controller.hpp, DESIGN.md §15),
// tested independently of the simulator: the passthrough controller must
// replay classic LEACH's election draw-for-draw, and the RL-lite
// controller must respect its head budget, keep its draws data-independent,
// and perform exactly one Q backup per completed round.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/leach.hpp"
#include "sim/controller.hpp"
#include "sim/protocols/leach_rlc_protocol.hpp"
#include "sim/protocols/registry.hpp"
#include "sim/scenario.hpp"

namespace qlec {
namespace {

Network test_network(Rng& rng, std::size_t n = 60) {
  ScenarioConfig cfg;
  cfg.n = n;
  return make_uniform_network(cfg, rng);
}

TEST(ControllerSeam, PassthroughReplaysDistributedLeachElection) {
  Rng build(1);
  Network net_a = test_network(build);
  Rng build2(1);
  Network net_b = test_network(build2);
  PassthroughController ctrl(0.1);
  for (int round = 0; round < 5; ++round) {
    // Same seed per round: the centralized replay must consume the stream
    // exactly like the distributed election and pick the same heads.
    Rng rng_a(100 + static_cast<std::uint64_t>(round));
    Rng rng_b(100 + static_cast<std::uint64_t>(round));
    const std::vector<int> distributed =
        leach_elect(net_a, 0.1, round, rng_a, 0.0);
    std::vector<int> central;
    net_b.reset_heads();
    ctrl.select_heads(net_b, round, 0.0, rng_b, central);
    EXPECT_EQ(central, distributed) << "round " << round;
    // Stamp rotation state so the next round's eligibility matches.
    for (const int h : central) {
      net_b.node(h).is_head = true;
      net_b.node(h).last_head_round = round;
    }
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
  }
}

TEST(ControllerSeam, PassthroughGuaranteesAHeadWhileAnyNodeLives) {
  Rng build(2);
  Network net = test_network(build, 10);
  for (int i = 1; i < 10; ++i) net.node(i).battery.consume(5.0);
  PassthroughController ctrl(0.0);  // p = 0: no draw can win
  std::vector<int> heads;
  Rng rng(7);
  ctrl.select_heads(net, 0, 0.0, rng, heads);
  EXPECT_EQ(heads, std::vector<int>{0});
}

TEST(ControllerSeam, RlLiteRespectsBudgetAndPicksTopResidual) {
  Rng build(3);
  Network net = test_network(build, 40);
  // Make node residuals strictly decreasing in id: top-k = lowest ids.
  for (int i = 0; i < 40; ++i)
    net.node(i).battery.consume(1e-3 * static_cast<double>(i));
  ControllerOptions opt;
  opt.epsilon = 0.0;  // greedy: with an all-zero Q table, action 0 (x0.5)
  RlLiteController ctrl(8, opt);
  std::vector<int> heads;
  Rng rng(9);
  ctrl.select_heads(net, 0, 0.0, rng, heads);
  EXPECT_EQ(heads, (std::vector<int>{0, 1, 2, 3}));  // 8 * 0.5 = 4 heads
  EXPECT_TRUE(std::is_sorted(heads.begin(), heads.end()));
}

TEST(ControllerSeam, RlLiteSkipsFaultedAndDeadNodes) {
  Rng build(4);
  Network net = test_network(build, 12);
  net.node(0).up = false;              // faulted: max residual but not up
  net.node(1).battery.consume(5.0);    // dead
  ControllerOptions opt;
  opt.epsilon = 0.0;
  RlLiteController ctrl(24, opt);      // budget far above the alive count
  std::vector<int> heads;
  Rng rng(10);
  ctrl.select_heads(net, 0, 0.0, rng, heads);
  EXPECT_EQ(std::count(heads.begin(), heads.end(), 0), 0);
  EXPECT_EQ(std::count(heads.begin(), heads.end(), 1), 0);
  EXPECT_EQ(heads.size(), 10u);
}

TEST(ControllerSeam, RlLiteBacksUpOncePerRound) {
  Rng build(5);
  Network net = test_network(build, 30);
  ControllerOptions opt;
  opt.epsilon = 0.0;
  RlLiteController ctrl(5, opt);
  EXPECT_EQ(ctrl.updates(), 0u);
  std::vector<int> heads;
  Rng rng(11);
  ctrl.select_heads(net, 0, 0.0, rng, heads);
  EXPECT_EQ(ctrl.updates(), 0u);  // backup waits for the round to settle
  net.node(heads[0]).battery.consume(0.5);  // some round energy burn
  ctrl.on_round_end(net, 0);
  EXPECT_EQ(ctrl.updates(), 1u);
  // Energy dropped, so the greedy action's value went negative.
  EXPECT_LT(ctrl.q_value(RlLiteController::kStates - 1, 0), 0.0);
  // A second on_round_end without a new selection is a no-op.
  ctrl.on_round_end(net, 0);
  EXPECT_EQ(ctrl.updates(), 1u);
}

TEST(ControllerSeam, MakeControllerDispatchesOnKind) {
  ControllerOptions opt;
  opt.kind = ControllerKind::kPassthrough;
  EXPECT_EQ(make_controller(opt, 5, 0.1)->name(), "passthrough");
  opt.kind = ControllerKind::kRlLite;
  EXPECT_EQ(make_controller(opt, 5, 0.1)->name(), "rl-lite");
}

TEST(ControllerSeam, LeachRlcAdapterStampsHeadsAndSurfacesUpdates) {
  Rng build(6);
  Network net = test_network(build, 50);
  ControllerOptions opt;
  opt.epsilon = 0.0;
  LeachRlcProtocol proto(std::make_unique<RlLiteController>(5, opt), 0.0,
                         RadioModel{});
  EnergyLedger ledger;
  Rng rng(12);
  proto.on_round_start(net, 0, rng, ledger);
  const std::vector<int> heads = net.head_ids();
  EXPECT_FALSE(heads.empty());
  for (const int h : heads) {
    EXPECT_TRUE(net.node(h).is_head);
    EXPECT_EQ(net.node(h).last_head_round, 0);
  }
  EXPECT_GT(ledger.by_use(EnergyUse::kControl), 0.0);
  // Members route to an alive head.
  for (int src = 0; src < 10; ++src) {
    if (net.node(src).is_head) continue;
    const int target = proto.route(net, src, 4000.0, rng);
    ASSERT_NE(target, kBaseStationId);
    EXPECT_TRUE(net.node(target).is_head);
  }
  EXPECT_EQ(proto.learning_updates(), 0u);
  proto.on_round_end(net, 0);
  EXPECT_EQ(proto.learning_updates(), 1u);
}

TEST(ControllerSeam, RegistryBuildsLeachRlcWithConfiguredController) {
  Rng build(7);
  Network net = test_network(build, 40);
  ProtocolOptions opt;
  auto rl = make_protocol("leach-rlc", net, opt);
  EXPECT_EQ(rl->name(), "LEACH-RLC");
  opt.controller.kind = ControllerKind::kPassthrough;
  auto pass = make_protocol("leach-rlc", net, opt);
  const auto& adapter = dynamic_cast<const LeachRlcProtocol&>(*pass);
  EXPECT_EQ(adapter.controller().name(), "passthrough");
}

}  // namespace
}  // namespace qlec
