#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/experiment.hpp"
#include "sim/protocols/deec_protocol.hpp"
#include "sim/protocols/direct_protocol.hpp"
#include "sim/protocols/fcm_protocol.hpp"
#include "sim/protocols/kmeans_protocol.hpp"
#include "sim/protocols/leach_protocol.hpp"
#include "sim/protocols/qleach_protocol.hpp"
#include "sim/protocols/reech_me_protocol.hpp"
#include "sim/protocols/common.hpp"
#include "sim/protocols/registry.hpp"
#include "sim/scenario.hpp"

namespace qlec {
namespace {

Network test_network(Rng& rng, std::size_t n = 60) {
  ScenarioConfig cfg;
  cfg.n = n;
  return make_uniform_network(cfg, rng);
}

TEST(KmeansProtocol, ElectsExactlyKHeads) {
  Rng rng(1);
  Network net = test_network(rng);
  KmeansProtocol proto(5, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  EXPECT_EQ(net.head_ids().size(), 5u);
}

TEST(KmeansProtocol, MembersRouteToNearestHead) {
  Rng rng(2);
  Network net = test_network(rng);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const auto heads = net.head_ids();
  for (int src = 0; src < 10; ++src) {
    if (net.node(src).is_head) continue;
    const int target = proto.route(net, src, 4000.0, rng);
    ASSERT_NE(target, kBaseStationId);
    const double d = net.dist(src, target);
    for (const int h : heads) EXPECT_LE(d, net.dist(src, h) + 1e-9);
  }
}

TEST(KmeansProtocol, IgnoresEnergyInHeadChoice) {
  Rng rng(3);
  Network net = test_network(rng);
  // Drain a specific node heavily; k-means may still pick it as head if it
  // is geometrically central. Just assert election still works and charges
  // HELLO energy.
  net.node(0).battery.consume(4.9);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  EXPECT_EQ(net.head_ids().size(), 4u);
  EXPECT_GT(ledger.by_use(EnergyUse::kControl), 0.0);
}

TEST(KmeansProtocol, SkipsDeadNodes) {
  Rng rng(4);
  Network net = test_network(rng);
  for (int i = 0; i < 30; ++i) net.node(i).battery.consume(5.0);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  for (const int h : net.head_ids()) EXPECT_GE(h, 30);
}

TEST(KmeansProtocol, AllDeadNoHeadsAndBsRouting) {
  Rng rng(5);
  Network net = test_network(rng, 10);
  for (auto& n : net.nodes()) n.battery.consume(5.0);
  KmeansProtocol proto(3, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  EXPECT_TRUE(net.head_ids().empty());
  EXPECT_EQ(proto.route(net, 0, 4000.0, rng), kBaseStationId);
}

TEST(FcmProtocol, ElectsKHeadsWithEnergyBias) {
  Rng rng(6);
  Network net = test_network(rng, 80);
  // Drain odd nodes; FCM head choice weighs residual energy, so heads
  // should be predominantly even ids.
  for (int i = 1; i < 80; i += 2) net.node(i).battery.consume(4.5);
  FcmProtocol proto(6, 3, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const auto heads = net.head_ids();
  EXPECT_EQ(heads.size(), 6u);
  int even = 0;
  for (const int h : heads) even += (h % 2 == 0) ? 1 : 0;
  EXPECT_GE(even, 5);
}

TEST(FcmProtocol, UplinkChainsDescendTowardBs) {
  Rng rng(7);
  Network net = test_network(rng, 80);
  FcmProtocol proto(6, 3, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  for (const int h : net.head_ids()) {
    int current = h;
    int hops = 0;
    while (current != kBaseStationId && hops < 20) {
      const int next = proto.uplink_target(net, current, rng);
      if (next != kBaseStationId) {
        EXPECT_LT(net.dist_to_bs(next), net.dist_to_bs(current) + 1e-9);
      }
      current = next;
      ++hops;
    }
    EXPECT_EQ(current, kBaseStationId);
  }
}

TEST(FcmProtocol, SomeHeadRelaysMultiHop) {
  Rng rng(8);
  Network net = test_network(rng, 100);
  FcmProtocol proto(8, 4, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  bool saw_relay = false;
  for (const int h : net.head_ids())
    saw_relay |= proto.uplink_target(net, h, rng) != kBaseStationId;
  EXPECT_TRUE(saw_relay);
}

TEST(FcmProtocol, RouteReturnsLiveHead) {
  Rng rng(9);
  Network net = test_network(rng, 60);
  FcmProtocol proto(5, 3, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const auto heads = net.head_ids();
  for (int src = 0; src < 20; ++src) {
    if (net.node(src).is_head) continue;
    const int t = proto.route(net, src, 4000.0, rng);
    EXPECT_TRUE(std::find(heads.begin(), heads.end(), t) != heads.end());
  }
}

TEST(LeachProtocol, ElectionVariesAcrossRounds) {
  Rng rng(10);
  Network net = test_network(rng);
  LeachProtocol proto(0.1, 0.0, RadioModel{});
  EnergyLedger ledger;
  std::set<int> all_heads;
  for (int r = 0; r < 20; ++r) {
    proto.on_round_start(net, r, rng, ledger);
    for (const int h : net.head_ids()) all_heads.insert(h);
  }
  EXPECT_GT(all_heads.size(), 10u);  // rotation spreads the role
}

TEST(DeecProtocol, PrefersRicherHeads) {
  Rng rng(11);
  Network net = test_network(rng, 100);
  for (int i = 0; i < 50; ++i) net.node(i).battery.consume(4.0);
  DeecParams params;
  params.p_opt = 0.08;
  params.total_rounds = 1000;
  DeecProtocol proto(params, 0.0, RadioModel{});
  EnergyLedger ledger;
  int rich = 0, poor = 0;
  for (int r = 0; r < 40; ++r) {
    proto.on_round_start(net, r, rng, ledger);
    for (const int h : net.head_ids()) (h < 50 ? poor : rich) += 1;
  }
  EXPECT_GT(rich, poor);
}

TEST(QLeachProtocol, EveryPopulatedSectorGetsAHead) {
  Rng rng(31);
  Network net = test_network(rng, 120);
  QLeachProtocol proto(0.05, SectorMode::kOctant, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const SectorGrid grid = SectorGrid::octants(net.domain());
  std::vector<int> heads_per_sector(grid.count(), 0);
  std::vector<int> nodes_per_sector(grid.count(), 0);
  for (const SensorNode& n : net.nodes()) {
    const auto s = static_cast<std::size_t>(grid.sector_of(n.pos));
    ++nodes_per_sector[s];
    if (n.is_head) ++heads_per_sector[s];
  }
  for (std::size_t s = 0; s < grid.count(); ++s) {
    if (nodes_per_sector[s] > 0) {
      EXPECT_GE(heads_per_sector[s], 1) << "sector " << s;
    }
  }
  EXPECT_GT(ledger.by_use(EnergyUse::kControl), 0.0);
}

TEST(QLeachProtocol, MembersJoinAHeadOfTheirOwnSector) {
  Rng rng(32);
  Network net = test_network(rng, 120);
  QLeachProtocol proto(0.05, SectorMode::kQuadrant, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const SectorGrid grid = SectorGrid::quadrants(net.domain());
  for (int src = 0; src < static_cast<int>(net.size()); ++src) {
    if (net.node(src).is_head) continue;
    const int target = proto.route(net, src, 4000.0, rng);
    ASSERT_NE(target, kBaseStationId);
    EXPECT_TRUE(net.node(target).is_head);
    // Quadrant coverage is guaranteed for populated sectors, so every
    // member's head lives in its own sector.
    EXPECT_EQ(grid.sector_of(net.node(target).pos),
              grid.sector_of(net.node(src).pos));
  }
}

TEST(QLeachProtocol, RotationEventuallyMovesHeads) {
  Rng rng(33);
  Network net = test_network(rng, 80);
  QLeachProtocol proto(0.1, SectorMode::kOctant, 0.0, RadioModel{});
  EnergyLedger ledger;
  std::set<int> ever_heads;
  for (int round = 0; round < 12; ++round) {
    proto.on_round_start(net, round, rng, ledger);
    for (const int h : net.head_ids()) ever_heads.insert(h);
  }
  // The per-sector rotation must spread the role well past one round's set.
  EXPECT_GT(ever_heads.size(), net.head_ids().size() * 2);
}

TEST(ReechMeProtocol, RegionHeadIsTheRegionsRichestNode) {
  Rng rng(34);
  Network net = test_network(rng, 100);
  // Perturb energies so every region has a unique argmax. hello_bits = 0:
  // the post-election HELLO charge must not disturb the ranking under test.
  for (int i = 0; i < 100; ++i)
    net.node(i).battery.consume(1e-4 * static_cast<double>(i % 37));
  ReechMeProtocol proto(SectorMode::kOctant, 0.0, RadioModel{}, 0.0);
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const SectorGrid grid = SectorGrid::octants(net.domain());
  for (const SensorNode& n : net.nodes()) {
    if (!n.is_head) continue;
    const auto s = grid.sector_of(n.pos);
    for (const SensorNode& m : net.nodes()) {
      if (grid.sector_of(m.pos) != s) continue;
      EXPECT_LE(m.battery.residual(), n.battery.residual() + 1e-12)
          << "node " << m.id << " outranks head " << n.id;
    }
  }
}

TEST(ReechMeProtocol, MembersReportToTheirRegionHead) {
  Rng rng(35);
  Network net = test_network(rng, 100);
  ReechMeProtocol proto(SectorMode::kOctant, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const SectorGrid grid = SectorGrid::octants(net.domain());
  for (int src = 0; src < static_cast<int>(net.size()); ++src) {
    if (net.node(src).is_head) continue;
    const int target = proto.route(net, src, 4000.0, rng);
    ASSERT_NE(target, kBaseStationId);
    EXPECT_EQ(grid.sector_of(net.node(target).pos),
              grid.sector_of(net.node(src).pos));
  }
}

TEST(ReechMeProtocol, HeadsTrackEnergyTopologyAcrossRounds) {
  Rng rng(36);
  Network net = test_network(rng, 60);
  ReechMeProtocol proto(SectorMode::kOctant, 0.0, RadioModel{});
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  const std::vector<int> first = net.head_ids();
  // Drain round-0 heads hard: the next election must move off them.
  for (const int h : first) net.node(h).battery.consume(0.4);
  proto.on_round_start(net, 1, rng, ledger);
  for (const int h : net.head_ids())
    EXPECT_EQ(std::count(first.begin(), first.end(), h), 0);
}

TEST(Registry, AllNamesConstruct) {
  Rng rng(12);
  const Network net = test_network(rng);
  ProtocolOptions opt;
  for (const std::string& name : protocol_names()) {
    const auto proto = make_protocol(name, net, opt);
    ASSERT_NE(proto, nullptr) << name;
    EXPECT_FALSE(proto->name().empty());
  }
}

TEST(Registry, CoversTheFullThirteenProtocolShelf) {
  const std::vector<std::string> names = protocol_names();
  EXPECT_EQ(names.size(), 13u);
  for (const char* expected : {"q-leach", "reech-me", "leach-rlc"})
    EXPECT_EQ(std::count(names.begin(), names.end(), expected), 1)
        << expected;
}

TEST(Registry, UnknownNameThrows) {
  Rng rng(13);
  const Network net = test_network(rng);
  EXPECT_THROW(make_protocol("bogus", net, ProtocolOptions{}),
               std::invalid_argument);
}

TEST(Registry, KOverrideRespected) {
  Rng rng(14);
  Network net = test_network(rng);
  ProtocolOptions opt;
  opt.k = 9;
  const auto proto = make_protocol("kmeans", net, opt);
  EnergyLedger ledger;
  proto->on_round_start(net, 0, rng, ledger);
  EXPECT_EQ(net.head_ids().size(), 9u);
}

TEST(Registry, ForceKFlowsToQlec) {
  Rng rng(15);
  const Network net = test_network(rng);
  ProtocolOptions opt;
  opt.qlec.force_k = 7;
  const auto proto = make_protocol("qlec", net, opt);
  // Indirect check: the default learning_updates starts at 0 and route
  // evaluates k+1 actions; we can't see k_opt through the base pointer, so
  // just ensure construction succeeded with the override in place.
  EXPECT_EQ(proto->name(), "QLEC");
}

// --- Audit-driven ledger reconciliation across the whole registry ------

ExperimentConfig ledger_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 40;
  cfg.sim.rounds = 6;
  cfg.sim.slots_per_round = 10;
  cfg.sim.audit.enabled = true;
  cfg.seeds = 1;
  cfg.protocol.qlec.total_rounds = 6;
  return cfg;
}

TEST(LedgerReconciliation, TotalsMatchBatteryDrainAllProtocols) {
  // Without harvesting, the ledger's grand total must equal the summed
  // battery drain that SimResult reports (same joules, different books).
  for (const std::string& name : protocol_names()) {
    const auto results = run_replications(name, ledger_config());
    const SimResult& r = results[0];
    EXPECT_TRUE(r.audit.ok()) << name << ": " << r.audit.summary();
    EXPECT_NEAR(r.energy.total(), r.total_energy_consumed,
                1e-9 * std::max(1.0, r.total_energy_consumed))
        << name;
  }
}

TEST(LedgerReconciliation, CategoryTotalsSumToGrandTotal) {
  for (const std::string& name : protocol_names()) {
    const auto results = run_replications(name, ledger_config());
    const EnergyLedger& e = results[0].energy;
    double by_category = 0.0;
    for (int u = 0; u < static_cast<int>(EnergyUse::kCount_); ++u)
      by_category += e.by_use(static_cast<EnergyUse>(u));
    EXPECT_NEAR(by_category, e.total(), 1e-12 * std::max(1.0, e.total()))
        << name;
    EXPECT_GT(e.by_use(EnergyUse::kTransmit), 0.0) << name;
  }
}

TEST(LedgerReconciliation, PerNodeTotalsMatchPerNodeConsumption) {
  // Audited runs attribute every charge to a node id; node-by-node the
  // ledger must agree with the battery's own consumed() accounting.
  for (const std::string& name : protocol_names()) {
    const auto results = run_replications(name, ledger_config());
    const SimResult& r = results[0];
    ASSERT_TRUE(r.energy.per_node_enabled()) << name;
    double attributed = 0.0;
    for (std::size_t i = 0; i < r.per_node_consumed.size(); ++i) {
      EXPECT_NEAR(r.energy.node_total(static_cast<int>(i)),
                  r.per_node_consumed[i],
                  1e-9 * std::max(1.0, r.per_node_consumed[i]))
          << name << " node " << i;
      attributed += r.energy.node_total(static_cast<int>(i));
    }
    EXPECT_NEAR(attributed, r.energy.total(),
                1e-9 * std::max(1.0, r.energy.total()))
        << name << ": some charge was not node-attributed";
  }
}

// --- Member routing after a head goes down mid-round -------------------

// The ten cluster-mode adapters differ only in how they elect heads; their
// member routing is the same: the assigned head while it is operational,
// otherwise the nearest operational head (the brute oracle's answer).
class MemberRoutingFallback : public ::testing::TestWithParam<std::string> {
};

TEST_P(MemberRoutingFallback, DownedHeadsMembersRerouteToNearestAliveHead) {
  constexpr double kDeathLine = 0.05;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    Network net = test_network(rng, 150);
    ProtocolOptions opt;
    opt.death_line = kDeathLine;
    const auto proto = make_protocol(GetParam(), net, opt);
    ASSERT_FALSE(proto->flat_routing());
    EnergyLedger ledger;
    proto->on_round_start(net, 0, rng, ledger);
    const std::vector<int> heads = net.head_ids();
    ASSERT_GE(heads.size(), 2u) << GetParam() << " seed " << seed;

    std::vector<int> assigned(net.size(), kBaseStationId);
    std::vector<std::size_t> members(net.size(), 0);
    for (const SensorNode& n : net.nodes()) {
      if (n.is_head) continue;
      const int a = proto->route(net, n.id, 4000.0, rng);
      assigned[static_cast<std::size_t>(n.id)] = a;
      if (a != kBaseStationId) ++members[static_cast<std::size_t>(a)];
    }
    // Take down the two most-populated heads, one by draining it to the
    // death line and one by clearing its fault-layer up flag.
    std::vector<int> by_size = heads;
    std::stable_sort(by_size.begin(), by_size.end(), [&](int a, int b) {
      return members[static_cast<std::size_t>(a)] >
             members[static_cast<std::size_t>(b)];
    });
    const int drained = by_size[0];
    const int downed = by_size[1];
    ASSERT_GT(members[static_cast<std::size_t>(drained)], 0u) << GetParam();
    Battery& b = net.node(drained).battery;
    b.consume(b.residual() - kDeathLine);
    ASSERT_FALSE(net.node(drained).operational(kDeathLine));
    net.node(downed).up = false;

    const std::vector<int> nearest = detail::assign_nearest_head_brute(
        net, net.head_ids(), kDeathLine);
    std::size_t rerouted = 0;
    for (const SensorNode& n : net.nodes()) {
      if (n.is_head) continue;
      const auto i = static_cast<std::size_t>(n.id);
      const int got = proto->route(net, n.id, 4000.0, rng);
      if (assigned[i] == drained || assigned[i] == downed) {
        EXPECT_EQ(got, nearest[i])
            << GetParam() << " seed " << seed << " node " << n.id;
        ++rerouted;
      } else {
        EXPECT_EQ(got, assigned[i])
            << GetParam() << " seed " << seed << " node " << n.id;
      }
    }
    EXPECT_GT(rerouted, 0u) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClusterAdapters, MemberRoutingFallback,
    ::testing::Values("leach", "deec", "tl-leach", "heed", "ideec", "kmeans",
                      "fcm", "q-leach", "reech-me", "leach-rlc"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      std::replace(s.begin(), s.end(), '-', '_');
      return s;
    });

TEST(DirectProtocol, AlwaysRoutesToBs) {
  Rng rng(16);
  Network net = test_network(rng, 10);
  DirectProtocol proto;
  EnergyLedger ledger;
  proto.on_round_start(net, 0, rng, ledger);
  EXPECT_TRUE(net.head_ids().empty());
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(proto.route(net, i, 4000.0, rng), kBaseStationId);
  EXPECT_EQ(proto.learning_updates(), 0u);
}

}  // namespace
}  // namespace qlec
