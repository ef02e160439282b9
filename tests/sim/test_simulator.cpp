#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "sim/protocols/direct_protocol.hpp"
#include "sim/protocols/kmeans_protocol.hpp"
#include "sim/scenario.hpp"

namespace qlec {
namespace {

Network small_network(Rng& rng, std::size_t n = 40, double energy = 5.0) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.m_side = 200.0;
  cfg.initial_energy = energy;
  return make_uniform_network(cfg, rng);
}

SimConfig fast_config() {
  SimConfig cfg;
  cfg.rounds = 5;
  cfg.slots_per_round = 10;
  cfg.mean_interarrival = 4.0;
  return cfg;
}

TEST(Simulator, PacketAccountingBalances) {
  Rng rng(1);
  Network net = small_network(rng);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  const SimConfig cfg = fast_config();
  Rng sim_rng(2);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  EXPECT_GT(r.generated, 0u);
  // Conservation: every generated packet is delivered or lost somewhere.
  EXPECT_EQ(r.generated,
            r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
}

TEST(Simulator, PdrInUnitInterval) {
  Rng rng(3);
  Network net = small_network(rng);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  Rng sim_rng(4);
  const SimResult r = run_simulation(net, proto, fast_config(), sim_rng);
  EXPECT_GE(r.pdr(), 0.0);
  EXPECT_LE(r.pdr(), 1.0);
}

TEST(Simulator, EnergyLedgerMatchesBatteryDrain) {
  Rng rng(5);
  Network net = small_network(rng);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  Rng sim_rng(6);
  const SimResult r = run_simulation(net, proto, fast_config(), sim_rng);
  // Everything the ledger recorded was actually drawn from batteries (and
  // vice versa; clamping at empty batteries can only make the ledger equal,
  // since charge() records the drawn amount).
  EXPECT_NEAR(r.energy.total(), r.total_energy_consumed,
              r.total_energy_consumed * 1e-9 + 1e-12);
  EXPECT_GT(r.total_energy_consumed, 0.0);
}

TEST(Simulator, PerNodeVectorsSized) {
  Rng rng(7);
  Network net = small_network(rng);
  KmeansProtocol proto(3, 0.0, RadioModel{});
  Rng sim_rng(8);
  const SimResult r = run_simulation(net, proto, fast_config(), sim_rng);
  EXPECT_EQ(r.per_node_consumed.size(), net.size());
  EXPECT_EQ(r.per_node_rate.size(), net.size());
  for (const double rate : r.per_node_rate) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
}

TEST(Simulator, NoTrafficMeansNoPackets) {
  Rng rng(9);
  Network net = small_network(rng);
  KmeansProtocol proto(3, 0.0, RadioModel{});
  SimConfig cfg = fast_config();
  cfg.mean_interarrival = 0.0;  // disabled
  Rng sim_rng(10);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  EXPECT_EQ(r.generated, 0u);
  EXPECT_DOUBLE_EQ(r.pdr(), 1.0);  // vacuous
}

TEST(Simulator, RoundsCompletedMatchesConfig) {
  Rng rng(11);
  Network net = small_network(rng);
  KmeansProtocol proto(3, 0.0, RadioModel{});
  Rng sim_rng(12);
  const SimResult r = run_simulation(net, proto, fast_config(), sim_rng);
  EXPECT_EQ(r.rounds_completed, 5);
}

TEST(Simulator, DirectProtocolDeliversWithoutHeads) {
  Rng rng(13);
  Network net = small_network(rng);
  DirectProtocol proto;
  SimConfig cfg = fast_config();
  cfg.link.bs_reliability_factor = 0.0;  // perfect BS uplink
  cfg.max_retries = 3;
  Rng sim_rng(14);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  EXPECT_GT(r.generated, 0u);
  EXPECT_EQ(r.delivered, r.generated);
  EXPECT_DOUBLE_EQ(r.heads_per_round.mean(), 0.0);
}

TEST(Simulator, DeathBookkeepingOrdersFndHndLnd) {
  Rng rng(15);
  // Tiny batteries so everyone dies quickly.
  Network net = small_network(rng, 20, 5e-4);
  KmeansProtocol proto(3, 0.0, RadioModel{});
  SimConfig cfg = fast_config();
  cfg.rounds = 300;
  cfg.mean_interarrival = 1.0;
  Rng sim_rng(16);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  ASSERT_GE(r.first_death_round, 0);
  ASSERT_GE(r.half_death_round, r.first_death_round);
  if (r.last_death_round >= 0) {
    EXPECT_GE(r.last_death_round, r.half_death_round);
  }
}

TEST(Simulator, StopAtFirstDeathHaltsEarly) {
  Rng rng(17);
  Network net = small_network(rng, 20, 5e-4);
  KmeansProtocol proto(3, 0.0, RadioModel{});
  SimConfig cfg = fast_config();
  cfg.rounds = 1000;
  cfg.mean_interarrival = 1.0;
  cfg.trace.stop_at_first_death = true;
  Rng sim_rng(18);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  ASSERT_GE(r.first_death_round, 0);
  EXPECT_EQ(r.rounds_completed, r.first_death_round + 1);
}

TEST(Simulator, DeterministicForSameSeeds) {
  const auto run_once = [] {
    Rng rng(19);
    Network net = small_network(rng);
    KmeansProtocol proto(4, 0.0, RadioModel{});
    Rng sim_rng(20);
    return run_simulation(net, proto, fast_config(), sim_rng);
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.total_energy_consumed, b.total_energy_consumed);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

TEST(Simulator, CongestionIncreasesQueueLoss) {
  const auto run_with_lambda = [](double lambda) {
    Rng rng(21);
    Network net = small_network(rng, 60);
    KmeansProtocol proto(3, 0.0, RadioModel{});
    SimConfig cfg = fast_config();
    cfg.rounds = 10;
    cfg.mean_interarrival = lambda;
    cfg.queue_capacity = 6;
    cfg.service_per_slot = 1;
    Rng sim_rng(22);
    return run_simulation(net, proto, cfg, sim_rng);
  };
  const SimResult idle = run_with_lambda(16.0);
  const SimResult congested = run_with_lambda(1.0);
  EXPECT_GT(congested.generated, idle.generated);
  EXPECT_LT(congested.pdr(), idle.pdr());
  EXPECT_GT(congested.lost_queue, idle.lost_queue);
}

TEST(Simulator, LatencyOnlyCountsDeliveredPackets) {
  Rng rng(23);
  Network net = small_network(rng);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  Rng sim_rng(24);
  const SimResult r = run_simulation(net, proto, fast_config(), sim_rng);
  EXPECT_EQ(r.latency.count(), r.delivered);
  if (r.delivered > 0) {
    EXPECT_GE(r.latency.min(), 0.0);
  }
}

TEST(Simulator, DeadNodesStopGeneratingTraffic) {
  Rng rng(25);
  Network net = small_network(rng, 10, 1e-5);  // near-zero batteries
  KmeansProtocol proto(2, 0.0, RadioModel{});
  SimConfig cfg = fast_config();
  cfg.rounds = 50;
  cfg.mean_interarrival = 1.0;
  Rng sim_rng(26);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  // After all die, generation stops: generated count is far below the
  // no-death expectation of ~ N * rounds * slots / lambda = 5000.
  EXPECT_LT(r.generated, 2000u);
}

TEST(Simulator, HigherServiceRateImprovesPdrUnderLoad) {
  const auto run_with_service = [](int service) {
    Rng rng(27);
    Network net = small_network(rng, 60);
    KmeansProtocol proto(3, 0.0, RadioModel{});
    SimConfig cfg = fast_config();
    cfg.rounds = 10;
    cfg.mean_interarrival = 1.5;
    cfg.queue_capacity = 8;
    cfg.service_per_slot = service;
    Rng sim_rng(28);
    return run_simulation(net, proto, cfg, sim_rng);
  };
  EXPECT_GT(run_with_service(6).pdr(), run_with_service(1).pdr());
}

// Routes every member packet at one fixed target and mirrors the learning
// protocols' ACK bookkeeping (LinkEstimator trained on every attempt), so
// the dead-target retry path of deliver_from can be pinned down exactly.
class FixedTargetProtocol final : public ClusteringProtocol {
 public:
  /// `mark_head`: also flag the target as a cluster head each round (gives
  /// it a cache slot; leave false to aim at a plain dead node).
  FixedTargetProtocol(int target, bool mark_head)
      : target_(target), mark_head_(mark_head) {}
  std::string name() const override { return "fixed-target"; }
  void on_round_start(Network& net, int round, Rng& rng,
                      EnergyLedger& ledger) override {
    (void)round;
    (void)rng;
    (void)ledger;
    net.reset_heads();
    if (mark_head_) net.node(target_).is_head = true;
  }
  int route(const Network& net, int src, double bits, Rng& rng) override {
    (void)net;
    (void)src;
    (void)bits;
    (void)rng;
    return target_;
  }
  void on_tx_result(const Network& net, int src, int target,
                    bool success) override {
    (void)net;
    estimator.record(src, target, success);
    if (success) {
      ++acks;
    } else {
      ++nacks;
    }
  }

  LinkEstimator estimator;
  std::uint64_t acks = 0;
  std::uint64_t nacks = 0;

 private:
  int target_;
  bool mark_head_;
};

TEST(Simulator, DeadTargetRetriesChargeSenderAndClassifyAsLinkLoss) {
  Rng rng(29);
  Network net = small_network(rng, 8);
  // Node 0 is battery-dead before the run starts; everyone aims at it.
  net.node(0).battery.consume(net.node(0).battery.residual());
  ASSERT_FALSE(net.node(0).battery.alive(0.0));
  FixedTargetProtocol proto(0, /*mark_head=*/false);
  SimConfig cfg = fast_config();
  cfg.max_retries = 2;
  Rng sim_rng(30);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);

  ASSERT_GT(r.generated, 0u);
  // A dead relay is a LINK failure (no ACK), never a queue overflow and
  // never a loss "at" the live sender.
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_EQ(r.lost_link, r.generated);
  EXPECT_EQ(r.lost_queue, 0u);
  EXPECT_EQ(r.lost_dead, 0u);
  // The sender pays tx energy for every attempt even though the target
  // never listens; the dead target never pays rx energy.
  EXPECT_GT(r.energy.by_use(EnergyUse::kTransmit), 0.0);
  EXPECT_DOUBLE_EQ(r.energy.by_use(EnergyUse::kReceive), 0.0);
  EXPECT_DOUBLE_EQ(net.node(0).battery.residual(), 0.0);
  // Every attempt (first try + max_retries) came back as a negative ACK.
  EXPECT_EQ(r.lost_link * static_cast<std::uint64_t>(cfg.max_retries + 1),
            proto.nacks);
  EXPECT_EQ(proto.acks, 0u);
}

TEST(Simulator, DeadTargetNacksTrainTheLinkEstimatorDown) {
  Rng rng(31);
  Network net = small_network(rng, 8);
  net.node(0).battery.consume(net.node(0).battery.residual());
  FixedTargetProtocol proto(0, /*mark_head=*/false);
  SimConfig cfg = fast_config();
  Rng sim_rng(32);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  ASSERT_GT(r.generated, 0u);
  // Every observed link into the dead node has collapsed well below the
  // optimistic prior the estimator starts from.
  const double prior = LinkEstimator().estimate(1, 0);
  bool observed_any = false;
  for (int src = 1; src < static_cast<int>(net.size()); ++src) {
    if (proto.estimator.observations(src, 0) == 0) continue;
    observed_any = true;
    EXPECT_LT(proto.estimator.estimate(src, 0), prior);
  }
  EXPECT_TRUE(observed_any);
}

TEST(Simulator, OverflowAtLiveHeadClassifiesAsQueueLoss) {
  Rng rng(33);
  Network net = small_network(rng, 8);
  FixedTargetProtocol proto(0, /*mark_head=*/true);
  SimConfig cfg = fast_config();
  cfg.rounds = 2;
  cfg.mean_interarrival = 1.0;   // heavy traffic into one head
  cfg.queue_capacity = 1;        // cache full after a single packet
  cfg.service_per_slot = 0;      // and it never drains
  cfg.link.d_ref = 1e12;         // perfect channel: p rounds to exactly 1
  cfg.link.p_floor = 1.0;
  Rng sim_rng(34);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);

  ASSERT_GT(r.generated, 0u);
  // With a perfect channel the ONLY failure mode is cache overflow, so the
  // retry loop's terminal classification must be lost_queue, not lost_link.
  EXPECT_GT(r.lost_queue, 0u);
  EXPECT_EQ(r.lost_link, 0u);
  EXPECT_EQ(r.generated,
            r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
  // Overflow still trains the estimator negatively (no ACK came back).
  EXPECT_GT(proto.nacks, 0u);
}

}  // namespace
}  // namespace qlec
