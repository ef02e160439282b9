// Fault-injection subsystem tests: determinism contract (a disabled
// FaultConfig is invisible to the trace), per-kind fault semantics,
// ledger-reconciled battery fades, loss attribution, recovery metrics, and
// registry-wide audited faulted runs.
#include "sim/fault/fault.hpp"

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/fault/resilience.hpp"
#include "sim/protocols/direct_protocol.hpp"
#include "sim/protocols/kmeans_protocol.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace qlec {
namespace {

Network fault_network(Rng& rng, std::size_t n = 30) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.m_side = 200.0;
  cfg.initial_energy = 5.0;
  return make_uniform_network(cfg, rng);
}

SimConfig traced_config(int rounds = 6) {
  SimConfig cfg;
  cfg.rounds = rounds;
  cfg.slots_per_round = 8;
  cfg.mean_interarrival = 3.0;
  cfg.trace.record = true;
  return cfg;
}

SimResult run_direct(const SimConfig& cfg, std::uint64_t seed = 7,
                     std::size_t n = 30) {
  Rng net_rng(seed);
  Network net = fault_network(net_rng, n);
  DirectProtocol proto;
  Rng sim_rng(seed ^ 0x9E3779B97F4A7C15ULL);
  return run_simulation(net, proto, cfg, sim_rng);
}

// --- Determinism contract -------------------------------------------------

TEST(Fault, DisabledConfigLeavesTraceBitIdentical) {
  // A fully populated but DISABLED FaultConfig must not perturb the Rng
  // stream or the trace in any way: same digest as a default config.
  SimConfig plain = traced_config();
  SimConfig armed_but_off = traced_config();
  armed_but_off.fault.enabled = false;
  armed_but_off.fault.seed = 1234;
  armed_but_off.fault.plan.events.push_back(
      FaultEvent{FaultKind::kCrash, 1, 0, 1, 0.5, false, Aabb::cube(200.0)});
  armed_but_off.fault.hazards.crash_per_node = 0.5;

  const SimResult a = run_direct(plain);
  const SimResult b = run_direct(armed_but_off);
  EXPECT_EQ(trace_digest(a.trace), trace_digest(b.trace));
  EXPECT_FALSE(b.resilience.enabled);
  EXPECT_EQ(b.resilience.per_round.size(), 0u);
}

TEST(Fault, FaultedRunIsReproducible) {
  SimConfig cfg = traced_config();
  cfg.fault.enabled = true;
  cfg.fault.seed = 99;
  cfg.fault.hazards.crash_per_node = 0.02;
  cfg.fault.hazards.stun_per_node = 0.05;
  cfg.fault.hazards.degrade_episode = 0.2;
  cfg.fault.hazards.bs_outage = 0.1;

  const SimResult a = run_direct(cfg);
  const SimResult b = run_direct(cfg);
  EXPECT_EQ(trace_digest(a.trace), trace_digest(b.trace));
  EXPECT_EQ(a.resilience.crashes, b.resilience.crashes);
  EXPECT_EQ(a.resilience.stuns, b.resilience.stuns);
  EXPECT_EQ(a.resilience.bs_outage_rounds, b.resilience.bs_outage_rounds);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_DOUBLE_EQ(a.total_energy_consumed, b.total_energy_consumed);
}

TEST(Fault, DistinctFaultSeedsDecoupleScenarios) {
  SimConfig cfg = traced_config();
  cfg.fault.enabled = true;
  cfg.fault.hazards.crash_per_node = 0.05;
  cfg.fault.seed = 1;
  const SimResult a = run_direct(cfg);
  cfg.fault.seed = 2;
  const SimResult b = run_direct(cfg);
  // Same simulation seed, different fault stream: the fault sequences (and
  // almost surely the traces) differ.
  EXPECT_NE(trace_digest(a.trace), trace_digest(b.trace));
}

// --- Per-kind semantics ---------------------------------------------------

TEST(Fault, ScheduledCrashTakesNodeDownForGood) {
  Rng net_rng(11);
  Network net = fault_network(net_rng);
  DirectProtocol proto;
  SimConfig cfg = traced_config(6);
  cfg.fault.enabled = true;
  cfg.fault.plan.events.push_back(FaultEvent{FaultKind::kCrash, 2, 4});
  cfg.audit.enabled = true;
  cfg.audit.throw_on_violation = true;
  Rng sim_rng(12);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);

  EXPECT_EQ(r.resilience.crashes, 1u);
  EXPECT_FALSE(net.node(4).up);
  EXPECT_FALSE(net.node(4).operational(cfg.death_line));
  EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
  // Rounds 0-1 see the full population, rounds 2+ one fewer.
  ASSERT_GE(r.trace.size(), 3u);
  EXPECT_EQ(r.trace[0].alive, net.size());
  EXPECT_EQ(r.trace[2].alive, net.size() - 1);
}

TEST(Fault, StunnedNodeSleepsThenWakes) {
  Rng net_rng(13);
  Network net = fault_network(net_rng);
  DirectProtocol proto;
  SimConfig cfg = traced_config(6);
  cfg.mean_interarrival = 0.0;  // no traffic: aliveness is purely fault-driven
  cfg.fault.enabled = true;
  cfg.fault.plan.events.push_back(FaultEvent{FaultKind::kStun, 1, 3, 2});
  cfg.audit.enabled = true;
  cfg.audit.throw_on_violation = true;
  Rng sim_rng(14);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);

  EXPECT_EQ(r.resilience.stuns, 1u);
  EXPECT_TRUE(net.node(3).up);  // the sleep window expired before the end
  EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
  // Down exactly for rounds 1 and 2, operational again from round 3.
  ASSERT_EQ(r.trace.size(), 6u);
  EXPECT_EQ(r.trace[0].alive, net.size());
  EXPECT_EQ(r.trace[1].alive, net.size() - 1);
  EXPECT_EQ(r.trace[2].alive, net.size() - 1);
  EXPECT_EQ(r.trace[3].alive, net.size());
  // A stunned radio is silent: with no traffic at all, no node spent any
  // energy, including the stunned one.
  EXPECT_DOUBLE_EQ(net.node(3).battery.residual(),
                   net.node(3).battery.initial());
}

TEST(Fault, RegionalBlackoutDownsEveryContainedNode) {
  Rng net_rng(15);
  Network net = fault_network(net_rng);
  DirectProtocol proto;
  SimConfig cfg = traced_config(5);
  cfg.fault.enabled = true;
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.round = 1;
  e.permanent = true;
  e.region = Aabb::cube(200.0);  // the whole deployment volume
  cfg.fault.plan.events.push_back(e);
  cfg.audit.enabled = true;
  cfg.audit.throw_on_violation = true;
  Rng sim_rng(16);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);

  EXPECT_EQ(r.resilience.blackouts, 1u);
  EXPECT_EQ(r.resilience.crashes, net.size());
  for (const SensorNode& n : net.nodes()) EXPECT_FALSE(n.up);
  // The whole network is down from round 1: the run ends there.
  EXPECT_EQ(r.rounds_completed, 2);
  EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
}

TEST(Fault, BatteryFadeReconcilesThroughTheLedger) {
  Rng net_rng(17);
  Network net = fault_network(net_rng);
  DirectProtocol proto;
  SimConfig cfg = traced_config(4);
  cfg.fault.enabled = true;
  FaultEvent e;
  e.kind = FaultKind::kBatteryFade;
  e.round = 1;
  e.node = 2;
  e.severity = 0.25;
  cfg.fault.plan.events.push_back(e);
  cfg.audit.enabled = true;
  cfg.audit.throw_on_violation = true;
  Rng sim_rng(18);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);

  EXPECT_EQ(r.resilience.fades, 1u);
  EXPECT_GT(r.resilience.energy_faded_j, 0.0);
  // The fade went through the EnergyLedger under its own bucket, so the
  // audited conservation books still balance (audit would have thrown).
  EXPECT_DOUBLE_EQ(r.energy.by_use(EnergyUse::kFault),
                   r.resilience.energy_faded_j);
  EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
}

TEST(Fault, BsOutageSuppressesAllDirectDeliveries) {
  SimConfig cfg = traced_config(4);
  cfg.fault.enabled = true;
  FaultEvent e;
  e.kind = FaultKind::kBsOutage;
  e.round = 0;
  e.duration = 4;  // covers the whole run
  cfg.fault.plan.events.push_back(e);
  const SimResult r = run_direct(cfg);

  EXPECT_GT(r.generated, 0u);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_EQ(r.resilience.bs_outage_rounds, 4u);
  // Every loss is a link loss whose final attempt hit the silent BS.
  EXPECT_EQ(r.lost_link, r.generated);
  EXPECT_EQ(r.resilience.lost_to_bs_outage, r.lost_link);
}

TEST(Fault, TotalLinkDegradationKillsEveryAttempt) {
  // Inside a whole-run degradation episode every link loss counts toward
  // lost_during_degradation, whatever failed: the channel (a severed link
  // on the ideal path) or contention (collisions on a crowded MAC).
  struct Case {
    const char* name;
    double severity;
    bool contended_mac;
  };
  for (const Case& c : {Case{"ideal, severed", 0.0, false},
                        Case{"mac, contended", 0.5, true}}) {
    SCOPED_TRACE(c.name);
    SimConfig cfg = traced_config(4);
    cfg.fault.enabled = true;
    FaultEvent e;
    e.kind = FaultKind::kLinkDegrade;
    e.round = 0;
    e.duration = 4;
    e.severity = c.severity;  // success probability multiplier
    cfg.fault.plan.events.push_back(e);
    if (c.contended_mac) {
      cfg.mean_interarrival = 1.0;
      cfg.mac.enabled = true;
      cfg.mac.cca_range = 500.0;
      cfg.mac.airtime_subslots = 3;
    }
    const SimResult r = run_direct(cfg);

    EXPECT_GT(r.generated, 0u);
    EXPECT_EQ(r.resilience.degraded_rounds, 4u);
    if (c.contended_mac) {
      EXPECT_GT(r.mac.totals.drop_collision, 0u);
      EXPECT_GT(r.mac.totals.drop_channel, 0u);
    } else {
      EXPECT_EQ(r.delivered, 0u);
      EXPECT_EQ(r.lost_link, r.generated);
    }
    EXPECT_EQ(r.resilience.lost_during_degradation, r.lost_link);
  }
}

TEST(Fault, CrashedMemberStopsSensing) {
  // Packets can only be charged against operational sources: crash every
  // node at round 0 and nothing is ever generated.
  SimConfig cfg = traced_config(3);
  cfg.fault.enabled = true;
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.round = 0;
  e.permanent = true;
  e.region = Aabb::cube(200.0);
  cfg.fault.plan.events.push_back(e);
  const SimResult r = run_direct(cfg);
  EXPECT_EQ(r.generated, 0u);
}

// --- Per-round rows and recovery ------------------------------------------

TEST(Fault, PerRoundRowsCoverEveryCompletedRound) {
  SimConfig cfg = traced_config(6);
  cfg.fault.enabled = true;
  cfg.fault.plan.events.push_back(FaultEvent{FaultKind::kStun, 2, 1, 2});
  const SimResult r = run_direct(cfg);
  ASSERT_EQ(r.resilience.per_round.size(),
            static_cast<std::size_t>(r.rounds_completed));
  std::uint64_t gen = 0;
  std::uint64_t del = 0;
  for (const RoundResilience& row : r.resilience.per_round) {
    gen += row.generated;
    del += row.delivered;
  }
  EXPECT_EQ(gen, r.generated);
  EXPECT_EQ(del, r.delivered);
  EXPECT_EQ(r.resilience.per_round[2].disruptions, 1u);
  EXPECT_EQ(r.resilience.per_round[2].nodes_down, 1u);
}

TEST(Recovery, NoDisruptionMeansNoMetric) {
  EXPECT_DOUBLE_EQ(mean_recovery_rounds({}), -1.0);
  std::vector<RoundResilience> rows(4);
  for (int i = 0; i < 4; ++i) {
    rows[static_cast<std::size_t>(i)].round = i;
    rows[static_cast<std::size_t>(i)].generated = 10;
    rows[static_cast<std::size_t>(i)].delivered = 10;
  }
  EXPECT_DOUBLE_EQ(mean_recovery_rounds(rows), -1.0);
}

TEST(Recovery, ImmediateRecoveryCountsZeroRounds) {
  // The disruption round itself still delivers at baseline: recovery = 0.
  std::vector<RoundResilience> rows(3);
  for (int i = 0; i < 3; ++i) {
    rows[static_cast<std::size_t>(i)].round = i;
    rows[static_cast<std::size_t>(i)].generated = 10;
    rows[static_cast<std::size_t>(i)].delivered = 10;
  }
  rows[1].disruptions = 1;
  EXPECT_DOUBLE_EQ(mean_recovery_rounds(rows), 0.0);
}

TEST(Recovery, DelayedRecoveryCountsTheGap) {
  // Healthy rounds 0-1 set a PDR-1.0 baseline; the round-2 disruption
  // zeroes delivery for rounds 2-3; round 4 is back at baseline -> 2.
  std::vector<RoundResilience> rows(5);
  for (int i = 0; i < 5; ++i) {
    rows[static_cast<std::size_t>(i)].round = i;
    rows[static_cast<std::size_t>(i)].generated = 10;
    rows[static_cast<std::size_t>(i)].delivered = 10;
  }
  rows[2].disruptions = 1;
  rows[2].delivered = 0;
  rows[3].delivered = 0;
  EXPECT_DOUBLE_EQ(mean_recovery_rounds(rows), 2.0);
}

TEST(Recovery, UnrecoveredDisruptionCountsRemainingHorizon) {
  std::vector<RoundResilience> rows(5);
  for (int i = 0; i < 5; ++i) {
    rows[static_cast<std::size_t>(i)].round = i;
    rows[static_cast<std::size_t>(i)].generated = 10;
    rows[static_cast<std::size_t>(i)].delivered = 10;
  }
  rows[2].disruptions = 1;
  for (int i = 2; i < 5; ++i) rows[static_cast<std::size_t>(i)].delivered = 0;
  EXPECT_DOUBLE_EQ(mean_recovery_rounds(rows), 3.0);
}

// --- Cluster-mode interactions --------------------------------------------

TEST(Fault, CrashedNodeIsNeverElectedHead) {
  Rng net_rng(21);
  Network net = fault_network(net_rng, 20);
  KmeansProtocol proto(4, 0.0, RadioModel{});
  SimConfig cfg = traced_config(8);
  cfg.fault.enabled = true;
  cfg.fault.seed = 5;
  cfg.fault.hazards.crash_per_node = 0.05;
  cfg.audit.enabled = true;
  cfg.audit.throw_on_violation = true;  // election of a down node -> throw
  Rng sim_rng(22);
  const SimResult r = run_simulation(net, proto, cfg, sim_rng);
  EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
}

// --- Registry-wide audited faulted runs -----------------------------------

TEST(Fault, EveryProtocolSurvivesAnAuditedFaultStorm) {
  ExperimentConfig cfg;
  cfg.scenario.n = 30;
  cfg.sim.rounds = 8;
  cfg.sim.slots_per_round = 8;
  cfg.sim.trace.record = true;
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;
  cfg.sim.fault.enabled = true;
  cfg.sim.fault.seed = 31;
  cfg.sim.fault.hazards.crash_per_node = 0.02;
  cfg.sim.fault.hazards.stun_per_node = 0.04;
  cfg.sim.fault.hazards.fade_per_node = 0.02;
  cfg.sim.fault.hazards.degrade_episode = 0.15;
  cfg.sim.fault.hazards.bs_outage = 0.05;
  cfg.seeds = 2;
  cfg.protocol.qlec.total_rounds = 8;

  for (const std::string& name : protocol_names()) {
    SCOPED_TRACE(name);
    const auto results = run_replications(name, cfg);  // throws on violation
    for (const SimResult& r : results) {
      EXPECT_TRUE(r.resilience.enabled);
      EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
      EXPECT_EQ(r.generated,
                r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
      // Fault-class attributions refine the classic loss counters, never
      // exceed them.
      EXPECT_LE(r.resilience.lost_to_bs_outage +
                    r.resilience.lost_to_down_target +
                    r.resilience.lost_during_degradation,
                r.lost_link);
      EXPECT_LE(r.resilience.lost_at_down_node, r.lost_dead);
    }
  }
}

}  // namespace
}  // namespace qlec
