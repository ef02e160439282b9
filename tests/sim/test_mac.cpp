// The slotted-CSMA MAC/PHY sub-phase (sim/mac, DESIGN.md §14).
//
// Two contracts are pinned here:
//   * disabled (the default) is bit-identical to the pre-MAC model — every
//     committed golden digest reproduces even with the other sim.mac knobs
//     set to exotic values, and
//   * enabled is deterministic: a fixed (config, seed) pair reproduces the
//     identical trajectory and MAC counters across reruns and seed-fanout
//     policies, because the engine draws from its own stream in event
//     order on the calling thread.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "energy/ledger.hpp"
#include "net/link.hpp"
#include "sim/experiment.hpp"
#include "sim/mac/engine.hpp"
#include "util/env.hpp"

namespace qlec {
namespace {

#ifndef QLEC_GOLDEN_DIR
#error "QLEC_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

/// Same frozen scenario as the golden-trace harness.
ExperimentConfig golden_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 40;
  cfg.sim.rounds = 10;
  cfg.sim.slots_per_round = 10;
  cfg.sim.trace.record = true;
  cfg.seeds = 2;
  cfg.base_seed = 42;
  cfg.protocol.qlec.total_rounds = 10;
  return cfg;
}

/// A small congested setup where contention actually bites: dense traffic
/// and a carrier-sense radius spanning the whole deployment cube, so every
/// concurrent sender defers or interferes with every other.
ExperimentConfig contended_config() {
  ExperimentConfig cfg = golden_config();
  cfg.sim.mean_interarrival = 1.0;
  cfg.sim.mac.enabled = true;
  cfg.sim.mac.cca_range = 500.0;
  cfg.sim.mac.airtime_subslots = 3;
  return cfg;
}

std::vector<std::string> digests_for(
    const std::string& protocol, const ExperimentConfig& cfg,
    const ExecPolicy& exec = ExecPolicy::serial()) {
  const auto results = run_replications(protocol, cfg, exec);
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const SimResult& r : results) out.push_back(trace_digest_hex(r.trace));
  return out;
}

std::vector<std::string> read_golden(const std::string& protocol) {
  std::ifstream in(std::string(QLEC_GOLDEN_DIR) + "/" + protocol + ".digest");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

std::uint64_t drop_total(const MacCounters& c) {
  return c.drop_collision + c.drop_channel + c.drop_overflow +
         c.drop_target_down + c.drop_sender_down;
}

TEST(MacDisabled, KnobsInertAndCommittedGoldensReproduce) {
  // Every non-`enabled` knob tweaked to a non-default value: with the
  // master switch off the engine must never be constructed, no extra Rng
  // draw may happen, and the committed digests of EVERY protocol in the
  // registry must reproduce bit-for-bit.
  ExperimentConfig cfg = golden_config();
  cfg.sim.mac.seed = 0xFEEDFACEULL;
  cfg.sim.mac.airtime_subslots = 7;
  cfg.sim.mac.cca_range = 9999.0;
  cfg.sim.mac.capture_ratio = 1.0;
  cfg.sim.mac.max_retries = 0;
  cfg.sim.mac.cw_min = 1;
  cfg.sim.mac.cw_max = 1;
  cfg.sim.mac.duty_cycle = 0.125;
  cfg.sim.mac.idle_j_per_subslot = 0.5;
  ASSERT_FALSE(cfg.sim.mac.enabled);
  for (const std::string& name : protocol_names()) {
    const std::vector<std::string> golden = read_golden(name);
    ASSERT_FALSE(golden.empty()) << name << ": missing committed golden";
    EXPECT_EQ(digests_for(name, cfg), golden)
        << name << ": disabled sim.mac perturbed the trajectory";
  }
  // And the result record stays inert.
  const auto results = run_replications("qlec", cfg);
  for (const SimResult& r : results) {
    EXPECT_FALSE(r.mac.enabled);
    EXPECT_EQ(r.mac.totals, MacCounters{});
    EXPECT_TRUE(r.mac.per_round.empty());
    EXPECT_EQ(r.energy.by_use(EnergyUse::kMac), 0.0);
  }
}

TEST(MacEnabled, ChangesTrajectoryAndSeedMatters) {
  ExperimentConfig base = golden_config();
  ExperimentConfig mac = base;
  mac.sim.mac.enabled = true;
  const auto ideal = digests_for("qlec", base);
  const auto contended = digests_for("qlec", mac);
  EXPECT_NE(ideal, contended)
      << "enabling the MAC sub-phase must change the trajectory";
  ExperimentConfig reseeded = mac;
  reseeded.sim.mac.seed = 1;
  EXPECT_NE(contended, digests_for("qlec", reseeded))
      << "sim.mac.seed must decouple the contention stream";
}

TEST(MacEnabled, DeterministicAcrossRerunsAndExecPolicy) {
  const ExperimentConfig cfg = contended_config();
  for (const std::string& name :
       {std::string("qlec"), std::string("fcm"), std::string("qelar")}) {
    const auto baseline = digests_for(name, cfg);
    EXPECT_EQ(baseline, digests_for(name, cfg)) << name << ": rerun";
    ThreadPool pool(3);
    EXPECT_EQ(baseline, digests_for(name, cfg, ExecPolicy::borrow(pool)))
        << name << ": seed fan-out policy changed a MAC-enabled trajectory";
  }
}

TEST(MacEnabled, StatsPopulatedAndPerRoundRowsSumToTotals) {
  const ExperimentConfig cfg = contended_config();
  for (const SimResult& r : run_replications("qlec", cfg)) {
    ASSERT_TRUE(r.mac.enabled);
    EXPECT_GT(r.mac.totals.tx_attempts, 0u);
    EXPECT_GT(r.mac.totals.subslots, 0u);
    // Wall-to-wall carrier sensing: some attempt must have deferred or
    // collided somewhere in a 40-node cube fully inside cca_range.
    EXPECT_GT(r.mac.totals.cca_busy + r.mac.totals.collisions, 0u);
    ASSERT_EQ(r.mac.per_round.size(),
              static_cast<std::size_t>(r.rounds_completed));
    MacCounters sum;
    for (std::size_t i = 0; i < r.mac.per_round.size(); ++i) {
      EXPECT_EQ(r.mac.per_round[i].round, static_cast<int>(i));
      sum += r.mac.per_round[i].c;
    }
    EXPECT_EQ(sum, r.mac.totals)
        << "per-round deltas must partition the cumulative totals";
    // Packet conservation holds on the MAC path too.
    EXPECT_EQ(r.generated,
              r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
  }
}

TEST(MacEnabled, RetransmitAndDutyCycleEnergyLandsInKMacAndReconciles) {
  ExperimentConfig cfg = contended_config();
  cfg.sim.mac.idle_j_per_subslot = 1e-6;
  cfg.sim.mac.duty_cycle = 0.5;
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;  // AuditError would fail the test
  for (const SimResult& r : run_replications("qlec", cfg)) {
    EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
    EXPECT_GT(r.energy.by_use(EnergyUse::kMac), 0.0)
        << "duty-cycle listening must charge the kMac bucket";
    EXPECT_GT(r.energy.total(), 0.0);
  }
  // The summary line names the bucket.
  const auto results = run_replications("qlec", cfg);
  EXPECT_NE(results[0].energy.summary().find("mac="), std::string::npos);
}

TEST(MacEnabled, FaultStormDropsPendingFramesUncharged) {
  // Satellite regression: FaultPlan storms + hazards while the MAC engine
  // is live. Down nodes must spend nothing (auditor invariant d2) — the
  // sender-eligibility check at event dispatch drops their pending frames
  // without an on_attempt charge — and the books must still reconcile, so
  // the run survives throw_on_violation.
  ExperimentConfig cfg = contended_config();
  cfg.sim.rounds = 8;
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;
  cfg.sim.fault.enabled = true;
  cfg.sim.fault.plan.events = {
      FaultEvent{FaultKind::kCrash, 1, 0, 1, 0.5, false, {}},
      FaultEvent{FaultKind::kStun, 2, 5, 2, 0.5, false, {}},
      FaultEvent{FaultKind::kBlackout, 3, -1, 2, 0.5, false,
                 Aabb::cube(120.0)},
      FaultEvent{FaultKind::kBsOutage, 4, -1, 2, 0.5, false, {}},
      FaultEvent{FaultKind::kLinkDegrade, 5, -1, 2, 0.3, false, {}},
  };
  cfg.sim.fault.hazards.crash_per_node = 0.01;
  cfg.sim.fault.hazards.stun_per_node = 0.02;
  for (const SimResult& r : run_replications("qlec", cfg)) {
    EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
    ASSERT_TRUE(r.mac.enabled);
    // The BS outage round alone guarantees terminal down-target drops.
    EXPECT_GT(r.mac.totals.drop_target_down, 0u);
    EXPECT_EQ(r.generated,
              r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
    // Every terminal drop surfaced as at least one lost packet (a dropped
    // uplink frame fans out to its whole fused aggregate, hence <=).
    EXPECT_LE(drop_total(r.mac.totals),
              r.lost_link + r.lost_queue + r.lost_dead);
  }
  // The identical storm replays bit-for-bit.
  const auto a = digests_for("qlec", cfg);
  const auto b = digests_for("qlec", cfg);
  EXPECT_EQ(a, b);
}

/// Minimal protocol that pins node 0 as the sole head and records every
/// ACK/NACK the simulator feeds back, so the test can replay the exact
/// feedback sequence into a LinkEstimator.
class RecordingProtocol final : public ClusteringProtocol {
 public:
  std::string name() const override { return "recorder"; }
  void on_round_start(Network& net, int, Rng&, EnergyLedger&) override {
    net.reset_heads();
    net.node(0).is_head = true;
  }
  int route(const Network&, int, double, Rng&) override { return 0; }
  void on_tx_result(const Network&, int src, int target,
                    bool success) override {
    feedback.emplace_back(src, target, success);
  }
  std::vector<std::tuple<int, int, bool>> feedback;
};

TEST(MacEnabled, CollisionNacksTrainTheLinkEstimator) {
  // Satellite: MAC-layer losses (collision, channel, overflow) must reach
  // on_tx_result as plain NACKs — indistinguishable from the ideal path's
  // failures — so estimator-driven protocols learn from contention.
  ExperimentConfig cfg = contended_config();
  cfg.scenario.n = 30;
  Network net = build_network(cfg, /*seed=*/7);
  RecordingProtocol proto;
  Rng rng(7 ^ 0xD1B54A32D192ED03ULL);
  const SimResult r = run_simulation(net, proto, cfg.sim, rng);
  ASSERT_TRUE(r.mac.enabled);
  std::size_t nacks = 0;
  LinkEstimator replayed;
  for (const auto& [src, target, success] : proto.feedback) {
    EXPECT_EQ(target, 0) << "route() pinned every member to head 0";
    replayed.record(src, target, success);
    nacks += success ? 0u : 1u;
  }
  ASSERT_GT(proto.feedback.size(), 0u);
  ASSERT_GT(nacks, 0u) << "a fully-contended cube must produce NACKs";
  // Replaying the feedback trains the estimator exactly like direct
  // record() calls with the same outcomes (the NACK path carries no
  // MAC-specific side channel).
  LinkEstimator direct;
  for (const auto& [src, target, success] : proto.feedback)
    direct.record(src, target, success);
  for (const auto& [src, target, success] : proto.feedback) {
    EXPECT_DOUBLE_EQ(replayed.estimate(src, target),
                     direct.estimate(src, target));
    EXPECT_EQ(replayed.observations(src, target),
              direct.observations(src, target));
  }
}

TEST(MacEnabled, FlatRoutingContendsDeterministically) {
  // QELAR's store-and-forward hops go through the same contention phases.
  const ExperimentConfig cfg = contended_config();
  const auto results = run_replications("qelar", cfg);
  for (const SimResult& r : results) {
    ASSERT_TRUE(r.mac.enabled);
    EXPECT_GT(r.mac.totals.tx_attempts, 0u);
    EXPECT_EQ(r.generated,
              r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
  }
  EXPECT_EQ(digests_for("qelar", cfg), digests_for("qelar", cfg));
}

TEST(MacEnabled, ZeroRetriesAndTinyWindowsStillTerminate) {
  // Degenerate corner: no retransmissions, 1-subslot windows, capture at
  // the permissive floor. The event loop must still terminate and conserve
  // packets.
  ExperimentConfig cfg = contended_config();
  cfg.sim.mac.max_retries = 0;
  cfg.sim.mac.cw_min = 1;
  cfg.sim.mac.cw_max = 1;
  cfg.sim.mac.capture_ratio = 1.0;
  cfg.sim.mac.airtime_subslots = 1;
  for (const SimResult& r : run_replications("qlec", cfg)) {
    EXPECT_EQ(r.mac.totals.retransmits, 0u);
    EXPECT_EQ(r.generated,
              r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
  }
}

TEST(MacEngine, LossCauseNamesAreTotal) {
  for (MacLossCause c :
       {MacLossCause::kNone, MacLossCause::kCollision, MacLossCause::kChannel,
        MacLossCause::kOverflow, MacLossCause::kTargetDown,
        MacLossCause::kSenderDown}) {
    EXPECT_NE(mac_loss_cause_name(c), nullptr);
    EXPECT_GT(std::string(mac_loss_cause_name(c)).size(), 0u);
  }
}

}  // namespace
}  // namespace qlec
