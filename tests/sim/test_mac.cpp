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
//
// MacEngineOracle holds the engine's on-air set and air log to the grid-
// based resolve they replaced, kept verbatim below as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "energy/ledger.hpp"
#include "geom/spatial_grid.hpp"
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
    EXPECT_EQ(baseline, digests_for(name, cfg, ExecPolicy::pool(3)))
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

// ---------------------------------------------------------------------------
// MacEngineOracle: the engine against the grid-based resolve it replaced.

/// The contention engine as it was before the on-air set and the air log: a
/// SpatialGrid over the phase's sender positions answers the CCA query and
/// the receiver's interference query. Kept verbatim as the oracle.
class GridMacEngine {
 public:
  GridMacEngine(const MacConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed) {}

  void resolve(std::vector<MacFrame>& frames, MacHost& host);
  const MacCounters& totals() const noexcept { return totals_; }
  std::int64_t last_phase_subslots() const noexcept { return last_subslots_; }

 private:
  struct Event {
    std::int64_t t = 0;
    int kind = 0;  ///< 0 = frame-end, 1 = attempt-start (ends first at t)
    std::uint64_t seq = 0;
    std::uint32_t idx = 0;
    friend bool operator>(const Event& a, const Event& b) noexcept {
      if (a.t != b.t) return a.t > b.t;
      if (a.kind != b.kind) return a.kind > b.kind;
      return a.seq > b.seq;
    }
  };
  using EventHeap =
      std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

  static double rx_power(const Vec3& tx, const Vec3& rx) noexcept {
    const double d = std::max(distance(tx, rx), 1.0);
    return 1.0 / (d * d);
  }
  std::int64_t cw(int retry) const noexcept {
    std::int64_t w = cfg_.cw_min;
    for (int k = 0; k < retry && w < cfg_.cw_max; ++k) w <<= 1;
    return std::min<std::int64_t>(w, cfg_.cw_max);
  }
  void push(EventHeap& heap, std::int64_t t, int kind, std::uint32_t idx) {
    heap.push(Event{t, kind, seq_++, idx});
  }
  void schedule_backoff(EventHeap& heap, std::uint32_t i, std::int64_t t,
                        int retry) {
    const std::int64_t delay =
        1 + static_cast<std::int64_t>(
                rng_.uniform_int(static_cast<std::uint64_t>(cw(retry))));
    totals_.backoff_subslots += static_cast<std::uint64_t>(delay);
    push(heap, t + delay, /*kind=*/1, i);
  }

  const MacConfig cfg_;
  Rng rng_;
  MacCounters totals_;
  std::int64_t last_subslots_ = 0;
  std::uint64_t seq_ = 0;

  std::vector<int> retries_;
  std::vector<std::uint8_t> in_flight_;
  std::vector<std::int32_t> next_of_src_;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> intervals_;
  std::vector<Vec3> sender_pos_;
  std::vector<std::size_t> query_scratch_;
};

void GridMacEngine::resolve(std::vector<MacFrame>& frames, MacHost& host) {
  last_subslots_ = 0;
  if (frames.empty()) return;
  const std::size_t m = frames.size();
  const std::int64_t air = cfg_.airtime_subslots;

  retries_.assign(m, 0);
  in_flight_.assign(m, 0);
  next_of_src_.assign(m, -1);
  if (intervals_.size() < m) intervals_.resize(m);
  for (std::size_t i = 0; i < m; ++i) intervals_[i].clear();
  sender_pos_.clear();
  sender_pos_.reserve(m);
  for (const MacFrame& f : frames) sender_pos_.push_back(f.src_pos);
  const SpatialGrid grid(sender_pos_, cfg_.cca_range);

  std::vector<std::uint32_t> chain_heads;
  {
    std::unordered_map<int, std::uint32_t> last_of;
    for (std::uint32_t i = 0; i < m; ++i) {
      const auto [it, fresh] = last_of.try_emplace(frames[i].src, i);
      if (fresh) {
        chain_heads.push_back(i);
      } else {
        next_of_src_[it->second] = static_cast<std::int32_t>(i);
        it->second = i;
      }
    }
  }

  EventHeap heap;
  seq_ = 0;
  for (const std::uint32_t i : chain_heads) {
    const std::int64_t t0 = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(cw(0))));
    totals_.backoff_subslots += static_cast<std::uint64_t>(t0);
    push(heap, t0, /*kind=*/1, i);
  }

  std::int64_t horizon = 0;
  const auto finish = [&](std::uint32_t i, std::int64_t t) {
    const std::int32_t next = next_of_src_[i];
    if (next >= 0) {
      const std::int64_t t0 =
          t + 1 +
          static_cast<std::int64_t>(
              rng_.uniform_int(static_cast<std::uint64_t>(cw(0))));
      totals_.backoff_subslots += static_cast<std::uint64_t>(t0 - t - 1);
      push(heap, t0, /*kind=*/1, static_cast<std::uint32_t>(next));
    }
  };
  const auto drop = [&](std::uint32_t i, MacLossCause cause, std::int64_t t) {
    MacFrame& f = frames[i];
    f.loss = cause;
    switch (cause) {
      case MacLossCause::kCollision: ++totals_.drop_collision; break;
      case MacLossCause::kChannel: ++totals_.drop_channel; break;
      case MacLossCause::kOverflow: ++totals_.drop_overflow; break;
      case MacLossCause::kTargetDown: ++totals_.drop_target_down; break;
      case MacLossCause::kSenderDown: ++totals_.drop_sender_down; break;
      case MacLossCause::kNone: break;
    }
    host.on_drop(f, cause);
    finish(i, t);
  };
  const auto nack = [&](std::uint32_t i, MacLossCause cause, std::int64_t t) {
    host.on_feedback(frames[i], false);
    if (++retries_[i] > cfg_.max_retries) {
      drop(i, cause, t);
    } else {
      schedule_backoff(heap, i, t, retries_[i]);
    }
  };

  while (!heap.empty()) {
    const Event ev = heap.top();
    heap.pop();
    horizon = std::max(horizon, ev.t);
    const std::uint32_t i = ev.idx;
    MacFrame& f = frames[i];
    if (ev.kind == 1) {
      if (!host.sender_up(f)) {
        drop(i, MacLossCause::kSenderDown, ev.t);
        continue;
      }
      bool busy = false;
      grid.query_into(f.src_pos, cfg_.cca_range, query_scratch_);
      for (const std::size_t j : query_scratch_) {
        if (j != i && in_flight_[j] != 0) {
          busy = true;
          break;
        }
      }
      if (busy) {
        ++totals_.cca_busy;
        if (++retries_[i] > cfg_.max_retries) {
          host.on_feedback(f, false);
          drop(i, MacLossCause::kCollision, ev.t);
        } else {
          schedule_backoff(heap, i, ev.t, retries_[i]);
        }
        continue;
      }
      ++totals_.tx_attempts;
      if (f.attempts > 0) ++totals_.retransmits;
      host.on_attempt(f, f.attempts);
      ++f.attempts;
      in_flight_[i] = 1;
      intervals_[i].emplace_back(ev.t, ev.t + air);
      push(heap, ev.t + air, /*kind=*/0, i);
      continue;
    }

    in_flight_[i] = 0;
    const std::int64_t start = ev.t - air;
    if (!host.target_listening(f)) {
      nack(i, MacLossCause::kTargetDown, ev.t);
      continue;
    }
    double interference = 0.0;
    grid.query_into(f.dst_pos, cfg_.cca_range, query_scratch_);
    for (const std::size_t j : query_scratch_) {
      if (j == i) continue;
      const double pw = rx_power(frames[j].src_pos, f.dst_pos);
      for (const auto& [a, b] : intervals_[j])
        if (a < ev.t && b > start) interference += pw;
    }
    if (interference > 0.0) {
      const double signal = rx_power(f.src_pos, f.dst_pos);
      if (signal >= cfg_.capture_ratio * interference) {
        ++totals_.capture_wins;
      } else {
        ++totals_.collisions;
        nack(i, MacLossCause::kCollision, ev.t);
        continue;
      }
    }
    if (!rng_.bernoulli(f.link_p)) {
      nack(i, MacLossCause::kChannel, ev.t);
      continue;
    }
    if (!host.on_decode(f)) {
      nack(i, MacLossCause::kOverflow, ev.t);
      continue;
    }
    f.delivered = true;
    host.on_feedback(f, true);
    finish(i, ev.t);
  }

  last_subslots_ = horizon;
  totals_.subslots += static_cast<std::uint64_t>(horizon);
}

/// Logs every callback in order and answers sender_up, target_listening
/// and on_decode from its own seeded stream: two engines that make the
/// same calls in the same order see the same world and the same log.
class ScriptedHost final : public MacHost {
 public:
  struct Odds {
    double sender_down = 0.0;
    double target_deaf = 0.0;
    double overflow = 0.0;
  };
  /// (callback, frame tag, attempt / answer / cause)
  using Call = std::tuple<char, std::uint32_t, int>;

  ScriptedHost(std::uint64_t seed, Odds odds) : rng_(seed), odds_(odds) {}

  bool sender_up(const MacFrame& f) override {
    return logged('u', f, !rng_.bernoulli(odds_.sender_down));
  }
  bool target_listening(const MacFrame& f) override {
    return logged('l', f, !rng_.bernoulli(odds_.target_deaf));
  }
  void on_attempt(MacFrame& f, int attempt) override {
    calls.emplace_back('a', f.tag, attempt);
  }
  bool on_decode(MacFrame& f) override {
    return logged('d', f, !rng_.bernoulli(odds_.overflow));
  }
  void on_feedback(MacFrame& f, bool ack) override { logged('f', f, ack); }
  void on_drop(MacFrame& f, MacLossCause cause) override {
    calls.emplace_back('x', f.tag, static_cast<int>(cause));
  }

  std::vector<Call> calls;

 private:
  bool logged(char kind, const MacFrame& f, bool answer) {
    calls.emplace_back(kind, f.tag, answer ? 1 : 0);
    return answer;
  }

  Rng rng_;
  Odds odds_;
};

/// One frame's engine-written outcome.
using Outcome = std::tuple<bool, MacLossCause, int>;

std::vector<Outcome> outcomes(const std::vector<MacFrame>& frames) {
  std::vector<Outcome> out;
  out.reserve(frames.size());
  for (const MacFrame& f : frames)
    out.emplace_back(f.delivered, f.loss, f.attempts);
  return out;
}

/// A sender position drawn to stress the reach test: spread over negative
/// and positive coordinates, packed into dense clusters, co-located with an
/// earlier sender, exactly `r` from one along an axis, or on cell edges
/// (integer multiples of `r`, the cell side).
Vec3 draw_sender(Rng& rng, double r, const std::vector<Vec3>& earlier) {
  const auto edge = [&] {
    return static_cast<double>(rng.uniform_int(std::int64_t{-3},
                                               std::int64_t{3})) * r;
  };
  const std::uint64_t layout = earlier.empty() ? 0 : rng.uniform_int(5);
  const Vec3& prev =
      earlier.empty() ? Vec3{} : earlier[rng.uniform_int(earlier.size())];
  switch (layout) {
    case 1:  // dense cluster around an earlier sender
      return prev + Vec3{rng.uniform(-0.1, 0.1) * r,
                         rng.uniform(-0.1, 0.1) * r,
                         rng.uniform(-0.1, 0.1) * r};
    case 2:  // co-located
      return prev;
    case 3: {  // exactly the reach away along one axis
      Vec3 p = prev;
      const double d = rng.bernoulli(0.5) ? r : -r;
      switch (rng.uniform_int(3)) {
        case 0: p.x += d; break;
        case 1: p.y += d; break;
        default: p.z += d; break;
      }
      return p;
    }
    case 4:  // on cell edges
      return Vec3{edge(), edge(), edge()};
    default:
      return Vec3{rng.uniform(-3.0, 3.0) * r, rng.uniform(-3.0, 3.0) * r,
                  rng.uniform(-3.0, 3.0) * r};
  }
}

/// Half the configs are small windows; the rest reach past the engine's
/// 1024-subslot bucket ring (windows into the thousands, cw_max below
/// cw_min, airtime above cw_max), so events wait out laps in their bucket
/// and the timeline jumps over laps with nothing due.
MacConfig draw_config(Rng& rng) {
  static constexpr double kReach[] = {150.0, 37.5, 0.3, 1.0 / 3.0, 1000.0};
  MacConfig cfg;
  cfg.enabled = true;
  cfg.cca_range = kReach[rng.uniform_int(std::size(kReach))];
  cfg.max_retries = static_cast<int>(rng.uniform_int(5));
  cfg.capture_ratio = 1.0 + static_cast<double>(rng.uniform_int(4));
  const auto draw = [&](int lo, int span) {
    return lo + static_cast<int>(
                    rng.uniform_int(static_cast<std::uint64_t>(span)));
  };
  switch (rng.uniform_int(4)) {
    case 0:  // wide doubling windows
      cfg.airtime_subslots = draw(1, 4);
      cfg.cw_min = draw(500, 4000);
      cfg.cw_max = cfg.cw_min << rng.uniform_int(4);
      break;
    case 1:  // cw_max pins the window below cw_min; airtime beyond both
      cfg.cw_max = draw(1, 3000);
      cfg.cw_min = cfg.cw_max + draw(1, 3000);
      cfg.airtime_subslots = cfg.cw_min + draw(1, 3000);
      break;
    default:
      cfg.airtime_subslots = draw(1, 4);
      cfg.cw_min = draw(1, 8);
      cfg.cw_max = 1 << rng.uniform_int(7);
      break;
  }
  return cfg;
}

/// A phase batch: a pool of senders, several frames each, toward other
/// senders (heads), a far sink, or points right at the reach of a sender.
std::vector<MacFrame> draw_batch(Rng& rng, double r) {
  const std::size_t senders = 1 + rng.uniform_int(40);
  std::vector<Vec3> pos;
  for (std::size_t s = 0; s < senders; ++s)
    pos.push_back(draw_sender(rng, r, pos));
  static constexpr double kLinkP[] = {1.0, 0.9, 0.5};
  std::vector<MacFrame> frames(1 + rng.uniform_int(3 * senders));
  for (std::size_t k = 0; k < frames.size(); ++k) {
    MacFrame& f = frames[k];
    const std::size_t s = rng.uniform_int(senders);
    f.src = static_cast<int>(s);
    f.tag = static_cast<std::uint32_t>(k);
    f.src_pos = pos[s];
    switch (rng.uniform_int(3)) {
      case 0: f.dst_pos = Vec3{0.0, 0.0, 4.0 * r}; break;
      case 1: f.dst_pos = draw_sender(rng, r, pos); break;
      default: f.dst_pos = pos[rng.uniform_int(senders)]; break;
    }
    f.link_p = kLinkP[rng.uniform_int(std::size(kLinkP))];
  }
  return frames;
}

ScriptedHost::Odds draw_odds(Rng& rng) {
  static constexpr double kOdds[] = {0.0, 0.05, 0.2};
  return {kOdds[rng.uniform_int(3)], kOdds[rng.uniform_int(3)],
          kOdds[rng.uniform_int(3)]};
}

/// Resolves the same phase on both engines, each with its own host on the
/// same schedule, and compares everything observable.
void expect_same_phase(GridMacEngine& oracle, MacEngine& engine,
                       const std::vector<MacFrame>& batch,
                       std::uint64_t host_seed, ScriptedHost::Odds odds,
                       const std::string& where) {
  std::vector<MacFrame> a = batch;
  std::vector<MacFrame> b = batch;
  ScriptedHost ha(host_seed, odds);
  ScriptedHost hb(host_seed, odds);
  oracle.resolve(a, ha);
  engine.resolve(b, hb);
  EXPECT_EQ(outcomes(a), outcomes(b)) << where;
  EXPECT_EQ(ha.calls, hb.calls) << where;
  EXPECT_EQ(oracle.totals(), engine.totals()) << where;
  EXPECT_EQ(oracle.last_phase_subslots(), engine.last_phase_subslots())
      << where;
}

/// The engines' next draws, read through one more phase: 64 isolated
/// senders on coin-flip links, so the initial backoffs (the timeline
/// length and backoff total) and every channel draw (each delivery) are
/// read off the stream.
std::vector<MacFrame> probe_batch(double r) {
  std::vector<MacFrame> frames(64);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    MacFrame& f = frames[k];
    f.src = static_cast<int>(k);
    f.tag = static_cast<std::uint32_t>(k);
    f.src_pos = Vec3{10.0 * r * static_cast<double>(k), 0.0, 0.0};
    f.dst_pos = f.src_pos;
    f.link_p = 0.5;
  }
  return frames;
}

TEST(MacEngineOracle, MatchesGridResolveOnRandomBatches) {
  MacCounters seen;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL);
    const MacConfig cfg = draw_config(rng);
    GridMacEngine oracle(cfg, seed);
    MacEngine engine(cfg, seed);
    // Several phases per engine pair, large and small, so per-phase
    // scratch is reused and the stream runs on across phases.
    for (int phase = 0; phase < 3; ++phase) {
      const std::vector<MacFrame> batch = draw_batch(rng, cfg.cca_range);
      const std::uint64_t host_seed = rng.next_u64();
      const ScriptedHost::Odds odds = draw_odds(rng);
      expect_same_phase(oracle, engine, batch, host_seed, odds,
                        "seed " + std::to_string(seed) + " phase " +
                            std::to_string(phase));
    }
    expect_same_phase(oracle, engine, probe_batch(cfg.cca_range), seed,
                      ScriptedHost::Odds{},
                      "seed " + std::to_string(seed) + " probe");
    if (::testing::Test::HasFailure()) return;
    seen += oracle.totals();
  }
  // The batches reached every branch the rewrite touched.
  EXPECT_GT(seen.cca_busy, 0u);
  EXPECT_GT(seen.collisions, 0u);
  EXPECT_GT(seen.capture_wins, 0u);
  EXPECT_GT(seen.retransmits, 0u);
  EXPECT_GT(seen.drop_collision, 0u);
  EXPECT_GT(seen.drop_sender_down, 0u);
  EXPECT_GT(seen.drop_target_down, 0u);
  EXPECT_GT(seen.drop_overflow, 0u);
}

TEST(MacEngineOracle, MatchesGridResolveAtTheReachBoundary) {
  // A hub with a sender exactly the reach away along every axis direction,
  // one just inside, co-located twins, and the hub itself, all sending to
  // the hub at once, repeatedly: every CCA and interference check sits on
  // the distance and cell boundaries. Reaches that are not exact binary
  // fractions put the cell box's float rounding in play. With the hub at
  // x = r, a sender a hair below x = 0 is within reach by the rounded
  // distance but one cell outside the grid's query box: not heard.
  for (const double r : {150.0, 0.3, 0.1, 1.0 / 3.0, 7.0}) {
    for (const Vec3 hub : {Vec3{0.0, 0.0, 0.0}, Vec3{-r, -2.0 * r, 3.0 * r},
                           Vec3{-0.7, 1.1, -2.9}, Vec3{r, 0.0, 0.0}}) {
      std::vector<Vec3> pos = {hub, hub};
      for (const double d : {r, -r}) {
        pos.push_back(hub + Vec3{d, 0.0, 0.0});
        pos.push_back(hub + Vec3{0.0, d, 0.0});
        pos.push_back(hub + Vec3{0.0, 0.0, d});
        pos.push_back(hub + Vec3{0.999 * d, 0.0, 0.0});
      }
      pos.push_back(Vec3{(hub.x - r) - 1e-17 * r, hub.y, hub.z});
      std::vector<MacFrame> batch;
      for (int copy = 0; copy < 3; ++copy) {
        for (std::size_t s = 0; s < pos.size(); ++s) {
          MacFrame f;
          f.src = static_cast<int>(s);
          f.tag = static_cast<std::uint32_t>(batch.size());
          f.src_pos = pos[s];
          f.dst_pos = hub;
          f.link_p = 0.9;
          batch.push_back(f);
        }
      }
      for (const int air : {1, 4}) {
        MacConfig cfg;
        cfg.enabled = true;
        cfg.cca_range = r;
        cfg.airtime_subslots = air;
        cfg.max_retries = 0;
        cfg.cw_min = 2;
        cfg.cw_max = 2;
        GridMacEngine oracle(cfg, 7);
        MacEngine engine(cfg, 7);
        const std::string where = "r " + std::to_string(r) + " air " +
                                  std::to_string(air);
        expect_same_phase(oracle, engine, batch, 11, ScriptedHost::Odds{},
                          where);
        expect_same_phase(oracle, engine, probe_batch(r), 13,
                          ScriptedHost::Odds{}, where + " probe");
      }
    }
  }
}

TEST(MacEngineOracle, InterferenceSumsInGridOrder) {
  // Three hidden interferers overlap one frame at its receiver. They go on
  // the air in batch order (A, C, B), but a grid walk adds B first: its
  // cell is one to the left. The capture ratio is set so that the two
  // summation orders fall on opposite sides of the capture threshold; the
  // engine must decide as the grid order does.
  constexpr double r = 100.0;
  const Vec3 rx{0.0, 0.0, 0.0};
  const auto pw = [&](const Vec3& p) {
    const double d = std::max(distance(p, rx), 1.0);
    return 1.0 / (d * d);
  };
  bool built = false;
  for (int trial = 0; trial < 200 && !built; ++trial) {
    // Every sender is within reach of the receiver and hidden from the
    // others, so all four start at subslot 0 and overlap fully.
    const double ra = (0.93 + 0.0003 * trial) * r;
    const Vec3 s{0.0, 0.0, -0.5 * r};
    const Vec3 a{ra, 0.0, 0.0};
    const Vec3 c{0.0, 0.92 * r, 0.0};
    const Vec3 b{-0.9 * r, 0.0, 0.0};
    const double air_order = (pw(a) + pw(c)) + pw(b);
    const double grid_order = (pw(b) + pw(a)) + pw(c);
    if (air_order == grid_order) continue;
    double ratio = pw(s) / grid_order;
    for (int step = 0; step < 8 && ratio * grid_order <= pw(s); ++step)
      ratio = std::nextafter(ratio, 2.0);
    for (int step = 0; step < 16 && ratio * grid_order > pw(s); ++step)
      ratio = std::nextafter(ratio, 0.0);
    // Captures in grid order, collides in air order, or the reverse.
    if ((ratio * grid_order <= pw(s)) == (ratio * air_order <= pw(s)))
      continue;
    built = true;

    MacConfig cfg;
    cfg.enabled = true;
    cfg.cca_range = r;
    cfg.capture_ratio = ratio;
    cfg.cw_min = 1;
    cfg.cw_max = 1;
    cfg.max_retries = 0;
    std::vector<MacFrame> batch;
    for (const Vec3& p : {s, a, c, b}) {
      MacFrame f;
      f.src = static_cast<int>(batch.size());
      f.tag = static_cast<std::uint32_t>(batch.size());
      f.src_pos = p;
      f.dst_pos = Vec3{0.0, 0.0, 10.0 * r};
      batch.push_back(f);
    }
    batch[0].dst_pos = rx;
    GridMacEngine oracle(cfg, 3);
    MacEngine engine(cfg, 3);
    expect_same_phase(oracle, engine, batch, 5, ScriptedHost::Odds{},
                      "trial " + std::to_string(trial));
    EXPECT_EQ(oracle.totals().capture_wins + oracle.totals().collisions, 1u)
        << "the probe frame must be the only interfered reception";
  }
  EXPECT_TRUE(built) << "no sender layout split the two summation orders";
}

TEST(MacEngine, DueEndsPlayBeforeDueStartsEachInPushOrder) {
  // Three isolated cells X, Y, Z; frames 0 and 2 share X, 1 and 4 share Y.
  // At subslot 0 frames 0, 1, 3 go on the air and 2, 4 hear a neighbour
  // and back off exactly one subslot (cw = 1). Subslot 1 then holds three
  // ends and two starts: the ends must play first, in push order, so the
  // medium is clear when 2 and 4 sense it.
  constexpr double r = 10.0;
  const Vec3 x{0.0, 0.0, 0.0}, y{1000.0, 0.0, 0.0}, z{2000.0, 0.0, 0.0};
  const std::pair<int, Vec3> senders[] = {{0, x}, {2, y}, {1, x}, {4, z},
                                          {3, y}};
  std::vector<MacFrame> batch;
  for (const auto& [src, pos] : senders) {
    MacFrame f;
    f.src = src;
    f.tag = static_cast<std::uint32_t>(batch.size());
    f.src_pos = pos;
    f.dst_pos = pos;
    batch.push_back(f);
  }
  MacConfig cfg;
  cfg.enabled = true;
  cfg.cca_range = r;
  cfg.airtime_subslots = 1;
  cfg.cw_min = 1;
  cfg.cw_max = 1;
  cfg.max_retries = 1;

  std::vector<MacFrame> frames = batch;
  ScriptedHost host(1, ScriptedHost::Odds{});
  MacEngine engine(cfg, 9);
  engine.resolve(frames, host);
  using C = ScriptedHost::Call;
  const auto start = [](std::uint32_t k) {
    return std::vector<C>{{'u', k, 1}, {'a', k, 0}};
  };
  const auto end = [](std::uint32_t k) {
    return std::vector<C>{{'l', k, 1}, {'d', k, 1}, {'f', k, 1}};
  };
  std::vector<C> want;
  for (const auto& part :
       {start(0), start(1), {C{'u', 2, 1}}, start(3), {C{'u', 4, 1}},
        end(0), end(1), end(3), start(2), start(4), end(2), end(4)})
    want.insert(want.end(), part.begin(), part.end());
  EXPECT_EQ(host.calls, want);
  EXPECT_EQ(engine.totals().cca_busy, 2u);
  EXPECT_EQ(engine.totals().tx_attempts, 5u);
  EXPECT_EQ(engine.last_phase_subslots(), 2);
  for (const MacFrame& f : frames) EXPECT_TRUE(f.delivered) << f.tag;

  GridMacEngine oracle(cfg, 9);
  MacEngine again(cfg, 9);
  expect_same_phase(oracle, again, batch, 1, ScriptedHost::Odds{}, "script");
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
