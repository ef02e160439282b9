// Property battery for the terrain-aware environment subsystem (sim/env,
// DESIGN.md §16): occlusion symmetry and grid-vs-brute bit-identity on
// randomized worlds, attenuation monotonicity, the zero-obstruction
// byte-identity leg of the digest contract, water/harvest math, BsTrajectory
// determinism across reruns and ExecPolicy, harvest-credit ledger
// reconciliation (fault storms included), and the moved-BS rerouting
// regression for the QlecRouter.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/qlec_routing.hpp"
#include "energy/ledger.hpp"
#include "sim/env/env.hpp"
#include "sim/env/trajectory.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace qlec {
namespace {

constexpr double kSide = 200.0;

Vec3 random_point(Rng& rng) {
  return {rng.uniform(0.0, kSide), rng.uniform(0.0, kSide),
          rng.uniform(0.0, kSide)};
}

/// A randomized obstacle course; `n_obstacles` >= 9 engages the spatial
/// grid inside Environment, below stays on the brute scan.
EnvConfig random_world(Rng& rng, std::size_t n_obstacles) {
  EnvConfig cfg;
  cfg.enabled = true;
  cfg.atten_per_unit = rng.uniform(0.005, 0.05);
  for (std::size_t i = 0; i < n_obstacles; ++i) {
    const Vec3 lo = {rng.uniform(0.0, kSide - 30.0),
                     rng.uniform(0.0, kSide - 30.0),
                     rng.uniform(0.0, kSide - 30.0)};
    const Vec3 hi = {lo.x + rng.uniform(5.0, 30.0),
                     lo.y + rng.uniform(5.0, 30.0),
                     lo.z + rng.uniform(5.0, 30.0)};
    cfg.obstacles.push_back(
        EnvObstacle{Aabb{lo, hi}, rng.uniform(0.0, 0.02)});
  }
  if (rng.bernoulli(0.5))
    cfg.terrain = EnvTerrain{true, 0.25, 0.5};
  if (rng.bernoulli(0.5))
    cfg.water = EnvWater{true, 0.8, 0.01, 0.005};
  return cfg;
}

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 40;
  cfg.sim.rounds = 8;
  cfg.sim.slots_per_round = 8;
  cfg.sim.trace.record = true;
  cfg.seeds = 2;
  cfg.base_seed = 42;
  cfg.protocol.qlec.total_rounds = 8;
  return cfg;
}

std::vector<std::string> digests(const std::string& protocol,
                                 const ExperimentConfig& cfg,
                                 const ExecPolicy& exec =
                                     ExecPolicy::serial()) {
  std::vector<std::string> out;
  for (const SimResult& r : run_replications(protocol, cfg, exec))
    out.push_back(trace_digest_hex(r.trace));
  return out;
}

// ---- occlusion geometry ----

TEST(Env, OcclusionSymmetryBitExact) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    const Environment env(random_world(rng, 12), Aabb::cube(kSide));
    for (int i = 0; i < 200; ++i) {
      const Vec3 a = random_point(rng);
      const Vec3 b = random_point(rng);
      // Bit-for-bit, not approximate: endpoints are canonicalized before
      // any float math, so both directions run the identical arithmetic.
      EXPECT_EQ(env.obstruction_depth(a, b), env.obstruction_depth(b, a));
      EXPECT_EQ(env.link_factor(a, b), env.link_factor(b, a));
      EXPECT_EQ(env.blocked(a, b), env.blocked(b, a));
      EXPECT_EQ(env.tx_amp_factor(a, b), env.tx_amp_factor(b, a));
    }
  }
}

TEST(Env, GridMatchesBruteForceOnRandomWorlds) {
  for (const std::uint64_t seed : {11ull, 12ull}) {
    Rng rng(seed);
    // 40 obstacles is far past the grid-build threshold.
    const Environment env(random_world(rng, 40), Aabb::cube(kSide));
    for (int i = 0; i < 300; ++i) {
      const Vec3 a = random_point(rng);
      const Vec3 b = random_point(rng);
      EXPECT_EQ(env.obstruction_depth(a, b),
                env.obstruction_depth_brute(a, b))
          << "grid-accelerated occlusion diverged from the oracle";
    }
  }
}

TEST(Env, AttenuationMonotonicInObstructionDepth) {
  EnvConfig cfg;
  cfg.enabled = true;
  cfg.atten_per_unit = 0.05;
  cfg.obstacles.push_back(
      EnvObstacle{Aabb{{100, 0, 0}, {140, 200, 200}}, 0.0});
  const Environment env(cfg, Aabb::cube(kSide));
  const Vec3 src{90, 50, 50};
  double prev_factor = 1.0;
  double prev_depth = 0.0;
  for (const double x : {105.0, 115.0, 130.0, 150.0}) {
    const Vec3 dst{x, 50, 50};
    const double depth = env.obstruction_depth(src, dst);
    const double factor = env.link_factor(src, dst);
    EXPECT_GT(depth, prev_depth);
    EXPECT_LT(factor, prev_factor);
    EXPECT_NEAR(factor, std::exp(-cfg.atten_per_unit * depth), 1e-12);
    prev_depth = depth;
    prev_factor = factor;
  }
  // A clean line of sight (in front of the slab) is exactly 1.0.
  EXPECT_EQ(env.link_factor(src, Vec3{95, 50, 50}), 1.0);
}

TEST(Env, SeverDepthBlocksOutright) {
  EnvConfig cfg;
  cfg.enabled = true;
  cfg.atten_per_unit = 0.01;
  cfg.sever_depth = 30.0;
  cfg.obstacles.push_back(
      EnvObstacle{Aabb{{80, 0, 0}, {160, 200, 200}}, 0.0});
  const Environment env(cfg, Aabb::cube(kSide));
  const Vec3 a{70, 100, 100};
  EXPECT_FALSE(env.blocked(a, Vec3{100, 100, 100}));  // 20 units deep
  EXPECT_TRUE(env.blocked(a, Vec3{120, 100, 100}));   // 40 units deep
  EXPECT_EQ(env.link_factor(a, Vec3{120, 100, 100}), 0.0);
}

TEST(Env, WaterColumnAttenuatesAndScalesAmp) {
  EnvConfig cfg;
  cfg.enabled = true;
  cfg.water = EnvWater{true, 0.5, 0.01, 0.02};  // surface at z = 100
  const Environment env(cfg, Aabb::cube(kSide));
  EXPECT_DOUBLE_EQ(env.water_surface_z(), 100.0);
  // Fully submerged link: attenuated, amp-scaled by the mean depth.
  const Vec3 a{50, 50, 40};
  const Vec3 b{150, 50, 40};
  EXPECT_LT(env.link_factor(a, b), 1.0);
  EXPECT_NEAR(env.tx_amp_factor(a, b), 1.0 + 0.02 * 60.0, 1e-12);
  // Fully above the surface: untouched.
  const Vec3 c{50, 50, 150};
  const Vec3 d{150, 50, 150};
  EXPECT_EQ(env.link_factor(c, d), 1.0);
  EXPECT_EQ(env.tx_amp_factor(c, d), 1.0);
}

TEST(Env, HarvestRateDecaysWithDepthToFloor) {
  EnvConfig cfg;
  cfg.enabled = true;
  cfg.water = EnvWater{true, 1.0, 0.0, 0.0};  // surface at the domain top
  cfg.harvest = EnvHarvest{0.02, 0.05, 0.1};
  const Environment env(cfg, Aabb::cube(kSide));
  const double at_surface = env.harvest_rate(Vec3{100, 100, 200});
  const double shallow = env.harvest_rate(Vec3{100, 100, 180});
  const double deep = env.harvest_rate(Vec3{100, 100, 10});
  EXPECT_DOUBLE_EQ(at_surface, 0.02);
  EXPECT_LT(shallow, at_surface);
  EXPECT_GT(shallow, deep);
  // 190 units down, exp(-9.5) is far below the 10% floor.
  EXPECT_DOUBLE_EQ(deep, 0.02 * 0.1);
}

// ---- the digest contract ----

TEST(Env, ZeroObstructionWorldByteIdenticalToDisabled) {
  ExperimentConfig off = small_config();
  ExperimentConfig on = off;
  on.sim.env.enabled = true;  // no obstacles, terrain, water, or harvest
  for (const std::string protocol : {"qlec", "leach", "qelar"}) {
    EXPECT_EQ(digests(protocol, off), digests(protocol, on))
        << protocol
        << ": an empty enabled environment must be value-neutral";
  }
}

TEST(Env, ObstructedWorldChangesTheTraceButStaysDeterministic) {
  ExperimentConfig cfg = small_config();
  ExperimentConfig world = cfg;
  world.sim.env.enabled = true;
  world.sim.env.atten_per_unit = 0.02;
  world.sim.env.obstacles.push_back(
      EnvObstacle{Aabb{{40, 40, 0}, {120, 120, 160}}, 0.0});
  const auto a = digests("qlec", world);
  EXPECT_NE(digests("qlec", cfg), a) << "the obstacle course must bite";
  EXPECT_EQ(digests("qlec", world), a) << "reruns must replay exactly";
}

TEST(Env, EnvWorldInvariantAcrossPolicies) {
  ExperimentConfig world = small_config();
  world.sim.env.enabled = true;
  world.sim.env.atten_per_unit = 0.015;
  world.sim.env.terrain = EnvTerrain{true, 0.25, 0.5};
  world.sim.env.obstacles.push_back(
      EnvObstacle{Aabb{{20, 100, 0}, {180, 140, 120}}, 0.01});
  EXPECT_EQ(digests("qlec", world, ExecPolicy::pool(4)),
            digests("qlec", world));
}

TEST(Env, FullStackWorldWithOrbitingSinkReplaysUnderAudit) {
  // The whole environment stack at once: terrain + obstacle occlusion,
  // underwater amp scaling, depth-decayed harvesting and an orbiting sink,
  // on top of the throwing auditor (a violation fails the run).
  ExperimentConfig cfg = small_config();
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;
  cfg.sim.env.enabled = true;
  cfg.sim.env.atten_per_unit = 0.015;
  cfg.sim.env.sever_depth = 120.0;
  cfg.sim.env.obstacles.push_back(
      EnvObstacle{Aabb{{40, 40, 0}, {120, 120, 160}}, 0.01});
  cfg.sim.env.terrain = EnvTerrain{true, 0.25, 0.5};
  cfg.sim.env.water = EnvWater{true, 0.9, 0.002, 0.005};
  cfg.sim.env.harvest = EnvHarvest{0.01, 0.02, 0.1};
  cfg.sim.bs_trajectory.kind = TrajectoryKind::kOrbit;
  cfg.sim.bs_trajectory.orbit_center = {100, 100, 190};
  cfg.sim.bs_trajectory.orbit_radius = 60.0;
  cfg.sim.bs_trajectory.orbit_period = 4;
  for (const std::string protocol : {"qlec", "leach"}) {
    const auto base = digests(protocol, cfg);
    EXPECT_EQ(digests(protocol, cfg), base) << protocol << ": rerun";
    EXPECT_EQ(digests(protocol, cfg, ExecPolicy::pool(2)), base)
        << protocol << ": seed fan-out";
  }
}

// ---- BsTrajectory ----

TEST(Trajectory, WaypointWalkIsExactAndLoops) {
  BsTrajectoryConfig cfg;
  cfg.kind = TrajectoryKind::kWaypoint;
  cfg.waypoints = {{100, 0, 0}, {100, 100, 0}};
  cfg.speed = 50.0;
  const Vec3 anchor{0, 0, 0};
  {
    const BsTrajectory t(cfg, anchor);
    EXPECT_EQ(t.position(0), anchor);                 // starts at the anchor
    EXPECT_EQ(t.position(1), (Vec3{50, 0, 0}));       // halfway up leg 1
    EXPECT_EQ(t.position(2), (Vec3{100, 0, 0}));      // waypoint 0
    EXPECT_EQ(t.position(3), (Vec3{100, 50, 0}));     // halfway up leg 2
    EXPECT_EQ(t.position(4), (Vec3{100, 100, 0}));    // parked at the end
    EXPECT_EQ(t.position(9), (Vec3{100, 100, 0}));    // still parked
  }
  cfg.loop = true;  // closed patrol: ... -> back toward the anchor
  {
    const BsTrajectory t(cfg, anchor);
    // Total loop length: 100 + 100 + sqrt(100^2 + 100^2) ~ 341.4.
    EXPECT_EQ(t.position(4), (Vec3{100, 100, 0}));
    const Vec3 late = t.position(6);  // s = 300, on the return diagonal
    EXPECT_LT(late.x, 100.0);
    EXPECT_LT(late.y, 100.0);
    EXPECT_GT(late.x, 0.0);
    EXPECT_EQ(late.x, late.y);  // the diagonal heads straight at the anchor
  }
}

TEST(Trajectory, OrbitIsPeriodicAndOnTheCircle) {
  BsTrajectoryConfig cfg;
  cfg.kind = TrajectoryKind::kOrbit;
  cfg.orbit_center = {100, 100, 200};
  cfg.orbit_radius = 70.0;
  cfg.orbit_period = 6;
  const BsTrajectory t(cfg, Vec3{100, 100, 200});
  for (int r = 0; r < 12; ++r) {
    const Vec3 p = t.position(r);
    EXPECT_NEAR(distance(p, cfg.orbit_center), 70.0, 1e-9) << r;
    EXPECT_EQ(p, t.position(r + 6)) << "orbit must be exactly periodic";
    EXPECT_EQ(p, t.position(r)) << "position must be a pure function";
  }
  EXPECT_EQ(t.position(0), (Vec3{170, 100, 200}));  // theta = 0
}

TEST(Trajectory, MobileSinkDeterministicAcrossPolicies) {
  ExperimentConfig world = small_config();
  world.sim.bs_trajectory.kind = TrajectoryKind::kOrbit;
  world.sim.bs_trajectory.orbit_center = {100, 100, 200};
  world.sim.bs_trajectory.orbit_radius = 70.0;
  world.sim.bs_trajectory.orbit_period = 4;
  const auto base = digests("qlec", world);
  EXPECT_NE(digests("qlec", small_config()), base)
      << "the orbiting sink must change the trace";
  EXPECT_EQ(digests("qlec", world, ExecPolicy::pool(4)), base);
  EXPECT_EQ(digests("qlec", world), base) << "reruns must replay exactly";
}

// ---- harvest credit books ----

TEST(Env, HarvestCreditsReconcileInLedger) {
  ExperimentConfig cfg = small_config();
  cfg.scenario.initial_energy = 1.0;
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;
  cfg.sim.env.enabled = true;
  cfg.sim.env.terrain = EnvTerrain{true, 0.25, 0.5};
  cfg.sim.env.harvest = EnvHarvest{0.02, 0.05, 0.1};
  for (const SimResult& r : run_replications("qlec", cfg)) {
    EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
    // The credit bucket filled, and total() stayed drain-side only.
    const double harvested = r.energy.by_use(EnergyUse::kHarvest);
    EXPECT_GT(harvested, 0.0);
    double drains = 0.0;
    for (int u = 0; u < static_cast<int>(EnergyUse::kCount_); ++u)
      if (static_cast<EnergyUse>(u) != EnergyUse::kHarvest)
        drains += r.energy.by_use(static_cast<EnergyUse>(u));
    EXPECT_NEAR(drains, r.energy.total(), 1e-9 * std::max(1.0, drains));
  }
}

TEST(Env, HarvestCreditsReconcileUnderFaultStorm) {
  ExperimentConfig cfg = small_config();
  cfg.scenario.initial_energy = 1.0;
  cfg.sim.audit.enabled = true;
  cfg.sim.env.enabled = true;
  cfg.sim.env.harvest = EnvHarvest{0.02, 0.0, 0.0};
  cfg.sim.harvest_per_round = 0.005;  // both harvest paths at once
  cfg.sim.fault.enabled = true;
  cfg.sim.fault.hazards.crash_per_node = 0.01;
  cfg.sim.fault.hazards.stun_per_node = 0.02;
  cfg.sim.fault.hazards.stun_rounds = 2;
  cfg.sim.fault.hazards.fade_per_node = 0.01;
  cfg.sim.fault.hazards.fade_fraction = 0.1;
  cfg.sim.fault.hazards.degrade_episode = 0.1;
  cfg.sim.fault.hazards.degrade_rounds = 2;
  cfg.sim.fault.hazards.degrade_factor = 0.5;
  for (const SimResult& r : run_replications("qlec", cfg)) {
    EXPECT_TRUE(r.audit.ok()) << r.audit.summary();
    EXPECT_GT(r.energy.by_use(EnergyUse::kHarvest), 0.0);
  }
}

// ---- the BsPlacement x trajectory seam ----

TEST(QlecRouterSink, MovedBsReroutesByFreshDistances) {
  // choose_target prices the direct-to-BS action by y(src, BS), read from
  // the sink's current position. A trajectory moves the sink at the round
  // boundary, so the new round MUST route by the new distance — anything
  // that kept the old one would keep routing toward where the BS used to
  // be.
  Rng rng(5);
  ScenarioConfig sc;
  sc.n = 20;
  sc.bs = BsPlacement::kCorner;  // BS starts far away at (200, 200, 200)
  Network net = make_uniform_network(sc, rng);
  // Deterministic geometry: the head sits 5 units from src, the corner BS
  // ~340 away — priced by the old distance the head wins, by the new one
  // the co-located BS must.
  const int src = 0;
  const int head = 1;
  net.node(src).pos = {5, 5, 5};
  net.node(head).pos = {10, 5, 5};
  net.node(head).is_head = true;
  QlecParams params;
  params.epsilon = 0.0;  // greedy: the argmax is deterministic
  // Zero the Eq. 19 direct-BS penalty: it is an additive constant that
  // would mask the y(src, BS) distance term this regression is probing.
  params.l = 0.0;
  QlecRouter router(params, RadioModel{}, net.size());
  const double bits = 4000.0;

  // Round 0: route once under the far-corner BS geometry.
  router.begin_round({head});
  (void)router.choose_target(net, src, bits, rng);

  // The sink lands right on top of src; round 1 begins.
  net.set_bs(net.node(src).pos);
  router.begin_round({head});
  const int chosen = router.choose_target(net, src, bits, rng);

  // Per-action oracle: with the BS co-located, direct uplink dominates.
  EXPECT_GT(router.q_value(net, src, kBaseStationId, bits),
            router.q_value(net, src, head, bits));
  EXPECT_EQ(chosen, kBaseStationId)
      << "choose_target routed by the sink's previous position";
}

}  // namespace
}  // namespace qlec
