// Property battery for the schema binding: serialize -> parse must be the
// identity over the representable config space. 200+ randomized
// ExperimentConfigs (seeded Rng, every enum corner, nested fault plans and
// telemetry blocks) plus targeted corners the fuzzer would only hit by
// luck.
#include "config/schema.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "digest.hpp"
#include "util/rng.hpp"

namespace qlec::config {
namespace {

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  auto it = values.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(
                       rng.uniform_int(std::uint64_t{values.size()})));
  return *it;
}

FaultEvent random_event(Rng& rng) {
  FaultEvent e;
  e.kind = pick(rng, {FaultKind::kCrash, FaultKind::kStun,
                      FaultKind::kBlackout, FaultKind::kLinkDegrade,
                      FaultKind::kBsOutage, FaultKind::kBatteryFade});
  e.round = static_cast<int>(rng.uniform_int(std::uint64_t{50}));
  e.node = static_cast<int>(rng.uniform_int(std::int64_t{-1}, 99));
  e.duration = static_cast<int>(rng.uniform_int(std::uint64_t{10}));
  e.severity = rng.uniform01();
  e.permanent = rng.bernoulli(0.5);
  e.region = Aabb{{rng.uniform(0, 50), rng.uniform(0, 50), 0.0},
                  {rng.uniform(50, 200), rng.uniform(50, 200), 200.0}};
  return e;
}

/// Every field gets a randomized (but in-domain) value so a field the
/// writer or reader skips cannot hide behind its default.
ExperimentConfig random_config(Rng& rng) {
  ExperimentConfig c;
  c.scenario.n = 1 + rng.uniform_int(std::uint64_t{1000});
  c.scenario.m_side = rng.uniform(1.0, 500.0);
  c.scenario.initial_energy = rng.uniform(0.0, 10.0);
  c.scenario.energy_heterogeneity = rng.uniform01();
  c.scenario.bs = pick(rng, {BsPlacement::kCenter, BsPlacement::kTopFaceCenter,
                             BsPlacement::kCorner, BsPlacement::kExternal});

  c.sim.rounds = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{100}));
  c.sim.slots_per_round =
      1 + static_cast<int>(rng.uniform_int(std::uint64_t{40}));
  c.sim.mean_interarrival = rng.uniform(-1.0, 16.0);
  c.sim.packet_bits = rng.uniform(1.0, 8000.0);
  c.sim.queue_capacity = 1 + rng.uniform_int(std::uint64_t{64});
  c.sim.service_per_slot =
      static_cast<int>(rng.uniform_int(std::uint64_t{16}));
  c.sim.compression = rng.uniform01();
  c.sim.aggregation =
      pick(rng, {Aggregation::kRatioCompress, Aggregation::kFixedSummary});
  c.sim.death_line = rng.uniform(0.0, 0.1);
  c.sim.max_retries = static_cast<int>(rng.uniform_int(std::uint64_t{5}));
  c.sim.radio.e_elec = rng.uniform(1e-9, 100e-9);
  c.sim.radio.e_da = rng.uniform(1e-9, 10e-9);
  c.sim.radio.eps_fs = rng.uniform(1e-12, 20e-12);
  c.sim.radio.eps_mp = rng.uniform(1e-16, 1e-14);
  c.sim.link.d_ref = rng.uniform(10.0, 400.0);
  c.sim.link.p_floor = rng.uniform01();
  c.sim.link.bs_reliability_factor = rng.uniform01();
  c.sim.mobility.kind = pick(rng, {MobilityKind::kNone,
                                   MobilityKind::kRandomWalk,
                                   MobilityKind::kRandomWaypoint});
  c.sim.mobility.speed = rng.uniform(0.0, 20.0);
  c.sim.mobility.arrival_tolerance = rng.uniform(0.1, 5.0);
  c.sim.harvest_per_round = rng.uniform(0.0, 0.01);
  c.sim.idle_listen_j_per_slot = rng.uniform(0.0, 1e-6);
  c.sim.audit.enabled = rng.bernoulli(0.5);
  c.sim.audit.throw_on_violation = rng.bernoulli(0.5);
  c.sim.trace.record = rng.bernoulli(0.5);
  c.sim.trace.stop_at_first_death = rng.bernoulli(0.5);

  c.sim.fault.enabled = rng.bernoulli(0.5);
  c.sim.fault.seed = rng.uniform_int(std::uint64_t{1} << 53);
  const std::size_t events = rng.uniform_int(std::uint64_t{4});
  for (std::size_t i = 0; i < events; ++i)
    c.sim.fault.plan.events.push_back(random_event(rng));
  c.sim.fault.hazards.crash_per_node = rng.uniform01();
  c.sim.fault.hazards.stun_per_node = rng.uniform01();
  c.sim.fault.hazards.stun_rounds =
      static_cast<int>(rng.uniform_int(std::uint64_t{6}));
  c.sim.fault.hazards.fade_per_node = rng.uniform01();
  c.sim.fault.hazards.fade_fraction = rng.uniform01();
  c.sim.fault.hazards.degrade_episode = rng.uniform01();
  c.sim.fault.hazards.degrade_rounds =
      static_cast<int>(rng.uniform_int(std::uint64_t{6}));
  c.sim.fault.hazards.degrade_factor = rng.uniform01();
  c.sim.fault.hazards.bs_outage = rng.uniform01();
  c.sim.fault.hazards.bs_outage_rounds =
      static_cast<int>(rng.uniform_int(std::uint64_t{4}));

  c.sim.mac.enabled = rng.bernoulli(0.5);
  c.sim.mac.seed = rng.uniform_int(std::uint64_t{1} << 53);
  c.sim.mac.airtime_subslots =
      1 + static_cast<int>(rng.uniform_int(std::uint64_t{8}));
  c.sim.mac.cca_range = rng.uniform(1.0, 500.0);
  c.sim.mac.capture_ratio = rng.uniform(1.0, 10.0);
  c.sim.mac.max_retries = static_cast<int>(rng.uniform_int(std::uint64_t{8}));
  c.sim.mac.cw_min = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{16}));
  c.sim.mac.cw_max = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{128}));
  c.sim.mac.duty_cycle = rng.uniform(0.01, 1.0);
  c.sim.mac.idle_j_per_subslot = rng.uniform(0.0, 1e-3);

  c.sim.telemetry.enabled = rng.bernoulli(0.5);
  c.sim.telemetry.sink = pick(rng, {obs::TelemetryOptions::Sink::kNull,
                                    obs::TelemetryOptions::Sink::kRing,
                                    obs::TelemetryOptions::Sink::kFile});
  c.sim.telemetry.events_path =
      rng.bernoulli(0.5) ? "ev \"quoted\"\n.jsonl" : "";
  c.sim.telemetry.ring_capacity = 1 + rng.uniform_int(std::uint64_t{8192});
  c.sim.telemetry.per_packet_events = rng.bernoulli(0.5);
  c.sim.telemetry.trace_phases = rng.bernoulli(0.5);
  c.sim.telemetry.trace_path = rng.bernoulli(0.5) ? "trace.json" : "";
  c.sim.telemetry.metrics_path = rng.bernoulli(0.5) ? "metrics.json" : "";

  c.sim.env.enabled = rng.bernoulli(0.5);
  c.sim.env.atten_per_unit = rng.uniform(0.0, 0.1);
  c.sim.env.sever_depth = rng.uniform(0.0, 200.0);
  const std::size_t obstacles = rng.uniform_int(std::uint64_t{4});
  for (std::size_t i = 0; i < obstacles; ++i) {
    EnvObstacle o;
    o.box = Aabb{{rng.uniform(0, 100), rng.uniform(0, 100),
                  rng.uniform(0, 100)},
                 {rng.uniform(100, 200), rng.uniform(100, 200),
                  rng.uniform(100, 200)}};
    o.extra_atten = rng.uniform(0.0, 0.05);
    c.sim.env.obstacles.push_back(o);
  }
  c.sim.env.terrain.enabled = rng.bernoulli(0.5);
  c.sim.env.terrain.amplitude_frac = rng.uniform(0.0, 1.0);
  c.sim.env.terrain.base_frac = rng.uniform01();
  c.sim.env.water.enabled = rng.bernoulli(0.5);
  c.sim.env.water.surface_frac = rng.uniform01();
  c.sim.env.water.alpha_per_unit = rng.uniform(0.0, 0.05);
  c.sim.env.water.amp_depth_scale = rng.uniform(0.0, 0.05);
  c.sim.env.harvest.per_round = rng.uniform(0.0, 0.1);
  c.sim.env.harvest.depth_decay = rng.uniform(0.0, 0.2);
  c.sim.env.harvest.min_factor = rng.uniform01();

  c.sim.bs_trajectory.kind =
      pick(rng, {TrajectoryKind::kNone, TrajectoryKind::kWaypoint,
                 TrajectoryKind::kOrbit});
  const std::size_t waypoints = rng.uniform_int(std::uint64_t{5});
  for (std::size_t i = 0; i < waypoints; ++i)
    c.sim.bs_trajectory.waypoints.push_back(
        {rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(0, 200)});
  c.sim.bs_trajectory.speed = rng.uniform(0.0, 50.0);
  c.sim.bs_trajectory.loop = rng.bernoulli(0.5);
  c.sim.bs_trajectory.orbit_center = {rng.uniform(0, 200),
                                      rng.uniform(0, 200),
                                      rng.uniform(0, 200)};
  c.sim.bs_trajectory.orbit_radius = rng.uniform(0.0, 100.0);
  c.sim.bs_trajectory.orbit_period =
      1 + static_cast<int>(rng.uniform_int(std::uint64_t{12}));

  c.protocol.name = pick<std::string>(
      rng, {"qlec", "kmeans", "fcm", "leach", "deec", "heed", "ideec",
            "tl-leach", "qelar", "direct", "q-leach", "reech-me",
            "leach-rlc"});
  c.protocol.qlec.gamma = rng.uniform01();
  c.protocol.qlec.alpha1 = rng.uniform(-2.0, 2.0);
  c.protocol.qlec.alpha2 = rng.uniform(-2.0, 2.0);
  c.protocol.qlec.beta1 = rng.uniform(-2.0, 2.0);
  c.protocol.qlec.beta2 = rng.uniform(-2.0, 2.0);
  c.protocol.qlec.compression = rng.uniform01();
  c.protocol.qlec.g = rng.uniform(0.0, 1.0);
  c.protocol.qlec.l = rng.uniform(0.0, 1000.0);
  c.protocol.qlec.epsilon = rng.uniform01();
  c.protocol.qlec.x_scale = rng.uniform(-1.0, 10.0);
  c.protocol.qlec.y_scale = rng.uniform(-1.0, 10.0);
  c.protocol.qlec.y_scale_bs = rng.uniform(-1.0, 10.0);
  c.protocol.qlec.x_bs = rng.uniform(0.0, 2.0);
  c.protocol.qlec.total_rounds =
      1 + static_cast<int>(rng.uniform_int(std::uint64_t{100}));
  c.protocol.qlec.use_energy_threshold = rng.bernoulli(0.5);
  c.protocol.qlec.reduce_redundancy = rng.bernoulli(0.5);
  c.protocol.qlec.top_up_to_k = rng.bernoulli(0.5);
  c.protocol.qlec.hello_bits = rng.uniform(0.0, 500.0);
  c.protocol.qlec.force_k = static_cast<int>(rng.uniform_int(std::uint64_t{20}));
  c.protocol.k = rng.uniform_int(std::uint64_t{20});
  c.protocol.fcm_levels =
      1 + static_cast<int>(rng.uniform_int(std::uint64_t{5}));
  c.protocol.death_line = rng.uniform(0.0, 0.1);
  c.protocol.hello_bits = rng.uniform(0.0, 500.0);
  c.protocol.radio.eps_mp = rng.uniform(1e-16, 1e-14);
  c.protocol.sector_mode =
      pick(rng, {SectorMode::kQuadrant, SectorMode::kOctant});
  c.protocol.controller.kind =
      pick(rng, {ControllerKind::kRlLite, ControllerKind::kPassthrough});
  c.protocol.controller.alpha = rng.uniform01();
  c.protocol.controller.gamma = rng.uniform01();
  c.protocol.controller.epsilon = rng.uniform01();

  c.seeds = 1 + rng.uniform_int(std::uint64_t{16});
  c.base_seed = rng.uniform_int(std::uint64_t{1} << 53);
  c.deployment = pick(rng, {Deployment::kUniform, Deployment::kTerrain});
  return c;
}

TEST(ConfigRoundTrip, DefaultConfigSurvives) {
  const ExperimentConfig def;
  EXPECT_EQ(parse_experiment(experiment_to_json(def)), def);
}

TEST(ConfigRoundTrip, EmptyDocumentYieldsAllDefaults) {
  // Absent fields keep the compiled defaults (backward compatibility).
  EXPECT_EQ(parse_experiment("{}"), ExperimentConfig{});
}

TEST(ConfigRoundTrip, TwoHundredRandomConfigs) {
  Rng rng(20260807);
  std::string texts;
  for (int i = 0; i < 220; ++i) {
    const ExperimentConfig cfg = random_config(rng);
    const std::string text = experiment_to_json(cfg);
    texts += text;
    ExperimentConfig back;
    ASSERT_NO_THROW(back = parse_experiment(text)) << "case " << i << "\n"
                                                   << text;
    EXPECT_EQ(back, cfg) << "case " << i << "\n" << text;
    // And the serialization itself is a fixed point.
    EXPECT_EQ(experiment_to_json(back), text) << "case " << i;
  }
  // The writer's bytes themselves, field order and number format included.
  EXPECT_EQ(texts.size(), 905890u);
  EXPECT_EQ(test::fnv1a64_hex(texts), "ab160aa94334ba28");
}

TEST(ConfigRoundTrip, EnumCornersAllSurvive) {
  ExperimentConfig cfg;
  for (const auto bs : {BsPlacement::kCenter, BsPlacement::kTopFaceCenter,
                        BsPlacement::kCorner, BsPlacement::kExternal}) {
    for (const auto agg :
         {Aggregation::kRatioCompress, Aggregation::kFixedSummary}) {
      for (const auto mob : {MobilityKind::kNone, MobilityKind::kRandomWalk,
                             MobilityKind::kRandomWaypoint}) {
        for (const auto sink : {obs::TelemetryOptions::Sink::kNull,
                                obs::TelemetryOptions::Sink::kRing,
                                obs::TelemetryOptions::Sink::kFile}) {
          for (const auto dep :
               {Deployment::kUniform, Deployment::kTerrain}) {
            cfg.scenario.bs = bs;
            cfg.sim.aggregation = agg;
            cfg.sim.mobility.kind = mob;
            cfg.sim.telemetry.sink = sink;
            cfg.deployment = dep;
            EXPECT_EQ(parse_experiment(experiment_to_json(cfg)), cfg);
          }
        }
      }
    }
  }
}

TEST(ConfigRoundTrip, AllFaultKindsSurvive) {
  ExperimentConfig cfg;
  for (const auto kind :
       {FaultKind::kCrash, FaultKind::kStun, FaultKind::kBlackout,
        FaultKind::kLinkDegrade, FaultKind::kBsOutage,
        FaultKind::kBatteryFade}) {
    FaultEvent e;
    e.kind = kind;
    e.round = 3;
    e.node = 7;
    e.severity = 0.25;
    cfg.sim.fault.plan.events.push_back(e);
  }
  cfg.sim.fault.enabled = true;
  EXPECT_EQ(parse_experiment(experiment_to_json(cfg)), cfg);
}

TEST(ConfigRoundTrip, ExtremeRepresentableIntegersSurvive) {
  ExperimentConfig cfg;
  cfg.base_seed = (std::uint64_t{1} << 53);  // largest exact seed
  cfg.sim.fault.seed = (std::uint64_t{1} << 53) - 1;
  cfg.seeds = 1;
  cfg.scenario.n = 1;
  EXPECT_EQ(parse_experiment(experiment_to_json(cfg)), cfg);
}

TEST(ConfigRoundTrip, PathologicalStringsSurviveEscaping) {
  ExperimentConfig cfg;
  cfg.sim.telemetry.events_path = "a\"b\\c\nd\te\x01f/unicode\xC3\xA9";
  cfg.sim.telemetry.trace_path = std::string("nul\0byte-free", 3);
  EXPECT_EQ(parse_experiment(experiment_to_json(cfg)), cfg);
}

TEST(ConfigRoundTrip, TrajectoryKindCornersSurvive) {
  for (const auto kind : {TrajectoryKind::kNone, TrajectoryKind::kWaypoint,
                          TrajectoryKind::kOrbit}) {
    ExperimentConfig cfg;
    cfg.sim.bs_trajectory.kind = kind;
    cfg.sim.bs_trajectory.waypoints = {{0, 0, 0}, {200, 200, 200}};
    cfg.sim.bs_trajectory.loop = true;
    EXPECT_EQ(parse_experiment(experiment_to_json(cfg)), cfg)
        << enum_name(kind);
  }
  // An empty waypoint list must survive too (orbit configs carry none).
  ExperimentConfig cfg;
  cfg.sim.bs_trajectory.kind = TrajectoryKind::kOrbit;
  cfg.sim.bs_trajectory.waypoints.clear();
  EXPECT_EQ(parse_experiment(experiment_to_json(cfg)), cfg);
}

/// E's table is a bijection that the reader and the writer both honour:
/// every token put at `doc`'s "@" reads as its value at `get`, and so does
/// the config's echo; values are distinct; and an unknown token fails at
/// `path` with the table's "a|b|c" list, which must be `allowed`.
template <typename E, typename Get>
void expect_bijective(const std::string& doc, const std::string& path,
                      Get get, const std::string& allowed) {
  const auto with_token = [&doc](const std::string& token) {
    std::string text = doc;
    text.replace(text.find('@'), 1, '"' + token + '"');
    return text;
  };
  const EnumTable<E>& table = enum_table<E>();
  std::string joined;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& [value, name] = table[i];
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NE(table[j].first, value) << path << ": repeated value";
    const ExperimentConfig cfg = parse_experiment(with_token(name));
    EXPECT_EQ(get(cfg), value) << path << " = " << name;
    EXPECT_STREQ(enum_name(value), name);
    EXPECT_EQ(get(parse_experiment(experiment_to_json(cfg))), value)
        << path << " = " << name;
    if (!joined.empty()) joined += '|';
    joined += name;
  }
  EXPECT_EQ(joined, allowed);
  for (const std::string unknown : {"bogus", ""}) {
    try {
      parse_experiment(with_token(unknown));
      ADD_FAILURE() << path << " accepted \"" << unknown << '"';
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.path(), path);
      EXPECT_EQ(std::string(e.what()), path + ": expected one of " + allowed +
                                           ", got \"" + unknown + '"');
    }
  }
}

TEST(ConfigRoundTrip, EnumNamesAreBijective) {
  EXPECT_STREQ(enum_name(BsPlacement::kTopFaceCenter), "top_face_center");
  EXPECT_STREQ(enum_name(Aggregation::kFixedSummary), "fixed_summary");
  EXPECT_STREQ(enum_name(MobilityKind::kRandomWaypoint), "random_waypoint");
  EXPECT_STREQ(enum_name(obs::TelemetryOptions::Sink::kFile), "file");
  EXPECT_STREQ(enum_name(TrajectoryKind::kWaypoint), "waypoint");
  EXPECT_STREQ(enum_name(TrajectoryKind::kOrbit), "orbit");

  using C = const ExperimentConfig&;
  expect_bijective<BsPlacement>(
      R"({"scenario": {"bs": @}})", "scenario.bs",
      [](C c) { return c.scenario.bs; },
      "center|top_face_center|corner|external");
  expect_bijective<Aggregation>(
      R"({"sim": {"aggregation": @}})", "sim.aggregation",
      [](C c) { return c.sim.aggregation; }, "ratio_compress|fixed_summary");
  expect_bijective<MobilityKind>(
      R"({"sim": {"mobility": {"kind": @}}})", "sim.mobility.kind",
      [](C c) { return c.sim.mobility.kind; },
      "none|random_walk|random_waypoint");
  expect_bijective<obs::TelemetryOptions::Sink>(
      R"({"sim": {"telemetry": {"sink": @}}})", "sim.telemetry.sink",
      [](C c) { return c.sim.telemetry.sink; }, "null|ring|file");
  expect_bijective<FaultKind>(
      R"({"sim": {"fault": {"plan": {"events": [{"kind": @}]}}}})",
      "sim.fault.plan.events[0].kind",
      [](C c) { return c.sim.fault.plan.events.at(0).kind; },
      "crash|stun|blackout|link-degrade|bs-outage|battery-fade");
  expect_bijective<SectorMode>(
      R"({"protocol": {"sector_mode": @}})", "protocol.sector_mode",
      [](C c) { return c.protocol.sector_mode; }, "quadrant|octant");
  expect_bijective<ControllerKind>(
      R"({"protocol": {"controller": {"kind": @}}})",
      "protocol.controller.kind",
      [](C c) { return c.protocol.controller.kind; }, "rl-lite|passthrough");
  expect_bijective<TrajectoryKind>(
      R"({"bs": {"trajectory": {"kind": @}}})", "bs.trajectory.kind",
      [](C c) { return c.sim.bs_trajectory.kind; }, "none|waypoint|orbit");
  expect_bijective<Deployment>(
      R"({"deployment": @})", "deployment",
      [](C c) { return c.deployment; }, "uniform|terrain");
}

}  // namespace
}  // namespace qlec::config
