#include "config/schema.hpp"

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/reader.hpp"
#include "sim/protocols/registry.hpp"

namespace qlec::config {

// ---- enum tables ----

template <>
const EnumTable<BsPlacement>& enum_table() {
  static const EnumTable<BsPlacement> t = {
      {BsPlacement::kCenter, "center"},
      {BsPlacement::kTopFaceCenter, "top_face_center"},
      {BsPlacement::kCorner, "corner"},
      {BsPlacement::kExternal, "external"},
  };
  return t;
}

template <>
const EnumTable<Aggregation>& enum_table() {
  static const EnumTable<Aggregation> t = {
      {Aggregation::kRatioCompress, "ratio_compress"},
      {Aggregation::kFixedSummary, "fixed_summary"},
  };
  return t;
}

template <>
const EnumTable<MobilityKind>& enum_table() {
  static const EnumTable<MobilityKind> t = {
      {MobilityKind::kNone, "none"},
      {MobilityKind::kRandomWalk, "random_walk"},
      {MobilityKind::kRandomWaypoint, "random_waypoint"},
  };
  return t;
}

template <>
const EnumTable<obs::TelemetryOptions::Sink>& enum_table() {
  static const EnumTable<obs::TelemetryOptions::Sink> t = {
      {obs::TelemetryOptions::Sink::kNull, "null"},
      {obs::TelemetryOptions::Sink::kRing, "ring"},
      {obs::TelemetryOptions::Sink::kFile, "file"},
  };
  return t;
}

template <>
const EnumTable<FaultKind>& enum_table() {
  static const EnumTable<FaultKind> t = {
      {FaultKind::kCrash, "crash"},
      {FaultKind::kStun, "stun"},
      {FaultKind::kBlackout, "blackout"},
      {FaultKind::kLinkDegrade, "link-degrade"},
      {FaultKind::kBsOutage, "bs-outage"},
      {FaultKind::kBatteryFade, "battery-fade"},
  };
  return t;
}

template <>
const EnumTable<SectorMode>& enum_table() {
  static const EnumTable<SectorMode> t = {
      {SectorMode::kQuadrant, "quadrant"},
      {SectorMode::kOctant, "octant"},
  };
  return t;
}

template <>
const EnumTable<ControllerKind>& enum_table() {
  static const EnumTable<ControllerKind> t = {
      {ControllerKind::kRlLite, "rl-lite"},
      {ControllerKind::kPassthrough, "passthrough"},
  };
  return t;
}

template <>
const EnumTable<TrajectoryKind>& enum_table() {
  static const EnumTable<TrajectoryKind> t = {
      {TrajectoryKind::kNone, "none"},
      {TrajectoryKind::kWaypoint, "waypoint"},
      {TrajectoryKind::kOrbit, "orbit"},
  };
  return t;
}

template <>
const EnumTable<Deployment>& enum_table() {
  static const EnumTable<Deployment> t = {
      {Deployment::kUniform, "uniform"},
      {Deployment::kTerrain, "terrain"},
  };
  return t;
}

namespace {

using detail::kInf;
using detail::ObjectReader;
using detail::ObjectWriter;

// ---- the field list (key order == document order == DESIGN.md §11) ----
//
// Each bind_X visits every field of an X once, for both binders
// (config/reader.hpp): ObjectReader reads onto the struct, ObjectWriter
// writes it. Bounds and the order of keys live here only.

/// The struct a binder visits: writable for the reader, const for the
/// writer.
template <typename B, typename T>
using Bound =
    std::conditional_t<std::is_same_v<B, ObjectWriter>, const T, T>;

template <typename B>
void bind_aabb(B& b, Bound<B, Aabb>& box) {
  b.vec3("lo", box.lo);
  b.vec3("hi", box.hi);
}

template <typename B>
void bind_scenario(B& b, Bound<B, ScenarioConfig>& s) {
  b.size_field("n", s.n, 1);
  b.number("m_side", s.m_side, 0.0, kInf, /*lo_open=*/true);
  b.number("initial_energy", s.initial_energy, 0.0);
  b.number("energy_heterogeneity", s.energy_heterogeneity, 0.0, 1.0);
  b.enumeration("bs", s.bs);
}

template <typename B>
void bind_radio(B& b, Bound<B, RadioParams>& r) {
  b.number("e_elec", r.e_elec, 0.0);
  b.number("e_da", r.e_da, 0.0);
  b.number("eps_fs", r.eps_fs, 0.0);
  // eps_mp feeds the d0 = sqrt(eps_fs / eps_mp) crossover: must stay > 0.
  b.number("eps_mp", r.eps_mp, 0.0, kInf, /*lo_open=*/true);
}

template <typename B>
void bind_link(B& b, Bound<B, LinkModel>& l) {
  b.number("d_ref", l.d_ref, 0.0, kInf, /*lo_open=*/true);
  b.number("p_floor", l.p_floor, 0.0, 1.0);
  b.number("bs_reliability_factor", l.bs_reliability_factor, 0.0, 1.0);
}

template <typename B>
void bind_mobility(B& b, Bound<B, MobilityConfig>& m) {
  b.enumeration("kind", m.kind);
  b.number("speed", m.speed, 0.0);
  b.number("arrival_tolerance", m.arrival_tolerance, 0.0);
}

template <typename B>
void bind_fault_event(B& b, Bound<B, FaultEvent>& e) {
  b.enumeration("kind", e.kind);
  b.int_field("round", e.round, 0);
  b.int_field("node", e.node, -1);
  b.int_field("duration", e.duration, 0);
  b.number("severity", e.severity, 0.0, 1.0);
  b.boolean("permanent", e.permanent);
  b.object("region", e.region, bind_aabb<B>);
}

template <typename B>
void bind_hazards(B& b, Bound<B, FaultHazards>& h) {
  b.number("crash_per_node", h.crash_per_node, 0.0, 1.0);
  b.number("stun_per_node", h.stun_per_node, 0.0, 1.0);
  b.int_field("stun_rounds", h.stun_rounds, 0);
  b.number("fade_per_node", h.fade_per_node, 0.0, 1.0);
  b.number("fade_fraction", h.fade_fraction, 0.0, 1.0);
  b.number("degrade_episode", h.degrade_episode, 0.0, 1.0);
  b.int_field("degrade_rounds", h.degrade_rounds, 0);
  b.number("degrade_factor", h.degrade_factor, 0.0, 1.0);
  b.number("bs_outage", h.bs_outage, 0.0, 1.0);
  b.int_field("bs_outage_rounds", h.bs_outage_rounds, 0);
}

template <typename B>
void bind_fault(B& b, Bound<B, FaultConfig>& f) {
  b.boolean("enabled", f.enabled);
  b.seed_field("seed", f.seed);
  b.object("plan", f.plan, [](B& p, auto& plan) {
    p.array("events", plan.events, bind_fault_event<B>);
  });
  b.object("hazards", f.hazards, bind_hazards<B>);
}

template <typename B>
void bind_telemetry(B& b, Bound<B, obs::TelemetryOptions>& t) {
  b.boolean("enabled", t.enabled);
  b.enumeration("sink", t.sink);
  b.string_field("events_path", t.events_path);
  b.size_field("ring_capacity", t.ring_capacity, 1);
  b.boolean("per_packet_events", t.per_packet_events);
  b.boolean("trace_phases", t.trace_phases);
  b.string_field("trace_path", t.trace_path);
  b.string_field("metrics_path", t.metrics_path);
}

template <typename B>
void bind_mac(B& b, Bound<B, MacConfig>& m) {
  b.boolean("enabled", m.enabled);
  b.seed_field("seed", m.seed);
  b.int_field("airtime_subslots", m.airtime_subslots, 1);
  b.number("cca_range", m.cca_range, 0.0, kInf, /*lo_open=*/true);
  // A capture ratio below 1 would let a frame "capture" over interferers
  // louder than itself.
  b.number("capture_ratio", m.capture_ratio, 1.0);
  b.int_field("max_retries", m.max_retries, 0);
  b.int_field("cw_min", m.cw_min, 1);
  b.int_field("cw_max", m.cw_max, 1);
  b.number("duty_cycle", m.duty_cycle, 0.0, 1.0, /*lo_open=*/true);
  b.number("idle_j_per_subslot", m.idle_j_per_subslot, 0.0);
}

template <typename B>
void bind_env(B& b, Bound<B, EnvConfig>& e) {
  b.boolean("enabled", e.enabled);
  b.number("atten_per_unit", e.atten_per_unit, 0.0);
  b.number("sever_depth", e.sever_depth, 0.0);
  b.array("obstacles", e.obstacles, [](B& o, auto& ob) {
    o.object("box", ob.box, bind_aabb<B>);
    o.number("extra_atten", ob.extra_atten, 0.0);
  });
  b.object("terrain", e.terrain, [](B& t, auto& terrain) {
    t.boolean("enabled", terrain.enabled);
    t.number("amplitude_frac", terrain.amplitude_frac, 0.0);
    t.number("base_frac", terrain.base_frac, 0.0, 1.0);
  });
  b.object("water", e.water, [](B& w, auto& water) {
    w.boolean("enabled", water.enabled);
    w.number("surface_frac", water.surface_frac, 0.0, 1.0);
    w.number("alpha_per_unit", water.alpha_per_unit, 0.0);
    w.number("amp_depth_scale", water.amp_depth_scale, 0.0);
  });
  b.object("harvest", e.harvest, [](B& h, auto& harvest) {
    h.number("per_round", harvest.per_round, 0.0);
    h.number("depth_decay", harvest.depth_decay, 0.0);
    h.number("min_factor", harvest.min_factor, 0.0, 1.0);
  });
}

/// The top-level "bs" block: {"trajectory": {...}}.
template <typename B>
void bind_bs_trajectory(B& b, Bound<B, BsTrajectoryConfig>& bs) {
  b.object("trajectory", bs, [](B& t, auto& traj) {
    t.enumeration("kind", traj.kind);
    t.array("waypoints", traj.waypoints);
    t.number("speed", traj.speed, 0.0);
    t.boolean("loop", traj.loop);
    t.vec3("orbit_center", traj.orbit_center);
    t.number("orbit_radius", traj.orbit_radius, 0.0);
    t.int_field("orbit_period", traj.orbit_period, 1);
  });
}

template <typename B>
void bind_sim(B& b, Bound<B, SimConfig>& s) {
  b.int_field("rounds", s.rounds, 1);
  b.int_field("slots_per_round", s.slots_per_round, 1);
  b.number("mean_interarrival", s.mean_interarrival);
  b.number("packet_bits", s.packet_bits, 0.0, kInf, /*lo_open=*/true);
  b.size_field("queue_capacity", s.queue_capacity, 1);
  b.int_field("service_per_slot", s.service_per_slot, 0);
  b.number("compression", s.compression, 0.0, 1.0);
  b.enumeration("aggregation", s.aggregation);
  b.number("death_line", s.death_line);
  b.int_field("max_retries", s.max_retries, 0);
  b.object("radio", s.radio, bind_radio<B>);
  b.object("link", s.link, bind_link<B>);
  b.object("mobility", s.mobility, bind_mobility<B>);
  b.number("harvest_per_round", s.harvest_per_round, 0.0);
  b.number("idle_listen_j_per_slot", s.idle_listen_j_per_slot, 0.0);
  b.object("audit", s.audit, [](B& a, auto& audit) {
    a.boolean("enabled", audit.enabled);
    a.boolean("throw_on_violation", audit.throw_on_violation);
  });
  b.object("trace", s.trace, [](B& t, auto& trace) {
    t.boolean("record", trace.record);
    t.boolean("stop_at_first_death", trace.stop_at_first_death);
  });
  b.object("fault", s.fault, bind_fault<B>);
  b.object("telemetry", s.telemetry, bind_telemetry<B>);
  b.object("mac", s.mac, bind_mac<B>);
  b.object("env", s.env, bind_env<B>);
  b.object("exec", s.exec, [](B& e, auto& exec) {
    e.int_field("shards", exec.shards, 1);
  });
}

template <typename B>
void bind_qlec_params(B& b, Bound<B, QlecParams>& q) {
  b.number("gamma", q.gamma, 0.0, 1.0);
  b.number("alpha1", q.alpha1);
  b.number("alpha2", q.alpha2);
  b.number("beta1", q.beta1);
  b.number("beta2", q.beta2);
  b.number("compression", q.compression, 0.0, 1.0);
  b.number("g", q.g, 0.0);
  b.number("l", q.l, 0.0);
  b.number("epsilon", q.epsilon, 0.0, 1.0);
  // The *_scale knobs use <= 0 as a "derive from the deployment" sentinel,
  // so any finite value is legal.
  b.number("x_scale", q.x_scale);
  b.number("y_scale", q.y_scale);
  b.number("y_scale_bs", q.y_scale_bs);
  b.number("x_bs", q.x_bs);
  b.int_field("total_rounds", q.total_rounds, 1);
  b.boolean("use_energy_threshold", q.use_energy_threshold);
  b.boolean("reduce_redundancy", q.reduce_redundancy);
  b.boolean("top_up_to_k", q.top_up_to_k);
  b.number("hello_bits", q.hello_bits, 0.0);
  b.int_field("force_k", q.force_k, 0);
}

template <typename B>
void bind_controller(B& b, Bound<B, ControllerOptions>& c) {
  b.enumeration("kind", c.kind);
  b.number("alpha", c.alpha, 0.0, 1.0);
  b.number("gamma", c.gamma, 0.0, 1.0);
  b.number("epsilon", c.epsilon, 0.0, 1.0);
}

template <typename B>
void bind_protocol(B& b, Bound<B, ProtocolOptions>& p) {
  static const std::vector<std::string> names = protocol_names();
  b.one_of("name", p.name, names);
  b.object("qlec", p.qlec, bind_qlec_params<B>);
  b.size_field("k", p.k, 0);
  b.int_field("fcm_levels", p.fcm_levels, 1);
  b.number("death_line", p.death_line);
  b.number("hello_bits", p.hello_bits, 0.0);
  b.object("radio", p.radio, bind_radio<B>);
  b.enumeration("sector_mode", p.sector_mode);
  b.object("controller", p.controller, bind_controller<B>);
}

template <typename B>
void bind_experiment(B& b, Bound<B, ExperimentConfig>& c) {
  b.object("scenario", c.scenario, bind_scenario<B>);
  b.object("sim", c.sim, bind_sim<B>);
  b.object("protocol", c.protocol, bind_protocol<B>);
  b.size_field("seeds", c.seeds, 1);
  b.seed_field("base_seed", c.base_seed);
  b.enumeration("deployment", c.deployment);
  // The mobile-sink block rides at the top level (it configures the BS,
  // not a per-node simulation knob) but stores into sim.bs_trajectory.
  b.object("bs", c.sim.bs_trajectory, bind_bs_trajectory<B>);
}

}  // namespace

ConfigError::ConfigError(std::string path, const std::string& problem)
    : std::runtime_error(path.empty() ? problem : path + ": " + problem),
      path_(std::move(path)) {}

void write_experiment(JsonWriter& w, const ExperimentConfig& cfg) {
  ObjectWriter o(w);
  w.begin_object();
  bind_experiment(o, cfg);
  w.end_object();
}

std::string experiment_to_json(const ExperimentConfig& cfg) {
  JsonWriter w;
  write_experiment(w, cfg);
  return w.str();
}

ExperimentConfig experiment_from_json(const JsonValue& v,
                                      const std::string& path) {
  return experiment_from_json(v, ExperimentConfig{}, path);
}

ExperimentConfig experiment_from_json(const JsonValue& v,
                                      const ExperimentConfig& base,
                                      const std::string& path) {
  ExperimentConfig out = base;
  ObjectReader r(v, path);
  bind_experiment(r, out);
  r.finish();
  return out;
}

ExperimentConfig parse_experiment(const std::string& text) {
  std::string error;
  const std::optional<JsonValue> doc = parse_json(text, &error);
  if (!doc) throw ConfigError("", "malformed JSON: " + error);
  return experiment_from_json(*doc);
}

}  // namespace qlec::config
