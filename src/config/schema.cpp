#include "config/schema.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "config/reader.hpp"
#include "sim/protocols/registry.hpp"

namespace qlec::config {
namespace {

// Strict-reading machinery (ObjectReader, describe, ...) lives in
// config/reader.hpp since the manifest parser shares it.
using detail::ObjectReader;
using detail::bounds_text;
using detail::describe;
using detail::fmt_num;
using detail::join;
using detail::kInf;
using detail::kMaxExactInt;

// ---- enum tables ----

template <typename E>
using EnumTable = std::vector<std::pair<E, const char*>>;

const EnumTable<BsPlacement>& bs_table() {
  static const EnumTable<BsPlacement> t = {
      {BsPlacement::kCenter, "center"},
      {BsPlacement::kTopFaceCenter, "top_face_center"},
      {BsPlacement::kCorner, "corner"},
      {BsPlacement::kExternal, "external"},
  };
  return t;
}

const EnumTable<Aggregation>& aggregation_table() {
  static const EnumTable<Aggregation> t = {
      {Aggregation::kRatioCompress, "ratio_compress"},
      {Aggregation::kFixedSummary, "fixed_summary"},
  };
  return t;
}

const EnumTable<MobilityKind>& mobility_table() {
  static const EnumTable<MobilityKind> t = {
      {MobilityKind::kNone, "none"},
      {MobilityKind::kRandomWalk, "random_walk"},
      {MobilityKind::kRandomWaypoint, "random_waypoint"},
  };
  return t;
}

const EnumTable<obs::TelemetryOptions::Sink>& sink_table() {
  static const EnumTable<obs::TelemetryOptions::Sink> t = {
      {obs::TelemetryOptions::Sink::kNull, "null"},
      {obs::TelemetryOptions::Sink::kRing, "ring"},
      {obs::TelemetryOptions::Sink::kFile, "file"},
  };
  return t;
}

const EnumTable<FaultKind>& fault_kind_table() {
  static const EnumTable<FaultKind> t = {
      {FaultKind::kCrash, fault_kind_name(FaultKind::kCrash)},
      {FaultKind::kStun, fault_kind_name(FaultKind::kStun)},
      {FaultKind::kBlackout, fault_kind_name(FaultKind::kBlackout)},
      {FaultKind::kLinkDegrade, fault_kind_name(FaultKind::kLinkDegrade)},
      {FaultKind::kBsOutage, fault_kind_name(FaultKind::kBsOutage)},
      {FaultKind::kBatteryFade, fault_kind_name(FaultKind::kBatteryFade)},
  };
  return t;
}

const EnumTable<SectorMode>& sector_mode_table() {
  static const EnumTable<SectorMode> t = {
      {SectorMode::kQuadrant, "quadrant"},
      {SectorMode::kOctant, "octant"},
  };
  return t;
}

const EnumTable<ControllerKind>& controller_kind_table() {
  static const EnumTable<ControllerKind> t = {
      {ControllerKind::kRlLite, "rl-lite"},
      {ControllerKind::kPassthrough, "passthrough"},
  };
  return t;
}

const EnumTable<TrajectoryKind>& trajectory_table() {
  static const EnumTable<TrajectoryKind> t = {
      {TrajectoryKind::kNone, trajectory_kind_name(TrajectoryKind::kNone)},
      {TrajectoryKind::kWaypoint,
       trajectory_kind_name(TrajectoryKind::kWaypoint)},
      {TrajectoryKind::kOrbit, trajectory_kind_name(TrajectoryKind::kOrbit)},
  };
  return t;
}

const EnumTable<Deployment>& deployment_table() {
  static const EnumTable<Deployment> t = {
      {Deployment::kUniform, deployment_name(Deployment::kUniform)},
      {Deployment::kTerrain, deployment_name(Deployment::kTerrain)},
  };
  return t;
}

template <typename E>
const char* table_name(const EnumTable<E>& table, E value) noexcept {
  for (const auto& [e, name] : table)
    if (e == value) return name;
  return "?";
}

template <typename E>
void enum_field(ObjectReader& r, std::string_view key, E& out,
                const EnumTable<E>& table) {
  const JsonValue* j = r.find(key);
  if (j == nullptr) return;
  if (j->is_string()) {
    for (const auto& [e, name] : table) {
      if (j->as_string() == name) {
        out = e;
        return;
      }
    }
  }
  std::string allowed;
  for (const auto& [e, name] : table) {
    (void)e;
    if (!allowed.empty()) allowed += '|';
    allowed += name;
  }
  throw ConfigError(r.sub(key),
                    "expected one of " + allowed + ", got " + describe(*j));
}

// ---- writers (field order == reader order == DESIGN.md §11 schema) ----

void write_vec3(JsonWriter& w, const Vec3& v) {
  w.begin_array();
  w.value(v.x);
  w.value(v.y);
  w.value(v.z);
  w.end_array();
}

void write_aabb(JsonWriter& w, const Aabb& box) {
  w.begin_object();
  w.key("lo");
  write_vec3(w, box.lo);
  w.key("hi");
  write_vec3(w, box.hi);
  w.end_object();
}

void write_scenario(JsonWriter& w, const ScenarioConfig& s) {
  w.begin_object();
  w.key("n"); w.value(s.n);
  w.key("m_side"); w.value(s.m_side);
  w.key("initial_energy"); w.value(s.initial_energy);
  w.key("energy_heterogeneity"); w.value(s.energy_heterogeneity);
  w.key("bs"); w.value(bs_placement_name(s.bs));
  w.end_object();
}

void write_radio(JsonWriter& w, const RadioParams& r) {
  w.begin_object();
  w.key("e_elec"); w.value(r.e_elec);
  w.key("e_da"); w.value(r.e_da);
  w.key("eps_fs"); w.value(r.eps_fs);
  w.key("eps_mp"); w.value(r.eps_mp);
  w.end_object();
}

void write_link(JsonWriter& w, const LinkModel& l) {
  w.begin_object();
  w.key("d_ref"); w.value(l.d_ref);
  w.key("p_floor"); w.value(l.p_floor);
  w.key("bs_reliability_factor"); w.value(l.bs_reliability_factor);
  w.end_object();
}

void write_mobility(JsonWriter& w, const MobilityConfig& m) {
  w.begin_object();
  w.key("kind"); w.value(mobility_kind_name(m.kind));
  w.key("speed"); w.value(m.speed);
  w.key("arrival_tolerance"); w.value(m.arrival_tolerance);
  w.end_object();
}

void write_fault_event(JsonWriter& w, const FaultEvent& e) {
  w.begin_object();
  w.key("kind"); w.value(fault_kind_name(e.kind));
  w.key("round"); w.value(e.round);
  w.key("node"); w.value(e.node);
  w.key("duration"); w.value(e.duration);
  w.key("severity"); w.value(e.severity);
  w.key("permanent"); w.value(e.permanent);
  w.key("region");
  write_aabb(w, e.region);
  w.end_object();
}

void write_hazards(JsonWriter& w, const FaultHazards& h) {
  w.begin_object();
  w.key("crash_per_node"); w.value(h.crash_per_node);
  w.key("stun_per_node"); w.value(h.stun_per_node);
  w.key("stun_rounds"); w.value(h.stun_rounds);
  w.key("fade_per_node"); w.value(h.fade_per_node);
  w.key("fade_fraction"); w.value(h.fade_fraction);
  w.key("degrade_episode"); w.value(h.degrade_episode);
  w.key("degrade_rounds"); w.value(h.degrade_rounds);
  w.key("degrade_factor"); w.value(h.degrade_factor);
  w.key("bs_outage"); w.value(h.bs_outage);
  w.key("bs_outage_rounds"); w.value(h.bs_outage_rounds);
  w.end_object();
}

void write_fault(JsonWriter& w, const FaultConfig& f) {
  w.begin_object();
  w.key("enabled"); w.value(f.enabled);
  w.key("seed"); w.value(static_cast<unsigned long long>(f.seed));
  w.key("plan");
  w.begin_object();
  w.key("events");
  w.begin_array();
  for (const FaultEvent& e : f.plan.events) write_fault_event(w, e);
  w.end_array();
  w.end_object();
  w.key("hazards");
  write_hazards(w, f.hazards);
  w.end_object();
}

void write_telemetry(JsonWriter& w, const obs::TelemetryOptions& t) {
  w.begin_object();
  w.key("enabled"); w.value(t.enabled);
  w.key("sink"); w.value(telemetry_sink_name(t.sink));
  w.key("events_path"); w.value(t.events_path);
  w.key("ring_capacity"); w.value(t.ring_capacity);
  w.key("per_packet_events"); w.value(t.per_packet_events);
  w.key("trace_phases"); w.value(t.trace_phases);
  w.key("trace_path"); w.value(t.trace_path);
  w.key("metrics_path"); w.value(t.metrics_path);
  w.end_object();
}

void write_env(JsonWriter& w, const EnvConfig& e) {
  w.begin_object();
  w.key("enabled"); w.value(e.enabled);
  w.key("atten_per_unit"); w.value(e.atten_per_unit);
  w.key("sever_depth"); w.value(e.sever_depth);
  w.key("obstacles");
  w.begin_array();
  for (const EnvObstacle& o : e.obstacles) {
    w.begin_object();
    w.key("box");
    write_aabb(w, o.box);
    w.key("extra_atten"); w.value(o.extra_atten);
    w.end_object();
  }
  w.end_array();
  w.key("terrain");
  w.begin_object();
  w.key("enabled"); w.value(e.terrain.enabled);
  w.key("amplitude_frac"); w.value(e.terrain.amplitude_frac);
  w.key("base_frac"); w.value(e.terrain.base_frac);
  w.end_object();
  w.key("water");
  w.begin_object();
  w.key("enabled"); w.value(e.water.enabled);
  w.key("surface_frac"); w.value(e.water.surface_frac);
  w.key("alpha_per_unit"); w.value(e.water.alpha_per_unit);
  w.key("amp_depth_scale"); w.value(e.water.amp_depth_scale);
  w.end_object();
  w.key("harvest");
  w.begin_object();
  w.key("per_round"); w.value(e.harvest.per_round);
  w.key("depth_decay"); w.value(e.harvest.depth_decay);
  w.key("min_factor"); w.value(e.harvest.min_factor);
  w.end_object();
  w.end_object();
}

void write_bs_trajectory(JsonWriter& w, const BsTrajectoryConfig& t) {
  w.begin_object();
  w.key("trajectory");
  w.begin_object();
  w.key("kind"); w.value(trajectory_kind_name(t.kind));
  w.key("waypoints");
  w.begin_array();
  for (const Vec3& p : t.waypoints) write_vec3(w, p);
  w.end_array();
  w.key("speed"); w.value(t.speed);
  w.key("loop"); w.value(t.loop);
  w.key("orbit_center");
  write_vec3(w, t.orbit_center);
  w.key("orbit_radius"); w.value(t.orbit_radius);
  w.key("orbit_period"); w.value(t.orbit_period);
  w.end_object();
  w.end_object();
}

void write_sim(JsonWriter& w, const SimConfig& s) {
  w.begin_object();
  w.key("rounds"); w.value(s.rounds);
  w.key("slots_per_round"); w.value(s.slots_per_round);
  w.key("mean_interarrival"); w.value(s.mean_interarrival);
  w.key("packet_bits"); w.value(s.packet_bits);
  w.key("queue_capacity"); w.value(s.queue_capacity);
  w.key("service_per_slot"); w.value(s.service_per_slot);
  w.key("compression"); w.value(s.compression);
  w.key("aggregation"); w.value(aggregation_name(s.aggregation));
  w.key("death_line"); w.value(s.death_line);
  w.key("max_retries"); w.value(s.max_retries);
  w.key("radio"); write_radio(w, s.radio);
  w.key("link"); write_link(w, s.link);
  w.key("mobility"); write_mobility(w, s.mobility);
  w.key("harvest_per_round"); w.value(s.harvest_per_round);
  w.key("idle_listen_j_per_slot"); w.value(s.idle_listen_j_per_slot);
  w.key("audit");
  w.begin_object();
  w.key("enabled"); w.value(s.audit.enabled);
  w.key("throw_on_violation"); w.value(s.audit.throw_on_violation);
  w.end_object();
  w.key("trace");
  w.begin_object();
  w.key("record"); w.value(s.trace.record);
  w.key("stop_at_first_death"); w.value(s.trace.stop_at_first_death);
  w.end_object();
  w.key("fault"); write_fault(w, s.fault);
  w.key("telemetry"); write_telemetry(w, s.telemetry);
  w.key("mac");
  w.begin_object();
  w.key("enabled"); w.value(s.mac.enabled);
  w.key("seed"); w.value(static_cast<unsigned long long>(s.mac.seed));
  w.key("airtime_subslots"); w.value(s.mac.airtime_subslots);
  w.key("cca_range"); w.value(s.mac.cca_range);
  w.key("capture_ratio"); w.value(s.mac.capture_ratio);
  w.key("max_retries"); w.value(s.mac.max_retries);
  w.key("cw_min"); w.value(s.mac.cw_min);
  w.key("cw_max"); w.value(s.mac.cw_max);
  w.key("duty_cycle"); w.value(s.mac.duty_cycle);
  w.key("idle_j_per_subslot"); w.value(s.mac.idle_j_per_subslot);
  w.end_object();
  w.key("env"); write_env(w, s.env);
  w.key("exec");
  w.begin_object();
  w.key("shards"); w.value(s.exec.shards);
  w.end_object();
  w.end_object();
}

void write_qlec_params(JsonWriter& w, const QlecParams& q) {
  w.begin_object();
  w.key("gamma"); w.value(q.gamma);
  w.key("alpha1"); w.value(q.alpha1);
  w.key("alpha2"); w.value(q.alpha2);
  w.key("beta1"); w.value(q.beta1);
  w.key("beta2"); w.value(q.beta2);
  w.key("compression"); w.value(q.compression);
  w.key("g"); w.value(q.g);
  w.key("l"); w.value(q.l);
  w.key("epsilon"); w.value(q.epsilon);
  w.key("x_scale"); w.value(q.x_scale);
  w.key("y_scale"); w.value(q.y_scale);
  w.key("y_scale_bs"); w.value(q.y_scale_bs);
  w.key("x_bs"); w.value(q.x_bs);
  w.key("total_rounds"); w.value(q.total_rounds);
  w.key("use_energy_threshold"); w.value(q.use_energy_threshold);
  w.key("reduce_redundancy"); w.value(q.reduce_redundancy);
  w.key("top_up_to_k"); w.value(q.top_up_to_k);
  w.key("hello_bits"); w.value(q.hello_bits);
  w.key("force_k"); w.value(q.force_k);
  w.end_object();
}

void write_controller(JsonWriter& w, const ControllerOptions& c) {
  w.begin_object();
  w.key("kind"); w.value(controller_kind_name(c.kind));
  w.key("alpha"); w.value(c.alpha);
  w.key("gamma"); w.value(c.gamma);
  w.key("epsilon"); w.value(c.epsilon);
  w.end_object();
}

void write_protocol(JsonWriter& w, const ProtocolOptions& p) {
  w.begin_object();
  w.key("name"); w.value(p.name);
  w.key("qlec"); write_qlec_params(w, p.qlec);
  w.key("k"); w.value(p.k);
  w.key("fcm_levels"); w.value(p.fcm_levels);
  w.key("death_line"); w.value(p.death_line);
  w.key("hello_bits"); w.value(p.hello_bits);
  w.key("radio"); write_radio(w, p.radio);
  w.key("sector_mode"); w.value(sector_mode_name(p.sector_mode));
  w.key("controller"); write_controller(w, p.controller);
  w.end_object();
}

// ---- readers ----

Vec3 read_vec3(const JsonValue& v, const std::string& path) {
  const bool ok = v.is_array() && v.size() == 3 && v.at(0).is_number() &&
                  v.at(1).is_number() && v.at(2).is_number() &&
                  std::isfinite(v.at(0).as_double()) &&
                  std::isfinite(v.at(1).as_double()) &&
                  std::isfinite(v.at(2).as_double());
  if (!ok)
    throw ConfigError(path, "expected [x, y, z] array of 3 finite numbers, "
                            "got " + describe(v));
  return {v.at(0).as_double(), v.at(1).as_double(), v.at(2).as_double()};
}

Aabb read_aabb(const JsonValue& v, const std::string& path, Aabb out) {
  ObjectReader r(v, path);
  if (const JsonValue* j = r.find("lo")) out.lo = read_vec3(*j, r.sub("lo"));
  if (const JsonValue* j = r.find("hi")) out.hi = read_vec3(*j, r.sub("hi"));
  r.finish();
  return out;
}

ScenarioConfig read_scenario(const JsonValue& v, const std::string& path,
                             ScenarioConfig out) {
  ObjectReader r(v, path);
  r.size_field("n", out.n, 1);
  r.number("m_side", out.m_side, 0.0, kInf, /*lo_open=*/true);
  r.number("initial_energy", out.initial_energy, 0.0);
  r.number("energy_heterogeneity", out.energy_heterogeneity, 0.0, 1.0);
  enum_field(r, "bs", out.bs, bs_table());
  r.finish();
  return out;
}

RadioParams read_radio(const JsonValue& v, const std::string& path,
                       RadioParams out) {
  ObjectReader r(v, path);
  r.number("e_elec", out.e_elec, 0.0);
  r.number("e_da", out.e_da, 0.0);
  r.number("eps_fs", out.eps_fs, 0.0);
  // eps_mp feeds the d0 = sqrt(eps_fs / eps_mp) crossover: must stay > 0.
  r.number("eps_mp", out.eps_mp, 0.0, kInf, /*lo_open=*/true);
  r.finish();
  return out;
}

LinkModel read_link(const JsonValue& v, const std::string& path,
                    LinkModel out) {
  ObjectReader r(v, path);
  r.number("d_ref", out.d_ref, 0.0, kInf, /*lo_open=*/true);
  r.number("p_floor", out.p_floor, 0.0, 1.0);
  r.number("bs_reliability_factor", out.bs_reliability_factor, 0.0, 1.0);
  r.finish();
  return out;
}

MobilityConfig read_mobility(const JsonValue& v, const std::string& path,
                             MobilityConfig out) {
  ObjectReader r(v, path);
  enum_field(r, "kind", out.kind, mobility_table());
  r.number("speed", out.speed, 0.0);
  r.number("arrival_tolerance", out.arrival_tolerance, 0.0);
  r.finish();
  return out;
}

FaultEvent read_fault_event(const JsonValue& v, const std::string& path) {
  FaultEvent out;
  ObjectReader r(v, path);
  enum_field(r, "kind", out.kind, fault_kind_table());
  r.int_field("round", out.round, 0);
  r.int_field("node", out.node, -1);
  r.int_field("duration", out.duration, 0);
  r.number("severity", out.severity, 0.0, 1.0);
  r.boolean("permanent", out.permanent);
  if (const JsonValue* j = r.find("region"))
    out.region = read_aabb(*j, r.sub("region"), out.region);
  r.finish();
  return out;
}

FaultHazards read_hazards(const JsonValue& v, const std::string& path,
                          FaultHazards out) {
  ObjectReader r(v, path);
  r.number("crash_per_node", out.crash_per_node, 0.0, 1.0);
  r.number("stun_per_node", out.stun_per_node, 0.0, 1.0);
  r.int_field("stun_rounds", out.stun_rounds, 0);
  r.number("fade_per_node", out.fade_per_node, 0.0, 1.0);
  r.number("fade_fraction", out.fade_fraction, 0.0, 1.0);
  r.number("degrade_episode", out.degrade_episode, 0.0, 1.0);
  r.int_field("degrade_rounds", out.degrade_rounds, 0);
  r.number("degrade_factor", out.degrade_factor, 0.0, 1.0);
  r.number("bs_outage", out.bs_outage, 0.0, 1.0);
  r.int_field("bs_outage_rounds", out.bs_outage_rounds, 0);
  r.finish();
  return out;
}

FaultConfig read_fault(const JsonValue& v, const std::string& path,
                       FaultConfig out) {
  ObjectReader r(v, path);
  r.boolean("enabled", out.enabled);
  r.seed_field("seed", out.seed);
  if (const JsonValue* j = r.find("plan")) {
    ObjectReader plan(*j, r.sub("plan"));
    if (const JsonValue* ev = plan.find("events")) {
      if (!ev->is_array())
        throw ConfigError(plan.sub("events"),
                          "expected array, got " + describe(*ev));
      out.plan.events.clear();
      for (std::size_t i = 0; i < ev->size(); ++i)
        out.plan.events.push_back(read_fault_event(
            ev->at(i), plan.sub("events") + "[" + std::to_string(i) + "]"));
    }
    plan.finish();
  }
  if (const JsonValue* j = r.find("hazards"))
    out.hazards = read_hazards(*j, r.sub("hazards"), out.hazards);
  r.finish();
  return out;
}

obs::TelemetryOptions read_telemetry(const JsonValue& v,
                                     const std::string& path,
                                     obs::TelemetryOptions out) {
  ObjectReader r(v, path);
  r.boolean("enabled", out.enabled);
  enum_field(r, "sink", out.sink, sink_table());
  r.string_field("events_path", out.events_path);
  r.size_field("ring_capacity", out.ring_capacity, 1);
  r.boolean("per_packet_events", out.per_packet_events);
  r.boolean("trace_phases", out.trace_phases);
  r.string_field("trace_path", out.trace_path);
  r.string_field("metrics_path", out.metrics_path);
  r.finish();
  return out;
}

EnvConfig read_env(const JsonValue& v, const std::string& path,
                   EnvConfig out) {
  ObjectReader r(v, path);
  r.boolean("enabled", out.enabled);
  r.number("atten_per_unit", out.atten_per_unit, 0.0);
  r.number("sever_depth", out.sever_depth, 0.0);
  if (const JsonValue* j = r.find("obstacles")) {
    if (!j->is_array())
      throw ConfigError(r.sub("obstacles"),
                        "expected array, got " + describe(*j));
    out.obstacles.clear();
    for (std::size_t i = 0; i < j->size(); ++i) {
      const std::string opath =
          r.sub("obstacles") + "[" + std::to_string(i) + "]";
      ObjectReader o(j->at(i), opath);
      EnvObstacle ob;
      if (const JsonValue* b = o.find("box"))
        ob.box = read_aabb(*b, o.sub("box"), ob.box);
      o.number("extra_atten", ob.extra_atten, 0.0);
      o.finish();
      out.obstacles.push_back(ob);
    }
  }
  if (const JsonValue* j = r.find("terrain")) {
    ObjectReader t(*j, r.sub("terrain"));
    t.boolean("enabled", out.terrain.enabled);
    t.number("amplitude_frac", out.terrain.amplitude_frac, 0.0);
    t.number("base_frac", out.terrain.base_frac, 0.0, 1.0);
    t.finish();
  }
  if (const JsonValue* j = r.find("water")) {
    ObjectReader wa(*j, r.sub("water"));
    wa.boolean("enabled", out.water.enabled);
    wa.number("surface_frac", out.water.surface_frac, 0.0, 1.0);
    wa.number("alpha_per_unit", out.water.alpha_per_unit, 0.0);
    wa.number("amp_depth_scale", out.water.amp_depth_scale, 0.0);
    wa.finish();
  }
  if (const JsonValue* j = r.find("harvest")) {
    ObjectReader h(*j, r.sub("harvest"));
    h.number("per_round", out.harvest.per_round, 0.0);
    h.number("depth_decay", out.harvest.depth_decay, 0.0);
    h.number("min_factor", out.harvest.min_factor, 0.0, 1.0);
    h.finish();
  }
  r.finish();
  return out;
}

BsTrajectoryConfig read_bs_trajectory(const JsonValue& v,
                                      const std::string& path,
                                      BsTrajectoryConfig out) {
  ObjectReader r(v, path);
  if (const JsonValue* j = r.find("trajectory")) {
    ObjectReader t(*j, r.sub("trajectory"));
    enum_field(t, "kind", out.kind, trajectory_table());
    if (const JsonValue* wp = t.find("waypoints")) {
      if (!wp->is_array())
        throw ConfigError(t.sub("waypoints"),
                          "expected array, got " + describe(*wp));
      out.waypoints.clear();
      for (std::size_t i = 0; i < wp->size(); ++i)
        out.waypoints.push_back(read_vec3(
            wp->at(i), t.sub("waypoints") + "[" + std::to_string(i) + "]"));
    }
    t.number("speed", out.speed, 0.0);
    t.boolean("loop", out.loop);
    if (const JsonValue* c = t.find("orbit_center"))
      out.orbit_center = read_vec3(*c, t.sub("orbit_center"));
    t.number("orbit_radius", out.orbit_radius, 0.0);
    t.int_field("orbit_period", out.orbit_period, 1);
    t.finish();
  }
  r.finish();
  return out;
}

SimConfig read_sim(const JsonValue& v, const std::string& path,
                   SimConfig out) {
  ObjectReader r(v, path);
  r.int_field("rounds", out.rounds, 1);
  r.int_field("slots_per_round", out.slots_per_round, 1);
  r.number("mean_interarrival", out.mean_interarrival);
  r.number("packet_bits", out.packet_bits, 0.0, kInf, /*lo_open=*/true);
  r.size_field("queue_capacity", out.queue_capacity, 1);
  r.int_field("service_per_slot", out.service_per_slot, 0);
  r.number("compression", out.compression, 0.0, 1.0);
  enum_field(r, "aggregation", out.aggregation, aggregation_table());
  r.number("death_line", out.death_line);
  r.int_field("max_retries", out.max_retries, 0);
  if (const JsonValue* j = r.find("radio"))
    out.radio = read_radio(*j, r.sub("radio"), out.radio);
  if (const JsonValue* j = r.find("link"))
    out.link = read_link(*j, r.sub("link"), out.link);
  if (const JsonValue* j = r.find("mobility"))
    out.mobility = read_mobility(*j, r.sub("mobility"), out.mobility);
  r.number("harvest_per_round", out.harvest_per_round, 0.0);
  r.number("idle_listen_j_per_slot", out.idle_listen_j_per_slot, 0.0);
  if (const JsonValue* j = r.find("audit")) {
    ObjectReader a(*j, r.sub("audit"));
    a.boolean("enabled", out.audit.enabled);
    a.boolean("throw_on_violation", out.audit.throw_on_violation);
    a.finish();
  }
  if (const JsonValue* j = r.find("trace")) {
    ObjectReader t(*j, r.sub("trace"));
    t.boolean("record", out.trace.record);
    t.boolean("stop_at_first_death", out.trace.stop_at_first_death);
    t.finish();
  }
  if (const JsonValue* j = r.find("fault"))
    out.fault = read_fault(*j, r.sub("fault"), out.fault);
  if (const JsonValue* j = r.find("telemetry"))
    out.telemetry = read_telemetry(*j, r.sub("telemetry"), out.telemetry);
  if (const JsonValue* j = r.find("mac")) {
    ObjectReader m(*j, r.sub("mac"));
    m.boolean("enabled", out.mac.enabled);
    m.seed_field("seed", out.mac.seed);
    m.int_field("airtime_subslots", out.mac.airtime_subslots, 1);
    m.number("cca_range", out.mac.cca_range, 0.0, kInf, /*lo_open=*/true);
    // A capture ratio below 1 would let a frame "capture" over interferers
    // louder than itself.
    m.number("capture_ratio", out.mac.capture_ratio, 1.0);
    m.int_field("max_retries", out.mac.max_retries, 0);
    m.int_field("cw_min", out.mac.cw_min, 1);
    m.int_field("cw_max", out.mac.cw_max, 1);
    m.number("duty_cycle", out.mac.duty_cycle, 0.0, 1.0, /*lo_open=*/true);
    m.number("idle_j_per_subslot", out.mac.idle_j_per_subslot, 0.0);
    m.finish();
  }
  if (const JsonValue* j = r.find("env"))
    out.env = read_env(*j, r.sub("env"), out.env);
  if (const JsonValue* j = r.find("exec")) {
    ObjectReader e(*j, r.sub("exec"));
    e.int_field("shards", out.exec.shards, 1);
    e.finish();
  }
  r.finish();
  return out;
}

QlecParams read_qlec_params(const JsonValue& v, const std::string& path,
                            QlecParams out) {
  ObjectReader r(v, path);
  r.number("gamma", out.gamma, 0.0, 1.0);
  r.number("alpha1", out.alpha1);
  r.number("alpha2", out.alpha2);
  r.number("beta1", out.beta1);
  r.number("beta2", out.beta2);
  r.number("compression", out.compression, 0.0, 1.0);
  r.number("g", out.g, 0.0);
  r.number("l", out.l, 0.0);
  r.number("epsilon", out.epsilon, 0.0, 1.0);
  // The *_scale knobs use <= 0 as a "derive from the deployment" sentinel,
  // so any finite value is legal.
  r.number("x_scale", out.x_scale);
  r.number("y_scale", out.y_scale);
  r.number("y_scale_bs", out.y_scale_bs);
  r.number("x_bs", out.x_bs);
  r.int_field("total_rounds", out.total_rounds, 1);
  r.boolean("use_energy_threshold", out.use_energy_threshold);
  r.boolean("reduce_redundancy", out.reduce_redundancy);
  r.boolean("top_up_to_k", out.top_up_to_k);
  r.number("hello_bits", out.hello_bits, 0.0);
  r.int_field("force_k", out.force_k, 0);
  r.finish();
  return out;
}

ControllerOptions read_controller(const JsonValue& v, const std::string& path,
                                  ControllerOptions out) {
  ObjectReader r(v, path);
  enum_field(r, "kind", out.kind, controller_kind_table());
  r.number("alpha", out.alpha, 0.0, 1.0);
  r.number("gamma", out.gamma, 0.0, 1.0);
  r.number("epsilon", out.epsilon, 0.0, 1.0);
  r.finish();
  return out;
}

ProtocolOptions read_protocol(const JsonValue& v, const std::string& path,
                              ProtocolOptions out) {
  ObjectReader r(v, path);
  if (const JsonValue* j = r.find("name")) {
    static const std::vector<std::string> names = protocol_names();
    if (!j->is_string() ||
        std::find(names.begin(), names.end(), j->as_string()) == names.end()) {
      std::string allowed;
      for (const std::string& n : names) {
        if (!allowed.empty()) allowed += '|';
        allowed += n;
      }
      throw ConfigError(r.sub("name"), "expected one of " + allowed +
                                           ", got " + describe(*j));
    }
    out.name = j->as_string();
  }
  if (const JsonValue* j = r.find("qlec"))
    out.qlec = read_qlec_params(*j, r.sub("qlec"), out.qlec);
  r.size_field("k", out.k, 0);
  r.int_field("fcm_levels", out.fcm_levels, 1);
  r.number("death_line", out.death_line);
  r.number("hello_bits", out.hello_bits, 0.0);
  if (const JsonValue* j = r.find("radio"))
    out.radio = read_radio(*j, r.sub("radio"), out.radio);
  enum_field(r, "sector_mode", out.sector_mode, sector_mode_table());
  if (const JsonValue* j = r.find("controller"))
    out.controller =
        read_controller(*j, r.sub("controller"), out.controller);
  r.finish();
  return out;
}

}  // namespace

ConfigError::ConfigError(std::string path, const std::string& problem)
    : std::runtime_error(path.empty() ? problem : path + ": " + problem),
      path_(std::move(path)) {}

const char* bs_placement_name(BsPlacement b) noexcept {
  return table_name(bs_table(), b);
}

const char* aggregation_name(Aggregation a) noexcept {
  return table_name(aggregation_table(), a);
}

const char* mobility_kind_name(MobilityKind k) noexcept {
  return table_name(mobility_table(), k);
}

const char* telemetry_sink_name(obs::TelemetryOptions::Sink s) noexcept {
  return table_name(sink_table(), s);
}

void write_experiment(JsonWriter& w, const ExperimentConfig& cfg) {
  w.begin_object();
  w.key("scenario");
  write_scenario(w, cfg.scenario);
  w.key("sim");
  write_sim(w, cfg.sim);
  w.key("protocol");
  write_protocol(w, cfg.protocol);
  w.key("seeds"); w.value(cfg.seeds);
  w.key("base_seed"); w.value(static_cast<unsigned long long>(cfg.base_seed));
  w.key("deployment"); w.value(deployment_name(cfg.deployment));
  // The mobile-sink block rides at the top level (it configures the BS,
  // not a per-node simulation knob) but stores into sim.bs_trajectory.
  w.key("bs"); write_bs_trajectory(w, cfg.sim.bs_trajectory);
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
  if (const JsonValue* j = r.find("scenario"))
    out.scenario = read_scenario(*j, r.sub("scenario"), out.scenario);
  if (const JsonValue* j = r.find("sim"))
    out.sim = read_sim(*j, r.sub("sim"), out.sim);
  if (const JsonValue* j = r.find("protocol"))
    out.protocol = read_protocol(*j, r.sub("protocol"), out.protocol);
  r.size_field("seeds", out.seeds, 1);
  r.seed_field("base_seed", out.base_seed);
  enum_field(r, "deployment", out.deployment, deployment_table());
  if (const JsonValue* j = r.find("bs"))
    out.sim.bs_trajectory =
        read_bs_trajectory(*j, r.sub("bs"), out.sim.bs_trajectory);
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
