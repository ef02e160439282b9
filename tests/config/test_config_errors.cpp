// Adversarial battery for the schema binding: every rejection must be a
// ConfigError whose path() names the exact offending node and whose what()
// reads "<path>: <problem>". Covers malformed documents, wrong-typed
// leaves, duplicate keys, unknown keys, NaN/Inf smuggling, depth-cap
// nesting, out-of-domain values, and a deterministic mutation fuzzer over
// a valid document.
#include "config/schema.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/sweep.hpp"
#include "digest.hpp"
#include "support/parse_experiment.hpp"
#include "util/rng.hpp"

namespace qlec::config {
namespace {

/// Asserts `text` is rejected and the error anchors at `path` with a
/// message containing `fragment`.
void expect_rejected(const std::string& text, const std::string& path,
                     const std::string& fragment = "") {
  try {
    parse_experiment(text);
    FAIL() << "accepted: " << text;
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.path(), path) << text << "\n  what(): " << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "what() = \"" << e.what() << "\" lacks \"" << fragment << '"';
    if (!path.empty()) {
      EXPECT_EQ(std::string(e.what()).rfind(path + ": ", 0), 0u)
          << "what() must start with the path: " << e.what();
    }
  }
}

TEST(ConfigErrors, MalformedJsonIsConfigError) {
  expect_rejected("", "", "malformed JSON");
  expect_rejected("{", "", "malformed JSON");
  expect_rejected("{\"scenario\": }", "", "malformed JSON");
  expect_rejected("{} trailing", "", "malformed JSON");
  expect_rejected("'single quotes'", "", "malformed JSON");
}

TEST(ConfigErrors, RootMustBeObject) {
  expect_rejected("[]", "", "expected object, got array");
  expect_rejected("42", "", "expected object, got 42");
  expect_rejected("null", "", "expected object, got null");
  expect_rejected("\"qlec\"", "", "expected object");
}

TEST(ConfigErrors, WrongTypedLeaves) {
  expect_rejected(R"({"scenario": {"n": "many"}})", "scenario.n",
                  "expected integer ≥ 1, got \"many\"");
  expect_rejected(R"({"scenario": {"n": 2.5}})", "scenario.n",
                  "expected integer");
  expect_rejected(R"({"sim": {"rounds": true}})", "sim.rounds",
                  "expected integer ≥ 1, got true");
  expect_rejected(R"({"sim": {"trace": {"record": "yes"}}})",
                  "sim.trace.record", "expected true or false, got \"yes\"");
  expect_rejected(R"({"sim": {"telemetry": {"events_path": 3}}})",
                  "sim.telemetry.events_path", "expected string, got 3");
  expect_rejected(R"({"scenario": 7})", "scenario", "expected object, got 7");
  expect_rejected(R"({"sim": {"radio": []}})", "sim.radio",
                  "expected object, got array");
}

TEST(ConfigErrors, OutOfDomainNumbers) {
  expect_rejected(R"({"scenario": {"n": 0}})", "scenario.n", "≥ 1");
  expect_rejected(R"({"scenario": {"m_side": 0}})", "scenario.m_side",
                  "number > 0, got 0");
  expect_rejected(R"({"scenario": {"energy_heterogeneity": 1.5}})",
                  "scenario.energy_heterogeneity",
                  "expected number in [0, 1], got 1.5");
  expect_rejected(R"({"sim": {"compression": -0.1}})", "sim.compression",
                  "in [0, 1]");
  expect_rejected(
      R"({"sim": {"fault": {"hazards": {"crash_per_node": "high"}}}})",
      "sim.fault.hazards.crash_per_node",
      "expected number in [0, 1], got \"high\"");
  expect_rejected(R"({"sim": {"radio": {"eps_mp": 0}}})", "sim.radio.eps_mp",
                  "number > 0");
  expect_rejected(R"({"protocol": {"controller": {"alpha": 1.5}}})",
                  "protocol.controller.alpha",
                  "expected number in [0, 1], got 1.5");
  expect_rejected(R"({"protocol": {"controller": {"epsilon": -0.2}}})",
                  "protocol.controller.epsilon", "in [0, 1]");
  expect_rejected(R"({"seeds": 0})", "seeds", "≥ 1");
  expect_rejected(R"({"base_seed": -1})", "base_seed", "≥ 0");
}

TEST(ConfigErrors, MacBlockValidated) {
  // The sim.mac.* schema: strict unknown-key rejection plus the domain
  // bounds documented in sim/mac/mac.hpp, all path-qualified.
  expect_rejected(R"({"sim": {"mac": {"slot_len": 3}}})", "sim.mac.slot_len",
                  "unknown key");
  expect_rejected(R"({"sim": {"mac": {"airtime_subslots": 0}}})",
                  "sim.mac.airtime_subslots", "expected integer ≥ 1, got 0");
  expect_rejected(R"({"sim": {"mac": {"airtime_subslots": -2}}})",
                  "sim.mac.airtime_subslots", "≥ 1");
  expect_rejected(R"({"sim": {"mac": {"cca_range": 0}}})", "sim.mac.cca_range",
                  "expected number > 0, got 0");
  expect_rejected(R"({"sim": {"mac": {"capture_ratio": 0.5}}})",
                  "sim.mac.capture_ratio", "expected number ≥ 1, got 0.5");
  expect_rejected(R"({"sim": {"mac": {"max_retries": -1}}})",
                  "sim.mac.max_retries", "≥ 0");
  expect_rejected(R"({"sim": {"mac": {"cw_min": 0}}})", "sim.mac.cw_min",
                  "≥ 1");
  expect_rejected(R"({"sim": {"mac": {"cw_max": 0}}})", "sim.mac.cw_max",
                  "≥ 1");
  expect_rejected(R"({"sim": {"mac": {"duty_cycle": 0}}})",
                  "sim.mac.duty_cycle", "expected number in [0, 1], got 0");
  expect_rejected(R"({"sim": {"mac": {"duty_cycle": 1.5}}})",
                  "sim.mac.duty_cycle", "in [0, 1]");
  expect_rejected(R"({"sim": {"mac": {"idle_j_per_subslot": -0.1}}})",
                  "sim.mac.idle_j_per_subslot", "≥ 0");
  expect_rejected(R"({"sim": {"mac": {"enabled": "on"}}})", "sim.mac.enabled",
                  "expected true or false, got \"on\"");
  expect_rejected(R"({"sim": {"mac": {"seed": -1}}})", "sim.mac.seed", "≥ 0");
  expect_rejected(R"({"sim": {"mac": []}})", "sim.mac",
                  "expected object, got array");
}

TEST(ConfigErrors, IntegersBeyondExactDoubleRangeRejected) {
  // 2^53 + 2 is representable as a double but not an exact odd integer
  // neighborhood; anything above the exact window is refused outright.
  expect_rejected(R"({"base_seed": 9007199254740994})", "base_seed",
                  "expected integer");
  expect_rejected(R"({"base_seed": 1e300})", "base_seed", "expected integer");
}

TEST(ConfigErrors, NanAndInfRejected) {
  // Bare tokens are malformed JSON at the parser layer...
  expect_rejected(R"({"sim": {"death_line": NaN}})", "", "malformed JSON");
  expect_rejected(R"({"sim": {"death_line": Infinity}})", "",
                  "malformed JSON");
  // ...and overflow-to-inf literals die at the binding layer.
  expect_rejected(R"({"sim": {"death_line": 1e999}})", "sim.death_line",
                  "finite number");
  expect_rejected(R"({"sim": {"death_line": -1e999}})", "sim.death_line",
                  "finite number");
}

TEST(ConfigErrors, UnknownKeysRejectedAtEveryLevel) {
  expect_rejected(R"({"scenariox": {}})", "scenariox", "unknown key");
  expect_rejected(R"({"scenario": {"nn": 5}})", "scenario.nn", "unknown key");
  expect_rejected(R"({"sim": {"fault": {"hazard": {}}}})", "sim.fault.hazard",
                  "unknown key");
  expect_rejected(R"({"protocol": {"qlec": {"gama": 0.9}}})",
                  "protocol.qlec.gama", "unknown key");
  expect_rejected(R"({"sim": {"telemetry": {"sinks": "ring"}}})",
                  "sim.telemetry.sinks", "unknown key");
}

TEST(ConfigErrors, DuplicateKeysRejected) {
  expect_rejected(R"({"seeds": 1, "seeds": 2})", "seeds", "duplicate key");
  expect_rejected(R"({"scenario": {"n": 5, "n": 6}})", "scenario.n",
                  "duplicate key");
  expect_rejected(
      R"({"sim": {"audit": {"enabled": true, "enabled": true}}})",
      "sim.audit.enabled", "duplicate key");
}

TEST(ConfigErrors, EnumTokensValidated) {
  expect_rejected(R"({"scenario": {"bs": "middle"}})", "scenario.bs",
                  "expected one of center|top_face_center|corner|external, "
                  "got \"middle\"");
  expect_rejected(R"({"sim": {"aggregation": "zip"}})", "sim.aggregation",
                  "ratio_compress|fixed_summary");
  expect_rejected(R"({"sim": {"mobility": {"kind": 3}}})",
                  "sim.mobility.kind", "none|random_walk|random_waypoint");
  expect_rejected(R"({"deployment": "underwater"}      )", "deployment",
                  "uniform|terrain");
  expect_rejected(R"({"protocol": {"name": "aodv"}})", "protocol.name",
                  "got \"aodv\"");
  expect_rejected(R"({"protocol": {"sector_mode": "hemisphere"}})",
                  "protocol.sector_mode", "quadrant|octant");
  expect_rejected(R"({"protocol": {"controller": {"kind": "ppo"}}})",
                  "protocol.controller.kind", "rl-lite|passthrough");
  expect_rejected(R"({"sim": {"fault": {"plan": {"events":
      [{"kind": "meteor"}]}}}})",
                  "sim.fault.plan.events[0].kind", "crash|");
}

TEST(ConfigErrors, ArrayElementPathsAreIndexed) {
  expect_rejected(R"({"sim": {"fault": {"plan": {"events":
      [{"round": 1}, {"severity": 2}]}}}})",
                  "sim.fault.plan.events[1].severity", "in [0, 1]");
  expect_rejected(R"({"sim": {"fault": {"plan": {"events": {}}}}})",
                  "sim.fault.plan.events", "expected array, got object");
  expect_rejected(
      R"({"sim": {"fault": {"plan": {"events": [{"region":
      {"lo": [1, 2]}}]}}}})",
      "sim.fault.plan.events[0].region.lo", "[x, y, z]");
}

TEST(ConfigErrors, DepthCapNesting) {
  // The JSON parser caps nesting at 128 levels; a hostile document dies
  // there as malformed input, not by overflowing the binder's stack.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "{\"sim\":";
  deep += "null";
  for (int i = 0; i < 200; ++i) deep += "}";
  expect_rejected(deep, "", "malformed JSON");
}

TEST(ConfigErrors, MutationFuzzValidDocumentNeverCrashes) {
  // Deterministic byte-level fuzz: mutate a valid document and require that
  // parse_experiment either succeeds or throws ConfigError — never anything
  // else, never a crash.
  const std::string base = experiment_to_json(ExperimentConfig{});
  Rng rng(0xF002);
  int rejected = 0, accepted = 0;
  for (int i = 0; i < 600; ++i) {
    std::string doc = base;
    const int edits = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{3}));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.uniform_int(std::uint64_t{doc.size()});
      switch (rng.uniform_int(std::uint64_t{3})) {
        case 0: doc[pos] = static_cast<char>(rng.uniform_int(
                    std::int64_t{32}, 126)); break;
        case 1: doc.erase(pos, 1); break;
        default: doc.insert(pos, 1, static_cast<char>(rng.uniform_int(
                     std::int64_t{32}, 126)));
      }
    }
    try {
      (void)parse_experiment(doc);
      ++accepted;
    } catch (const ConfigError&) {
      ++rejected;
    }
  }
  // The overwhelming majority of random mutations must be caught.
  EXPECT_GT(rejected, 400) << "accepted " << accepted << " mutants";
}

TEST(ConfigErrors, EnvBlockValidated) {
  // Every sim.env.* knob: wrong types, out-of-domain values, unknown keys,
  // and indexed obstacle paths — all anchored at the exact offending node.
  expect_rejected(R"({"sim": {"env": []}})", "sim.env",
                  "expected object, got array");
  expect_rejected(R"({"sim": {"env": {"enabled": "on"}}})",
                  "sim.env.enabled", "expected true or false, got \"on\"");
  expect_rejected(R"({"sim": {"env": {"atten_per_unit": -0.1}}})",
                  "sim.env.atten_per_unit", "number ≥ 0, got -0.1");
  expect_rejected(R"({"sim": {"env": {"sever_depth": -5}}})",
                  "sim.env.sever_depth", "number ≥ 0");
  expect_rejected(R"({"sim": {"env": {"obstacles": {}}}})",
                  "sim.env.obstacles", "expected array, got object");
  expect_rejected(
      R"({"sim": {"env": {"obstacles": [{}, {"extra_atten": -1}]}}})",
      "sim.env.obstacles[1].extra_atten", "number ≥ 0, got -1");
  expect_rejected(
      R"({"sim": {"env": {"obstacles": [{"box": {"lo": [1, 2]}}]}}})",
      "sim.env.obstacles[0].box.lo", "[x, y, z]");
  expect_rejected(
      R"({"sim": {"env": {"obstacles": [{"cube": {}}]}}})",
      "sim.env.obstacles[0].cube", "unknown key");
  expect_rejected(R"({"sim": {"env": {"terrain": 1}}})", "sim.env.terrain",
                  "expected object, got 1");
  expect_rejected(R"({"sim": {"env": {"terrain": {"amplitude_frac": -1}}}})",
                  "sim.env.terrain.amplitude_frac", "number ≥ 0, got -1");
  expect_rejected(R"({"sim": {"env": {"terrain": {"base_frac": 1.5}}}})",
                  "sim.env.terrain.base_frac",
                  "expected number in [0, 1], got 1.5");
  expect_rejected(R"({"sim": {"env": {"water": {"surface_frac": -0.2}}}})",
                  "sim.env.water.surface_frac", "in [0, 1]");
  expect_rejected(R"({"sim": {"env": {"water": {"alpha_per_unit": -1}}}})",
                  "sim.env.water.alpha_per_unit", "number ≥ 0");
  expect_rejected(R"({"sim": {"env": {"water": {"amp_depth_scale": -1}}}})",
                  "sim.env.water.amp_depth_scale", "number ≥ 0");
  expect_rejected(R"({"sim": {"env": {"harvest": {"per_round": -0.01}}}})",
                  "sim.env.harvest.per_round", "number ≥ 0");
  expect_rejected(R"({"sim": {"env": {"harvest": {"depth_decay": -1}}}})",
                  "sim.env.harvest.depth_decay", "number ≥ 0");
  expect_rejected(R"({"sim": {"env": {"harvest": {"min_factor": 2}}}})",
                  "sim.env.harvest.min_factor",
                  "expected number in [0, 1], got 2");
  expect_rejected(R"({"sim": {"env": {"grid": true}}})", "sim.env.grid",
                  "unknown key");
}

TEST(ConfigErrors, BsTrajectoryBlockValidated) {
  expect_rejected(R"({"bs": 7})", "bs", "expected object, got 7");
  expect_rejected(R"({"bs": {"placement": "corner"}})", "bs.placement",
                  "unknown key");
  expect_rejected(R"({"bs": {"trajectory": {"kind": "tour"}}})",
                  "bs.trajectory.kind",
                  "expected one of none|waypoint|orbit, got \"tour\"");
  expect_rejected(R"({"bs": {"trajectory": {"waypoints": 3}}})",
                  "bs.trajectory.waypoints", "expected array, got 3");
  expect_rejected(
      R"({"bs": {"trajectory": {"waypoints": [[0, 0, 0], [1, 2]]}}})",
      "bs.trajectory.waypoints[1]", "[x, y, z] array of 3 finite numbers");
  expect_rejected(R"({"bs": {"trajectory": {"speed": -1}}})",
                  "bs.trajectory.speed", "number ≥ 0, got -1");
  expect_rejected(R"({"bs": {"trajectory": {"loop": "yes"}}})",
                  "bs.trajectory.loop", "expected true or false");
  expect_rejected(R"({"bs": {"trajectory": {"orbit_center": "mid"}}})",
                  "bs.trajectory.orbit_center", "[x, y, z]");
  expect_rejected(R"({"bs": {"trajectory": {"orbit_radius": -2}}})",
                  "bs.trajectory.orbit_radius", "number ≥ 0");
  expect_rejected(R"({"bs": {"trajectory": {"orbit_period": 0}}})",
                  "bs.trajectory.orbit_period", "integer ≥ 1, got 0");
  expect_rejected(R"({"bs": {"trajectory": {"dwell": 2}}})",
                  "bs.trajectory.dwell", "unknown key");
}

/// Dotted paths of every non-object node under `v`; arrays count as leaves.
void collect_leaves(const JsonValue& v, const std::string& path,
                    std::vector<std::string>& out) {
  if (!v.is_object()) {
    out.push_back(path);
    return;
  }
  for (const auto& [key, member] : v.members())
    collect_leaves(member, path.empty() ? key : path + "." + key, out);
}

TEST(ConfigErrors, EveryLeafRejectsAWrongType) {
  const JsonValue doc = *parse_json(experiment_to_json(ExperimentConfig{}));
  std::vector<std::string> leaves;
  collect_leaves(doc, "", leaves);
  std::string whats;
  for (const std::string& leaf : leaves) {
    const JsonValue bad =
        with_path_set(doc, leaf, JsonValue::make_object({}));
    try {
      experiment_from_json(bad);
      ADD_FAILURE() << "accepted {} at " << leaf;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.path(), leaf) << e.what();
      whats += e.what();
      whats += '\n';
    }
  }
  EXPECT_EQ(leaves.size(), 120u);
  EXPECT_EQ(test::fnv1a64_hex(whats), "b2351d2370e1013f") << whats;
}

TEST(ConfigErrors, WhatIsPathColonProblem) {
  const ConfigError e("sim.fault.hazards.crash_per_node",
                      "expected number ≥ 0, got \"high\"");
  EXPECT_EQ(e.path(), "sim.fault.hazards.crash_per_node");
  EXPECT_STREQ(e.what(),
               "sim.fault.hazards.crash_per_node: expected number ≥ 0, "
               "got \"high\"");
  const ConfigError root("", "malformed JSON: oops");
  EXPECT_STREQ(root.what(), "malformed JSON: oops");
}

}  // namespace
}  // namespace qlec::config
