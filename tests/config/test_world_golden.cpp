// Golden pins for the terrain-aware world library (DESIGN.md §16). Three
// representative worlds — terrain occlusion, an underwater column, and an
// orbiting sink — run through the declarative path and must reproduce the
// committed tests/golden/world_*.digest files bit-for-bit, and so must
// mountain_ridge with moving nodes and an orbiting sink laid over it
// (world_mountain_ridge_mobile.digest). Alongside them,
// the library-wide parse sweep and the env-neutrality guard: enabling an
// empty environment on the frozen golden scenario must leave every
// committed per-protocol digest untouched. MacGolden pins the MAC-enabled
// trajectories the same way: the contention scenario's 24 cells, half of
// them through the slotted-CSMA engine (DESIGN.md §14), must reproduce
// tests/golden/mac_validation.digest.
//
// Regenerate after an intentional model change with
//   QLEC_REGEN_GOLDEN=1 ctest -R 'WorldGolden|MacGolden'
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "sim/protocols/registry.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace qlec::config {
namespace {

#ifndef QLEC_SCENARIO_DIR
#error "QLEC_SCENARIO_DIR must point at examples/scenarios"
#endif
#ifndef QLEC_GOLDEN_DIR
#error "QLEC_GOLDEN_DIR must point at tests/golden"
#endif

// The pinned trio: one per environment pillar (terrain occlusion, water
// column, mobile sink). The golden file holds every sweep cell's digests
// in expansion order.
const char* const kGoldenWorlds[] = {"mountain_ridge", "underwater_column",
                                     "mule_orbit"};

std::string world_text(const std::string& stem) {
  const std::string path =
      std::string(QLEC_SCENARIO_DIR) + "/worlds/" + stem + ".json";
  const auto text = read_text_file(path);
  EXPECT_TRUE(text.has_value()) << "missing world scenario " << path;
  return text.value_or("{}");
}

std::vector<std::string> read_digest_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  return lines;
}

/// Runs `stem`'s world with `overrides` applied and compares every cell's
/// digests with tests/golden/world_<golden>.digest (or rewrites that file
/// under QLEC_REGEN_GOLDEN=1).
void expect_world_golden(const char* stem, const std::string& golden,
                         const std::vector<Override>& overrides = {}) {
  const std::string golden_path =
      std::string(QLEC_GOLDEN_DIR) + "/world_" + golden + ".digest";
  const ScenarioFile scenario = parse_scenario(world_text(stem));
  const RunManifest m = run_grid(expand_grid(scenario, overrides));
  ASSERT_FALSE(m.cells.empty()) << stem;

  if (env::regen_golden()) {
    std::ofstream out(golden_path);
    out << "# " << scenario.name << "\n";
    for (const CellResult& c : m.cells) {
      out << "# cell: " << (c.label.empty() ? "(base)" : c.label) << "\n";
      for (const std::string& d : c.digests) out << d << "\n";
    }
    return;
  }

  std::vector<std::string> digests;
  for (const CellResult& c : m.cells)
    for (const std::string& d : c.digests) digests.push_back(d);
  const std::vector<std::string> golden_lines = read_digest_lines(golden_path);
  ASSERT_FALSE(golden_lines.empty())
      << "missing " << golden_path
      << " — run with QLEC_REGEN_GOLDEN=1 to (re)generate";
  EXPECT_EQ(digests, golden_lines)
      << golden << " diverged from its committed world digests. If the "
      << "model change is intentional, regenerate with "
      << "QLEC_REGEN_GOLDEN=1 and commit tests/golden/world_" << golden
      << ".digest.";
}

TEST(WorldGolden, PinnedWorldsMatchCommittedDigests) {
  for (const char* stem : kGoldenWorlds) expect_world_golden(stem, stem);
}

TEST(WorldGolden, MovingNodesUnderTerrainAndAnOrbitingSink) {
  // The only pinned world where node positions AND the sink move while
  // occlusion is on: mountain_ridge with random-walk nodes and an orbiting
  // BS. Any per-round memo of a position-dependent quantity that outlives
  // a mobility step or a trajectory update diverges here.
  const auto num = [](double v) { return JsonValue::make_number(v); };
  const std::vector<Override> overrides = {
      {"sim.mobility.kind", JsonValue::make_string("random_walk")},
      {"sim.mobility.speed", num(8.0)},
      {"bs.trajectory.kind", JsonValue::make_string("orbit")},
      {"bs.trajectory.orbit_center",
       JsonValue::make_array({num(100.0), num(100.0), num(200.0)})},
      {"bs.trajectory.orbit_radius", num(70.0)},
      {"bs.trajectory.orbit_period", num(5.0)},
  };
  expect_world_golden("mountain_ridge", "mountain_ridge_mobile", overrides);
}

TEST(MacGolden, ContentionScenarioMatchesCommittedDigests) {
  // The file qlec_run --expect-digests reads in CI mac-smoke, in the
  // format qlec_run --digest prints.
  const std::string golden_path =
      std::string(QLEC_GOLDEN_DIR) + "/mac_validation.digest";
  const auto text = read_text_file(std::string(QLEC_SCENARIO_DIR) +
                                   "/mac_validation.json");
  ASSERT_TRUE(text.has_value());
  auto cells = expand_grid(parse_scenario(*text));
  for (SweepCell& c : cells) c.config.sim.trace.record = true;
  const RunManifest m = run_grid(cells);
  ASSERT_EQ(m.cells.size(), 24u);
  EXPECT_TRUE(std::any_of(m.cells.begin(), m.cells.end(),
                          [](const CellResult& c) {
                            return c.config.sim.mac.enabled;
                          }));

  if (env::regen_golden()) {
    std::ofstream(golden_path) << manifest_digest_lines(m);
    return;
  }
  std::vector<std::string> digests;
  for (const CellResult& c : m.cells)
    digests.insert(digests.end(), c.digests.begin(), c.digests.end());
  const std::vector<std::string> golden = read_digest_lines(golden_path);
  ASSERT_FALSE(golden.empty())
      << "missing " << golden_path
      << " — run with QLEC_REGEN_GOLDEN=1 to (re)generate";
  EXPECT_EQ(digests, golden)
      << "the contention scenario diverged from its committed digests. If "
      << "the model change is intentional, regenerate with "
      << "QLEC_REGEN_GOLDEN=1 and commit tests/golden/mac_validation.digest.";
}

TEST(WorldGolden, WholeWorldLibraryParsesAndExpands) {
  const std::string dir = std::string(QLEC_SCENARIO_DIR) + "/worlds";
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".json")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 10u) << "the world library shrank below spec";
  for (const std::string& file : files) {
    const auto text = read_text_file(file);
    ASSERT_TRUE(text.has_value()) << file;
    std::vector<SweepCell> cells;
    ASSERT_NO_THROW(cells = expand_grid(parse_scenario(*text))) << file;
    EXPECT_FALSE(cells.empty()) << file;
    // Every world must be replayable: the digest contract needs traces.
    for (const SweepCell& c : cells)
      EXPECT_TRUE(c.config.sim.trace.record) << file;
  }
}

TEST(WorldGolden, EmptyEnvironmentIsDigestNeutralOnGoldenReplay) {
  // The tentpole contract, pinned against the frozen baseline itself:
  // flipping sim.env.enabled with no obstacles/terrain/water/harvest
  // configured must reproduce every committed per-protocol digest.
  const auto text =
      read_text_file(std::string(QLEC_SCENARIO_DIR) + "/golden_replay.json");
  ASSERT_TRUE(text.has_value());
  const std::vector<Override> overrides = {
      {"sim.env.enabled", JsonValue::make_bool(true)}};
  const RunManifest m =
      run_grid(expand_grid(parse_scenario(*text), overrides));
  ASSERT_EQ(m.cells.size(), protocol_names().size());
  for (const CellResult& c : m.cells) {
    const std::string protocol = c.config.protocol.name;
    EXPECT_TRUE(c.config.sim.env.enabled);
    const std::vector<std::string> golden = read_digest_lines(
        std::string(QLEC_GOLDEN_DIR) + "/" + protocol + ".digest");
    ASSERT_FALSE(golden.empty()) << protocol;
    EXPECT_EQ(c.digests, golden)
        << protocol << ": an empty enabled environment changed the trace — "
        << "the digest-neutral-when-disabled contract is broken.";
  }
}

}  // namespace
}  // namespace qlec::config
