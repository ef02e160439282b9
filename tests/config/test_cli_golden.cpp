// Golden integration tests for the committed scenario files: the
// declarative path (scenario JSON -> expand -> run) must reproduce the
// exact digests the code-driven golden harness committed, the Fig. 3
// sweep file must expand to the documented grid, and every paper scenario
// must equal the bench_common.hpp config it stands for. The ctest targets
// qlec_run.golden_paper51 / qlec_run.dry_run_grid cover the same ground
// through the real binary.
//
// Regenerate tests/golden/paper_51.qlec.digest after an intentional model
// change with  QLEC_REGEN_GOLDEN=1 ctest -R CliGolden  (the per-protocol
// digests are owned by tests/sim/test_golden_traces.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "config/jobs.hpp"
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

std::string scenario_text(const std::string& file) {
  const auto text =
      read_text_file(std::string(QLEC_SCENARIO_DIR) + "/" + file);
  EXPECT_TRUE(text.has_value()) << "missing scenario " << file;
  return text.value_or("{}");
}

std::vector<std::string> read_digest_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  return lines;
}

TEST(CliGolden, GoldenReplayScenarioMatchesPerProtocolDigests) {
  // The file-driven run of the frozen golden scenario must equal the
  // code-driven digests committed by tests/sim/test_golden_traces.cpp —
  // proving config parsing changes nothing about the simulation.
  const auto cells =
      expand_grid(parse_scenario(scenario_text("golden_replay.json")));
  ASSERT_EQ(cells.size(), protocol_names().size());  // one per protocol
  const RunManifest m = run_grid(cells);
  for (const CellResult& c : m.cells) {
    const std::string protocol = c.config.protocol.name;
    const std::vector<std::string> golden = read_digest_lines(
        std::string(QLEC_GOLDEN_DIR) + "/" + protocol + ".digest");
    ASSERT_FALSE(golden.empty()) << protocol;
    EXPECT_EQ(c.digests, golden)
        << protocol << ": scenario-file run diverged from the committed "
        << "golden digest — the config layer altered the simulation.";
  }
}

TEST(CliGolden, Paper51MatchesCommittedDigest) {
  const std::string golden_path =
      std::string(QLEC_GOLDEN_DIR) + "/paper_51.qlec.digest";
  auto cells = expand_grid(parse_scenario(scenario_text("paper_51.json")));
  ASSERT_EQ(cells.size(), 1u);
  // The CLI's --digest switch: recording traces is observational.
  cells[0].config.sim.trace.record = true;
  const RunManifest m = run_grid(cells);
  ASSERT_EQ(m.cells.size(), 1u);
  ASSERT_EQ(m.cells[0].digests.size(), cells[0].config.seeds);

  if (env::regen_golden()) {
    std::ofstream out(golden_path);
    out << "# (base)\n";
    for (const std::string& d : m.cells[0].digests) out << d << "\n";
    return;
  }
  const std::vector<std::string> golden = read_digest_lines(golden_path);
  ASSERT_FALSE(golden.empty())
      << "missing " << golden_path
      << " — run with QLEC_REGEN_GOLDEN=1 to (re)generate";
  EXPECT_EQ(m.cells[0].digests, golden)
      << "paper_51 scenario diverged from its committed digest. If the "
      << "model change is intentional, regenerate with QLEC_REGEN_GOLDEN=1 "
      << "and commit tests/golden/paper_51.qlec.digest.";
}

TEST(CliGolden, Fig3SweepExpandsToDocumentedGrid) {
  // The --dry-run grid-shape contract for the committed sweep file: the
  // whole registry crossed with the four congestion levels of §5.2.
  const auto cells =
      expand_grid(parse_scenario(scenario_text("fig3_sweep.json")));
  const std::vector<std::string> protocols = protocol_names();
  const std::vector<double> lambdas = bench::lambda_sweep();
  ASSERT_EQ(cells.size(), protocols.size() * lambdas.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].config.protocol.name, protocols[i / lambdas.size()])
        << i;
    EXPECT_DOUBLE_EQ(cells[i].config.sim.mean_interarrival,
                     lambdas[i % lambdas.size()])
        << i;
    EXPECT_EQ(cells[i].config.scenario.n, 100u);
    EXPECT_EQ(cells[i].config.seeds, 5u);
  }
}

TEST(CliGolden, PaperScenariosMatchBenchConfigs) {
  // The committed scenarios are the one definition of the §5.1 grid and of
  // its ablations: every cell must key-equal the bench_common.hpp builder
  // it replaces, with the cell's swept fields applied. Unset the bench
  // knobs first so the builders return their full-size configs.
  unsetenv("QLEC_BENCH_FAST");
  unsetenv("QLEC_BENCH_SEEDS");
  struct Case {
    const char* file;
    ExperimentConfig (*expected)(const ExperimentConfig& cell);
  };
  const Case cases[] = {
      {"fig3_sweep.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::paper_config(c.sim.mean_interarrival);
         e.protocol.name = c.protocol.name;
         return e;
       }},
      {"fig3_lifespan.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::lifespan_config(c.sim.mean_interarrival);
         e.protocol.name = c.protocol.name;
         return e;
       }},
      {"ablation_gamma.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::paper_config(2.0);
         e.protocol.name = "qlec";
         e.protocol.qlec.gamma = c.protocol.qlec.gamma;
         return e;
       }},
      {"ablation_heterogeneity.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::lifespan_config(4.0);
         e.protocol.name = c.protocol.name;
         e.scenario.energy_heterogeneity = c.scenario.energy_heterogeneity;
         return e;
       }},
      {"ablation_ksweep.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::lifespan_config(4.0);
         e.protocol.name = "qlec";
         e.protocol.qlec.force_k = c.protocol.qlec.force_k;
         return e;
       }},
      {"ablation_ksweep_eq6.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::paper_config(20.0);
         e.protocol.name = "qlec";
         e.sim.aggregation = Aggregation::kFixedSummary;
         e.protocol.qlec.force_k = c.protocol.qlec.force_k;
         return e;
       }},
      {"ablation_improvements.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::lifespan_config(4.0);
         e.protocol.name = "qlec";
         e.protocol.qlec.use_energy_threshold =
             c.protocol.qlec.use_energy_threshold;
         e.protocol.qlec.reduce_redundancy = c.protocol.qlec.reduce_redundancy;
         return e;
       }},
      {"ablation_mobility.json",
       [](const ExperimentConfig& c) {
         ExperimentConfig e = bench::paper_config(4.0);
         e.protocol.name = c.protocol.name;
         e.sim.mobility.kind = MobilityKind::kRandomWaypoint;
         e.sim.mobility.speed = c.sim.mobility.speed;
         return e;
       }},
  };
  for (const Case& c : cases) {
    const auto cells = expand_grid(parse_scenario(scenario_text(c.file)));
    ASSERT_FALSE(cells.empty()) << c.file;
    for (const SweepCell& cell : cells)
      EXPECT_EQ(job_key(cell.config), job_key(c.expected(cell.config)))
          << c.file << " " << cell.label;
  }
}

TEST(CliGolden, AllCommittedScenariosParseAndExpand) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(QLEC_SCENARIO_DIR))
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 12u);
  for (const std::filesystem::path& file : files) {
    std::vector<SweepCell> cells;
    ASSERT_NO_THROW(cells = expand_grid(parse_scenario(
                        scenario_text(file.filename().string()))))
        << file;
    EXPECT_FALSE(cells.empty()) << file;
  }
}

TEST(CliGolden, ResilienceScenarioCarriesFaultBlock) {
  const auto cells =
      expand_grid(parse_scenario(scenario_text("resilience.json")));
  ASSERT_EQ(cells.size(), 3u);
  for (const SweepCell& c : cells) {
    EXPECT_TRUE(c.config.sim.fault.enabled);
    EXPECT_DOUBLE_EQ(c.config.sim.fault.hazards.crash_per_node, 0.004);
    EXPECT_EQ(c.config.sim.fault.seed, 0xFA17u);
  }
}

}  // namespace
}  // namespace qlec::config
