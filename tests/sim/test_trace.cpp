#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace qlec {
namespace {

ExperimentConfig traced_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 30;
  cfg.sim.rounds = 8;
  cfg.sim.slots_per_round = 10;
  cfg.sim.trace.record = true;
  cfg.seeds = 1;
  cfg.protocol.qlec.total_rounds = 8;
  return cfg;
}

TEST(Trace, DisabledByDefault) {
  ExperimentConfig cfg = traced_config();
  cfg.sim.trace.record = false;
  const auto results = run_replications("kmeans", cfg);
  EXPECT_TRUE(results[0].trace.empty());
}

TEST(Trace, OneEntryPerCompletedRound) {
  const auto results = run_replications("kmeans", traced_config());
  const SimResult& r = results[0];
  ASSERT_EQ(r.trace.size(), static_cast<std::size_t>(r.rounds_completed));
  for (int i = 0; i < r.rounds_completed; ++i)
    EXPECT_EQ(r.trace[static_cast<std::size_t>(i)].round, i);
}

TEST(Trace, CumulativeCountersMonotone) {
  const auto results = run_replications("qlec", traced_config());
  const SimResult& r = results[0];
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].generated, r.trace[i - 1].generated);
    EXPECT_GE(r.trace[i].delivered, r.trace[i - 1].delivered);
    EXPECT_LE(r.trace[i].delivered, r.trace[i].generated);
  }
  EXPECT_EQ(r.trace.back().generated, r.generated);
}

TEST(Trace, ResidualEnergyNonIncreasingWithoutHarvest) {
  const auto results = run_replications("fcm", traced_config());
  const SimResult& r = results[0];
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_LE(r.trace[i].total_residual,
              r.trace[i - 1].total_residual + 1e-12);
}

TEST(Trace, AliveNeverIncreasesWithoutHarvest) {
  ExperimentConfig cfg = traced_config();
  cfg.scenario.initial_energy = 0.01;  // force deaths
  cfg.sim.rounds = 60;
  cfg.sim.mean_interarrival = 2.0;
  const auto results = run_replications("kmeans", cfg);
  const SimResult& r = results[0];
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_LE(r.trace[i].alive, r.trace[i - 1].alive);
}

TEST(Trace, HeadsColumnMatchesProtocolBehaviour) {
  ExperimentConfig cfg = traced_config();
  cfg.protocol.k = 4;
  const auto results = run_replications("kmeans", cfg);
  for (const RoundStats& rs : results[0].trace) EXPECT_EQ(rs.heads, 4u);
}

}  // namespace
}  // namespace qlec
