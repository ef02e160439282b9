#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

namespace qlec {
namespace {

ExperimentConfig fast_experiment() {
  ExperimentConfig cfg;
  cfg.scenario.n = 30;
  cfg.sim.rounds = 4;
  cfg.sim.slots_per_round = 8;
  cfg.seeds = 3;
  cfg.protocol.k = 3;
  return cfg;
}

TEST(Experiment, BuildNetworkUniformAndTerrain) {
  ExperimentConfig cfg = fast_experiment();
  const Network u = build_network(cfg, 1);
  EXPECT_EQ(u.size(), 30u);
  cfg.deployment = Deployment::kTerrain;
  const Network t = build_network(cfg, 1);
  EXPECT_EQ(t.size(), 30u);
}

TEST(Experiment, ReplicationsProduceOnePerSeed) {
  const auto results = run_replications("kmeans", fast_experiment());
  ASSERT_EQ(results.size(), 3u);
  for (const SimResult& r : results) {
    EXPECT_EQ(r.protocol, "k-means");
    EXPECT_EQ(r.rounds_completed, 4);
  }
}

TEST(Experiment, SeedsDifferButAreReproducible) {
  const auto a = run_replications("kmeans", fast_experiment());
  const auto b = run_replications("kmeans", fast_experiment());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].generated, b[i].generated);
    EXPECT_DOUBLE_EQ(a[i].total_energy_consumed,
                     b[i].total_energy_consumed);
  }
  // Different seeds should (almost surely) produce different trajectories.
  EXPECT_FALSE(a[0].generated == a[1].generated &&
               a[0].delivered == a[1].delivered &&
               a[0].total_energy_consumed == a[1].total_energy_consumed);
}

TEST(Experiment, ThreadPoolMatchesSerial) {
  const auto serial = run_replications("kmeans", fast_experiment());
  const auto parallel = run_replications("kmeans", fast_experiment(),
                                         ExecPolicy::pool(2));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].generated, parallel[i].generated);
    EXPECT_EQ(serial[i].delivered, parallel[i].delivered);
    EXPECT_DOUBLE_EQ(serial[i].total_energy_consumed,
                     parallel[i].total_energy_consumed);
  }
}

TEST(Experiment, PoolWiderThanTheSeedsCapsAtTheSeedCount) {
  // An uncapped pool of this width would fail to reserve its workers (or,
  // for a merely huge width, start that many threads); capped, it runs one
  // thread per seed and matches the serial run.
  const auto serial = run_replications("kmeans", fast_experiment());
  const auto wide = run_replications(
      "kmeans", fast_experiment(),
      ExecPolicy::pool(std::numeric_limits<std::size_t>::max()));
  ASSERT_EQ(wide.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].delivered, wide[i].delivered);
    EXPECT_DOUBLE_EQ(serial[i].total_energy_consumed,
                     wide[i].total_energy_consumed);
  }
}

TEST(Experiment, StopFlagEndsSerialSeedsEarly) {
  std::atomic<bool> stop{true};
  EXPECT_TRUE(run_replications("kmeans", fast_experiment(),
                               ExecPolicy::serial(), &stop)
                  .empty());
  stop = false;
  EXPECT_EQ(run_replications("kmeans", fast_experiment(),
                             ExecPolicy::serial(), &stop)
                .size(),
            3u);
}

TEST(Experiment, AggregateCountsSeeds) {
  const AggregatedMetrics agg =
      run_experiment("kmeans", fast_experiment());
  EXPECT_EQ(agg.pdr.count(), 3u);
  EXPECT_EQ(agg.total_energy.count(), 3u);
  EXPECT_GT(agg.generated.mean(), 0.0);
}

TEST(Experiment, AllRegistryProtocolsRun) {
  for (const std::string& name : protocol_names()) {
    ExperimentConfig cfg = fast_experiment();
    cfg.seeds = 1;
    const auto results = run_replications(name, cfg);
    ASSERT_EQ(results.size(), 1u) << name;
    EXPECT_GT(results[0].generated, 0u) << name;
  }
}

TEST(Experiment, UnknownProtocolThrows) {
  EXPECT_THROW(run_replications("nope", fast_experiment()),
               std::invalid_argument);
}

TEST(ExecPolicyApi, ModesExposeTheirConfiguration) {
  const ExecPolicy s = ExecPolicy::serial();
  EXPECT_TRUE(s.is_serial());
  EXPECT_FALSE(s.is_pool());

  const ExecPolicy p = ExecPolicy::pool(6);
  EXPECT_TRUE(p.is_pool());
  EXPECT_EQ(p.threads(), 6u);
  EXPECT_EQ(p.width(), 6u);
  EXPECT_EQ(ExecPolicy::pool().threads(), 0u);  // 0 = hardware default
  EXPECT_GE(ExecPolicy::pool().width(), 1u);
}

}  // namespace
}  // namespace qlec
