// Shared configuration for the benches: the Section 5.1 experiment setup
// (N = 100 nodes, 200^3 cube, 5 J, R = 20 rounds, k_opt ≈ 5) and the
// lambda sweep simulating the paper's "four network conditions". The
// committed scenarios examples/scenarios/fig3_sweep.json and
// fig3_lifespan.json express the same grid for qlec_run; the CliGolden
// test pins every cell of them to paper_config / lifespan_config.
//
// Environment knobs:
//   QLEC_BENCH_SEEDS=<n>  replications per point (default 5)
//   QLEC_BENCH_FAST=1     shrink the runs for smoke testing
#pragma once

#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "util/env.hpp"

namespace qlec::bench {

inline bool fast_mode() { return env::bench_fast(); }

inline std::size_t seeds(std::size_t def = 5) { return env::bench_seeds(def); }

/// The four congestion levels of §5.2 (mean inter-arrival in slots; smaller
/// = more congested).
inline std::vector<double> lambda_sweep() { return {2.0, 4.0, 8.0, 16.0}; }

/// §5.1 configuration at a given congestion level.
inline ExperimentConfig paper_config(double lambda) {
  ExperimentConfig cfg;
  cfg.scenario.n = 100;
  cfg.scenario.m_side = 200.0;
  cfg.scenario.initial_energy = 5.0;
  cfg.scenario.bs = BsPlacement::kTopFaceCenter;
  cfg.sim.rounds = 20;  // R = 20 successive rounds
  cfg.sim.slots_per_round = fast_mode() ? 10 : 20;
  cfg.sim.mean_interarrival = lambda;
  cfg.sim.queue_capacity = 32;
  cfg.sim.service_per_slot = 8;
  cfg.sim.death_line = -1.0;  // §5.1: death line lowered for PDR/energy runs
  cfg.seeds = seeds();
  cfg.protocol.qlec.total_rounds = cfg.sim.rounds;
  return cfg;
}

/// The three algorithms Fig. 3 compares.
inline std::vector<std::string> figure3_protocols() {
  return {"qlec", "fcm", "kmeans"};
}

/// Lifespan-mode variant (Fig. 3(c), ablations): smaller batteries so first
/// node death lands within the horizon, with the Eq. 2/Eq. 4 schedule R set
/// to the a-priori lifespan estimate (~125 rounds at this drain rate).
inline ExperimentConfig lifespan_config(double lambda) {
  ExperimentConfig cfg = paper_config(lambda);
  // 3 J: a congested head stint costs ~0.1-0.25 J (member rx + fused
  // uplink), so rotation sustains O(100) rounds while a protocol that
  // re-elects the same head kills it in ~dozens.
  cfg.scenario.initial_energy = 3.0;
  cfg.sim.rounds = fast_mode() ? 150 : 400;
  cfg.sim.death_line = 0.0;
  cfg.sim.trace.stop_at_first_death = true;
  cfg.protocol.qlec.total_rounds = 60;  // Eq. 2/4 schedule R: set below the true
  // horizon so the Eq. 4 envelope stays loose (see EXPERIMENTS.md)
  return cfg;
}

}  // namespace qlec::bench
