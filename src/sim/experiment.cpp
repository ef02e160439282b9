#include "sim/experiment.hpp"

namespace qlec {

Network build_network(const ExperimentConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  switch (cfg.deployment) {
    case Deployment::kTerrain: return make_terrain_network(cfg.scenario, rng);
    case Deployment::kUniform: break;
  }
  return make_uniform_network(cfg.scenario, rng);
}

std::vector<SimResult> run_replications(const std::string& protocol_name,
                                        const ExperimentConfig& cfg,
                                        const ExecPolicy& exec,
                                        const std::atomic<bool>* stop) {
  std::vector<SimResult> results(cfg.seeds);
  // Protocols and simulator must agree on what "dead" means; the sim's
  // death line is authoritative for the whole experiment.
  ProtocolOptions protocol_opts = cfg.protocol;
  protocol_opts.death_line = cfg.sim.death_line;
  const auto run_one = [&](std::size_t i) {
    const std::uint64_t seed = cfg.base_seed + i;
    Network net = build_network(cfg, seed);
    // Distinct stream for protocol/sim randomness vs deployment.
    Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
    auto protocol = make_protocol(protocol_name, net, protocol_opts);
    if (cfg.seeds > 1 && cfg.sim.telemetry.enabled) {
      // Each replication gets its own telemetry output files ("ev.jsonl" ->
      // "ev.seed3.jsonl"), so pool-mode seeds never share a sink.
      SimConfig sim = cfg.sim;
      sim.telemetry = obs::Telemetry::with_seed_suffix(sim.telemetry, i);
      results[i] = run_simulation(net, *protocol, sim, rng);
      return;
    }
    results[i] = run_simulation(net, *protocol, cfg.sim, rng);
  };
  if (cfg.seeds > 1 && exec.is_pool()) {
    ThreadPool local(std::min(exec.width(), cfg.seeds));
    local.parallel_for(cfg.seeds, run_one);
    return results;
  }
  for (std::size_t i = 0; i < cfg.seeds; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      results.resize(i);
      break;
    }
    run_one(i);
  }
  return results;
}

AggregatedMetrics run_experiment(const std::string& protocol_name,
                                 const ExperimentConfig& cfg,
                                 const ExecPolicy& exec) {
  AggregatedMetrics agg;
  for (const SimResult& r : run_replications(protocol_name, cfg, exec))
    agg.add(r);
  return agg;
}

}  // namespace qlec
