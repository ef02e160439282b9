// Multi-seed experiment runner: builds a fresh network per seed, runs the
// named protocol through the simulator, and aggregates the metrics. Seed
// fan-out is controlled by an ExecPolicy value (serial or an internally
// managed pool).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/protocols/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace qlec {

struct ExperimentConfig {
  ScenarioConfig scenario;
  SimConfig sim;
  ProtocolOptions protocol;
  std::size_t seeds = 5;
  std::uint64_t base_seed = 42;
  /// Deployment geometry (a closed enum — unknown deployments are a config
  /// parse error, never a mid-run exception).
  Deployment deployment = Deployment::kUniform;

  friend bool operator==(const ExperimentConfig&, const ExperimentConfig&) =
      default;
};

/// How the runner fans replications out over seeds. A small value type so
/// call sites read as `run_experiment(name, cfg, ExecPolicy::pool(8))`
/// instead of threading raw ThreadPool pointers through every signature.
/// Seed results are written to per-seed slots, so every policy produces
/// bit-identical output for a given config.
class ExecPolicy {
 public:
  /// Seeds run one after another on the calling thread (the default).
  static ExecPolicy serial() noexcept { return ExecPolicy{}; }
  /// Seeds fan out across an internally managed pool created for the call;
  /// `threads == 0` uses the hardware-concurrency default.
  static ExecPolicy pool(std::size_t threads = 0) noexcept {
    ExecPolicy p;
    p.mode_ = Mode::kPool;
    p.threads_ = threads;
    return p;
  }

  bool is_serial() const noexcept { return mode_ == Mode::kSerial; }
  bool is_pool() const noexcept { return mode_ == Mode::kPool; }
  /// Requested pool width (kPool only); 0 = hardware default.
  std::size_t threads() const noexcept { return threads_; }

 private:
  enum class Mode { kSerial, kPool };
  Mode mode_ = Mode::kSerial;
  std::size_t threads_ = 0;
};

/// Runs `cfg.seeds` independent replications of `protocol_name` and returns
/// per-seed results (index == seed offset).
std::vector<SimResult> run_replications(
    const std::string& protocol_name, const ExperimentConfig& cfg,
    const ExecPolicy& exec = ExecPolicy::serial());

/// Convenience: replications + aggregation.
AggregatedMetrics run_experiment(const std::string& protocol_name,
                                 const ExperimentConfig& cfg,
                                 const ExecPolicy& exec = ExecPolicy::serial());

/// Builds the deployment for one seed (exposed for benches that need the
/// raw network, e.g. the Fig. 4 heat map).
Network build_network(const ExperimentConfig& cfg, std::uint64_t seed);

}  // namespace qlec
