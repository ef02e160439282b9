// The benchmark's workloads and the helpers they share. Every workload reads
// its inputs relative to the checkout root (the working directory) and
// derives every seed it passes to the program from the workload seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Which repository scenario a round-core workload runs, and how. Shard
/// count and optional subsystems come from the scenario itself.
struct RoundsWorkload {
  const char* scenario_path;  ///< relative to the checkout root
  /// Deployments per run, each set up once and repeated round-robin, so one
  /// run's figures average over several seeds.
  std::size_t deployments;
  /// Set-ups timed together as one setup_s sample after each repetition.
  std::size_t setup_batch;
};

void run_rounds(const RoundsWorkload& w, const RunArgs& args, Report& report);
void run_serve_mix(const RunArgs& args, Report& report);

/// The end-to-end metrics every untraced run prints.
struct EndToEnd {
  double setup_s = 0.0;            ///< median set-up time
  double node_rounds_per_s = 0.0;  ///< nodes x rounds simulated per second
  double peak_rss_mib = 0.0;       ///< median peak RSS of an operation
  double lat_p50_ms = 0.0;         ///< operation latency, nearest rank
  double lat_p90_ms = 0.0;
  double req_per_s = 0.0;  ///< operations completed per measured second
};
/// Adds `e` to `report`.
void emit_end_to_end(const EndToEnd& e, Report& report);

/// Name and unit of one per-layer metric.
struct LayerMetric {
  const char* name;
  const char* unit;
};
/// Every per-layer metric a traced run prints, in print order.
extern const LayerMetric kLayerMetrics[];
extern const std::size_t kLayerMetricCount;

/// Per-layer values of one traced run. A metric of a layer the workload
/// does not exercise is printed as 0.
class LayerValues {
 public:
  /// Throws std::invalid_argument for a name outside kLayerMetrics.
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::map<std::string, double> values_;
};

// ---- shared helpers ----

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whole file as a string; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// A deterministic 52-bit seed (exact as a JSON number) for stream
/// `stream` of the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream);

/// Resets the process's resident-set high-water mark to its current
/// resident set (Linux: "5" to /proc/self/clear_refs), so that the next
/// peak_rss_mib() reads the peak of what ran in between.
void reset_peak_rss();

/// Resident-set high-water mark since the last reset_peak_rss() (or since
/// the process started), MiB: VmHWM of /proc/self/status.
double peak_rss_mib();

}  // namespace perfbench
