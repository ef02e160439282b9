#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  // splitmix64 finaliser over (seed, stream).
  std::uint64_t z = workload_seed * 0x9E3779B97F4A7C15ULL + stream +
                    0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z >> 12;
}

void emit_end_to_end(const EndToEnd& e, Report& report) {
  report.metric("setup_s", e.setup_s, "s");
  report.metric("node_rounds_per_s", e.node_rounds_per_s, "1/s");
  report.metric("peak_rss_mib", e.peak_rss_mib, "MiB");
  report.metric("lat_p50_ms", e.lat_p50_ms, "ms");
  report.metric("lat_p90_ms", e.lat_p90_ms, "ms");
  report.metric("req_per_s", e.req_per_s, "1/s");
}

const LayerMetric kLayerMetrics[] = {
    {"core.route_ns", "ns"},
    {"core.route_calls", "count"},
    {"core.route_share", "ratio"},
    {"core.elect_ms_per_round", "ms"},
    {"core.prepare_tx_ms_per_round", "ms"},
    {"core.feedback_ns", "ns"},
    {"core.feedback_calls", "count"},
    {"sim.self_share", "ratio"},
    {"sim.pdr", "ratio"},
    {"sim.heads_per_round", "count"},
    {"util.exec.speedup", "x"},
    {"sim.mac.cost_share", "ratio"},
    {"sim.env.cost_share", "ratio"},
    {"sim.fault.cost_share", "ratio"},
    {"sim.mac.tx_attempts", "count"},
    {"sim.mac.collisions", "count"},
    {"sim.mac.cca_busy", "count"},
    {"net.build_s", "s"},
    {"sim.protocol_make_s", "s"},
    {"config.parse_us", "us"},
    {"config.plan_us", "us"},
    {"config.lookup_us", "us"},
    {"config.serialize_us", "us"},
    {"config.simulate_ms", "ms"},
    {"config.jobs.submitted", "count"},
    {"config.jobs.simulated", "count"},
    {"config.jobs.cache_hits", "count"},
    {"config.jobs.coalesced", "count"},
    {"config.jobs.hit_ratio", "ratio"},
    {"serve.http_us", "us"},
    {"serve.residual_ms", "ms"},
    {"trace.overhead", "x"},
};
const std::size_t kLayerMetricCount = std::size(kLayerMetrics);

void LayerValues::set(const std::string& name, double value) {
  for (const LayerMetric& m : kLayerMetrics)
    if (name == m.name) {
      values_[name] = value;
      return;
    }
  throw std::invalid_argument("unknown per-layer metric " + name);
}

void LayerValues::emit(Report& report) const {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values_.find(m.name);
    report.metric(m.name, it == values_.end() ? 0.0 : it->second, m.unit);
  }
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset the peak RSS");
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
