// Resilience sweep: every protocol in the registry under increasing fault
// intensity (crash/stun/fade hazards, link-degradation episodes, BS
// outages), reporting delivery under faults, the re-clustering recovery
// time, and the per-fault-class loss breakdown. Emits a text table plus
// machine-readable BENCH_resilience.json and resilience_sweep.csv.
//
// Environment knobs:
//   QLEC_BENCH_SEEDS=<n>      replications per point (default 5)
//   QLEC_BENCH_FAST=1         shrink the runs for the CI perf-smoke job
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace qlec;

/// One named hazard level; `scale` multiplies every base hazard rate.
struct Intensity {
  std::string name;
  double scale = 0.0;
};

std::vector<Intensity> intensity_sweep() {
  return {{"none", 0.0}, {"light", 0.5}, {"moderate", 1.0}, {"severe", 2.0}};
}

/// The base fault environment layered onto the §5.1 scenario, every hazard
/// rate scaled by `s` (s = 0 disables faults).
FaultConfig fault_config(double s) {
  FaultConfig f;
  f.enabled = s > 0.0;
  f.seed = 0xFA17;
  f.hazards.crash_per_node = 0.004 * s;
  f.hazards.stun_per_node = 0.010 * s;
  f.hazards.stun_rounds = 2;
  f.hazards.fade_per_node = 0.006 * s;
  f.hazards.fade_fraction = 0.15;
  f.hazards.degrade_episode = 0.06 * s;
  f.hazards.degrade_rounds = 3;
  f.hazards.degrade_factor = 0.5;
  f.hazards.bs_outage = 0.03 * s;
  f.hazards.bs_outage_rounds = 1;
  return f;
}

/// Seed-aggregated resilience outcome of one (protocol, intensity) point.
struct Point {
  std::string protocol;
  std::string intensity;
  double scale = 0.0;
  RunningStats pdr;
  RunningStats energy_j;
  RunningStats recovery;  ///< only seeds that saw a disruption contribute
  RunningStats crashes;
  RunningStats stuns;
  RunningStats orphan_rounds;
  std::uint64_t lost_link = 0;
  std::uint64_t lost_queue = 0;
  std::uint64_t lost_dead = 0;
  std::uint64_t lost_to_down_target = 0;
  std::uint64_t lost_to_bs_outage = 0;
  std::uint64_t lost_during_degradation = 0;
  std::uint64_t lost_at_down_node = 0;
};

Point measure(const std::string& protocol, const Intensity& level,
              const ExecPolicy& exec) {
  ExperimentConfig cfg = bench::paper_config(/*lambda=*/4.0);
  cfg.sim.fault = fault_config(level.scale);
  // Audit every swept run: a fault-model regression should fail loudly
  // here, not skew a figure silently.
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;

  Point p;
  p.protocol = protocol;
  p.intensity = level.name;
  p.scale = level.scale;
  for (const SimResult& r : run_replications(protocol, cfg, exec)) {
    p.pdr.add(r.pdr());
    p.energy_j.add(r.total_energy_consumed);
    if (r.resilience.recovery_rounds >= 0.0)
      p.recovery.add(r.resilience.recovery_rounds);
    p.crashes.add(static_cast<double>(r.resilience.crashes));
    p.stuns.add(static_cast<double>(r.resilience.stuns));
    p.orphan_rounds.add(
        static_cast<double>(r.resilience.orphaned_member_rounds));
    p.lost_link += r.lost_link;
    p.lost_queue += r.lost_queue;
    p.lost_dead += r.lost_dead;
    p.lost_to_down_target += r.resilience.lost_to_down_target;
    p.lost_to_bs_outage += r.resilience.lost_to_bs_outage;
    p.lost_during_degradation += r.resilience.lost_during_degradation;
    p.lost_at_down_node += r.resilience.lost_at_down_node;
  }
  return p;
}

void write_json(const std::string& path, const std::vector<Point>& points) {
  JsonWriter j;
  j.begin_object();
  j.key("bench"); j.value(std::string("resilience_sweep"));
  j.key("fast"); j.value(env::bench_fast());
  j.key("points");
  j.begin_array();
  for (const Point& p : points) {
    j.begin_object();
    j.key("protocol"); j.value(p.protocol);
    j.key("intensity"); j.value(p.intensity);
    j.key("scale"); j.value(p.scale);
    j.key("pdr_mean"); j.value(p.pdr.mean());
    j.key("pdr_ci95"); j.value(p.pdr.ci95_halfwidth());
    j.key("energy_j_mean"); j.value(p.energy_j.mean());
    j.key("recovery_rounds_mean"); j.value(p.recovery.mean());
    j.key("recovery_seeds"); j.value(p.recovery.count());
    j.key("crashes_mean"); j.value(p.crashes.mean());
    j.key("stuns_mean"); j.value(p.stuns.mean());
    j.key("orphan_member_rounds_mean"); j.value(p.orphan_rounds.mean());
    j.key("lost_link"); j.value(static_cast<unsigned long long>(p.lost_link));
    j.key("lost_queue");
    j.value(static_cast<unsigned long long>(p.lost_queue));
    j.key("lost_dead"); j.value(static_cast<unsigned long long>(p.lost_dead));
    j.key("lost_to_down_target");
    j.value(static_cast<unsigned long long>(p.lost_to_down_target));
    j.key("lost_to_bs_outage");
    j.value(static_cast<unsigned long long>(p.lost_to_bs_outage));
    j.key("lost_during_degradation");
    j.value(static_cast<unsigned long long>(p.lost_during_degradation));
    j.key("lost_at_down_node");
    j.value(static_cast<unsigned long long>(p.lost_at_down_node));
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::ofstream out(path);
  out << j.str() << "\n";
}

void write_csv(const std::string& path, const std::vector<Point>& points) {
  std::ofstream out(path);
  CsvWriter w(out);
  w.write_row(CsvRow{"protocol", "intensity", "scale", "pdr_mean",
                     "recovery_rounds_mean", "crashes_mean", "stuns_mean",
                     "orphan_member_rounds_mean", "lost_link", "lost_queue",
                     "lost_dead", "lost_to_down_target", "lost_to_bs_outage",
                     "lost_during_degradation", "lost_at_down_node"});
  for (const Point& p : points) {
    w.write_row(CsvRow{
        p.protocol, p.intensity, fmt_double(p.scale, 2),
        fmt_double(p.pdr.mean(), 4), fmt_double(p.recovery.mean(), 2),
        fmt_double(p.crashes.mean(), 2), fmt_double(p.stuns.mean(), 2),
        fmt_double(p.orphan_rounds.mean(), 2), std::to_string(p.lost_link),
        std::to_string(p.lost_queue), std::to_string(p.lost_dead),
        std::to_string(p.lost_to_down_target),
        std::to_string(p.lost_to_bs_outage),
        std::to_string(p.lost_during_degradation),
        std::to_string(p.lost_at_down_node)});
  }
}

}  // namespace

int main() {
  using namespace qlec;
  const ExecPolicy exec = ExecPolicy::pool();
  std::vector<Point> points;
  for (const Intensity& level : intensity_sweep()) {
    std::printf("=== Fault intensity: %s (scale %.1f) ===\n",
                level.name.c_str(), level.scale);
    TextTable t({"protocol", "PDR", "recovery (rounds)", "crashes/run",
                 "bs-outage loss", "degrade loss", "down-node loss"});
    for (const std::string& name : protocol_names()) {
      const Point p = measure(name, level, exec);
      t.add_row({p.protocol, fmt_pm(p.pdr.mean(), p.pdr.ci95_halfwidth(), 3),
                 p.recovery.count() > 0 ? fmt_double(p.recovery.mean(), 1)
                                        : std::string("-"),
                 fmt_double(p.crashes.mean(), 1),
                 std::to_string(p.lost_to_bs_outage),
                 std::to_string(p.lost_during_degradation),
                 std::to_string(p.lost_to_down_target + p.lost_at_down_node)});
      points.push_back(p);
    }
    std::printf("%s\n", t.render().c_str());
  }
  write_json("BENCH_resilience.json", points);
  write_csv("resilience_sweep.csv", points);
  std::printf("wrote BENCH_resilience.json and resilience_sweep.csv\n");
  return 0;
}
