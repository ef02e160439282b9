// MAC validation: how far does the ideal round-based model drift from the
// contention-aware slotted-CSMA sub-phase (sim/mac, DESIGN.md §14)? Every
// protocol in the registry runs the §5.1 scenario both ways across the
// §5.2 congestion sweep; the table reports the PDR divergence plus the MAC
// counters that explain it (collision rate, retransmit overhead, kMac
// energy share), and a lifespan section re-runs the Fig. 3(c) protocols
// under contention. Emits BENCH_mac.json and mac_validation.csv.
//
// Environment knobs:
//   QLEC_BENCH_SEEDS=<n>  replications per point (default 5)
//   QLEC_BENCH_FAST=1     shrink the runs for a quick check (the committed
//                         BENCH_mac.json is the full run)
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

MacConfig mac_config() {
  MacConfig m;
  m.enabled = true;
  m.seed = 0x3AC;
  m.cca_range = 150.0;  // three quarters of the cube edge: real contention
  return m;
}

/// One (protocol, lambda) point measured under both transmission models.
struct Point {
  std::string protocol;
  double lambda = 0.0;
  RunningStats pdr_ideal;
  RunningStats pdr_mac;
  RunningStats latency_ideal;
  RunningStats latency_mac;
  RunningStats energy_ideal;
  RunningStats energy_mac;
  double mac_energy_j = 0.0;  ///< summed EnergyUse::kMac across seeds
  MacCounters mac;            ///< summed across seeds
};

Point measure(const std::string& protocol, double lambda,
              const ExecPolicy& exec) {
  Point p;
  p.protocol = protocol;
  p.lambda = lambda;
  ExperimentConfig cfg = bench::paper_config(lambda);
  // Audit both modes: a kMac reconciliation bug should fail loudly here,
  // not skew the figure.
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;
  cfg.sim.mac.enabled = false;
  for (const SimResult& r : run_replications(protocol, cfg, exec)) {
    p.pdr_ideal.add(r.pdr());
    p.latency_ideal.add(r.latency.mean());
    p.energy_ideal.add(r.total_energy_consumed);
  }
  cfg.sim.mac = mac_config();
  for (const SimResult& r : run_replications(protocol, cfg, exec)) {
    p.pdr_mac.add(r.pdr());
    p.latency_mac.add(r.latency.mean());
    p.energy_mac.add(r.total_energy_consumed);
    p.mac_energy_j += r.energy.by_use(EnergyUse::kMac);
    p.mac += r.mac.totals;
  }
  return p;
}

/// Fig. 3(c) lifespan point: first-node-death round under both models.
struct LifespanPoint {
  std::string protocol;
  RunningStats fnd_ideal;
  RunningStats fnd_mac;
};

LifespanPoint measure_lifespan(const std::string& protocol,
                               const ExecPolicy& exec) {
  LifespanPoint p;
  p.protocol = protocol;
  ExperimentConfig cfg = bench::lifespan_config(/*lambda=*/4.0);
  cfg.sim.mac.enabled = false;
  const auto fnd = [](const SimResult& r) {
    return static_cast<double>(r.first_death_round >= 0 ? r.first_death_round
                                                        : r.rounds_completed);
  };
  for (const SimResult& r : run_replications(protocol, cfg, exec))
    p.fnd_ideal.add(fnd(r));
  cfg.sim.mac = mac_config();
  // Contended listening is not free: a light duty-cycled receiver makes
  // the lifespan comparison honest instead of only counting retransmits.
  cfg.sim.mac.duty_cycle = 0.1;
  cfg.sim.mac.idle_j_per_subslot = 1e-5;
  for (const SimResult& r : run_replications(protocol, cfg, exec))
    p.fnd_mac.add(fnd(r));
  return p;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void write_json(const std::string& path, const std::vector<Point>& points,
                const std::vector<LifespanPoint>& lifespan) {
  JsonWriter j;
  j.begin_object();
  j.key("bench"); j.value(std::string("mac_validation"));
  j.key("fast"); j.value(env::bench_fast());
  j.key("points");
  j.begin_array();
  for (const Point& p : points) {
    j.begin_object();
    j.key("protocol"); j.value(p.protocol);
    j.key("lambda"); j.value(p.lambda);
    j.key("pdr_ideal_mean"); j.value(p.pdr_ideal.mean());
    j.key("pdr_ideal_ci95"); j.value(p.pdr_ideal.ci95_halfwidth());
    j.key("pdr_mac_mean"); j.value(p.pdr_mac.mean());
    j.key("pdr_mac_ci95"); j.value(p.pdr_mac.ci95_halfwidth());
    j.key("pdr_divergence"); j.value(p.pdr_ideal.mean() - p.pdr_mac.mean());
    j.key("latency_ideal_mean"); j.value(p.latency_ideal.mean());
    j.key("latency_mac_mean"); j.value(p.latency_mac.mean());
    j.key("energy_ideal_j_mean"); j.value(p.energy_ideal.mean());
    j.key("energy_mac_j_mean"); j.value(p.energy_mac.mean());
    j.key("mac_energy_j"); j.value(p.mac_energy_j);
    j.key("tx_attempts");
    j.value(static_cast<unsigned long long>(p.mac.tx_attempts));
    j.key("retransmits");
    j.value(static_cast<unsigned long long>(p.mac.retransmits));
    j.key("collisions");
    j.value(static_cast<unsigned long long>(p.mac.collisions));
    j.key("capture_wins");
    j.value(static_cast<unsigned long long>(p.mac.capture_wins));
    j.key("cca_busy"); j.value(static_cast<unsigned long long>(p.mac.cca_busy));
    j.key("backoff_subslots");
    j.value(static_cast<unsigned long long>(p.mac.backoff_subslots));
    j.key("drop_collision");
    j.value(static_cast<unsigned long long>(p.mac.drop_collision));
    j.key("drop_channel");
    j.value(static_cast<unsigned long long>(p.mac.drop_channel));
    j.key("drop_overflow");
    j.value(static_cast<unsigned long long>(p.mac.drop_overflow));
    j.key("drop_target_down");
    j.value(static_cast<unsigned long long>(p.mac.drop_target_down));
    j.key("drop_sender_down");
    j.value(static_cast<unsigned long long>(p.mac.drop_sender_down));
    j.end_object();
  }
  j.end_array();
  j.key("lifespan");
  j.begin_array();
  for (const LifespanPoint& p : lifespan) {
    j.begin_object();
    j.key("protocol"); j.value(p.protocol);
    j.key("fnd_ideal_mean"); j.value(p.fnd_ideal.mean());
    j.key("fnd_ideal_ci95"); j.value(p.fnd_ideal.ci95_halfwidth());
    j.key("fnd_mac_mean"); j.value(p.fnd_mac.mean());
    j.key("fnd_mac_ci95"); j.value(p.fnd_mac.ci95_halfwidth());
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
  w.write_row(CsvRow{"protocol", "lambda", "pdr_ideal", "pdr_mac",
                     "pdr_divergence", "latency_ideal", "latency_mac",
                     "mac_energy_j", "tx_attempts", "retransmits",
                     "collisions", "cca_busy", "drop_collision",
                     "drop_channel", "drop_overflow", "drop_target_down",
                     "drop_sender_down"});
  for (const Point& p : points) {
    w.write_row(CsvRow{
        p.protocol, fmt_double(p.lambda, 1), fmt_double(p.pdr_ideal.mean(), 4),
        fmt_double(p.pdr_mac.mean(), 4),
        fmt_double(p.pdr_ideal.mean() - p.pdr_mac.mean(), 4),
        fmt_double(p.latency_ideal.mean(), 2),
        fmt_double(p.latency_mac.mean(), 2), fmt_double(p.mac_energy_j, 6),
        std::to_string(p.mac.tx_attempts), std::to_string(p.mac.retransmits),
        std::to_string(p.mac.collisions), std::to_string(p.mac.cca_busy),
        std::to_string(p.mac.drop_collision),
        std::to_string(p.mac.drop_channel),
        std::to_string(p.mac.drop_overflow),
        std::to_string(p.mac.drop_target_down),
        std::to_string(p.mac.drop_sender_down)});
  }
}

}  // namespace

int main() {
  using namespace qlec;
  const ExecPolicy exec = ExecPolicy::pool();
  const std::vector<double> lambdas =
      bench::fast_mode() ? std::vector<double>{2.0, 8.0}
                         : bench::lambda_sweep();
  std::vector<Point> points;
  for (double lambda : lambdas) {
    std::printf("=== lambda = %.0f slots ===\n", lambda);
    TextTable t({"protocol", "PDR ideal", "PDR mac", "divergence",
                 "retx/attempt", "collision rate", "cca-busy rate"});
    for (const std::string& name : protocol_names()) {
      const Point p = measure(name, lambda, exec);
      t.add_row(
          {p.protocol, fmt_pm(p.pdr_ideal.mean(), p.pdr_ideal.ci95_halfwidth(), 3),
           fmt_pm(p.pdr_mac.mean(), p.pdr_mac.ci95_halfwidth(), 3),
           fmt_double(p.pdr_ideal.mean() - p.pdr_mac.mean(), 3),
           fmt_double(ratio(p.mac.retransmits, p.mac.tx_attempts), 3),
           fmt_double(ratio(p.mac.collisions, p.mac.tx_attempts), 3),
           fmt_double(ratio(p.mac.cca_busy,
                            p.mac.cca_busy + p.mac.tx_attempts), 3)});
      points.push_back(p);
    }
    std::printf("%s\n", t.render().c_str());
  }

  std::printf("=== lifespan (FND, lambda = 4) ===\n");
  std::vector<LifespanPoint> lifespan;
  TextTable lt({"protocol", "FND ideal", "FND mac"});
  for (const std::string& name : bench::figure3_protocols()) {
    const LifespanPoint p = measure_lifespan(name, exec);
    lt.add_row({p.protocol,
                fmt_pm(p.fnd_ideal.mean(), p.fnd_ideal.ci95_halfwidth(), 1),
                fmt_pm(p.fnd_mac.mean(), p.fnd_mac.ci95_halfwidth(), 1)});
    lifespan.push_back(p);
  }
  std::printf("%s\n", lt.render().c_str());

  write_json("BENCH_mac.json", points, lifespan);
  write_csv("mac_validation.csv", points);
  std::printf("wrote BENCH_mac.json and mac_validation.csv\n");
  return 0;
}
