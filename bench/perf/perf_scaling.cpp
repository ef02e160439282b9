// Node-count scaling sweep for the QLEC hot path: density-fixed deployments
// from N = 100 to N = 1M, reporting rounds/sec, packets/sec, and the peak
// memory footprint per size. Emits BENCH_scaling.json; when
// QLEC_PERF_BASELINE points at a previously emitted file, it is embedded
// verbatim under "baseline" and per-N speedups are reported, which is how
// the committed pre-/post-optimization comparison is produced (see
// EXPERIMENTS.md).
#include <cmath>
#include <cstdio>

#include "perf_common.hpp"
#include "sim/experiment.hpp"

namespace {

/// The repeats policy, stated once and logged per case so a truncated
/// sample count is never silent: every N <= 100k reports the median of 5
/// timed repetitions after an untimed warmup, since a single sample there
/// swings by up to ~2x on a shared host. Only N = 1M times one repetition
/// and skips the warmup (one repetition is ~20 s of work); its case is
/// marked "single_sample" in the JSON. QLEC_PERF_REPEATS overrides the
/// count (warmup stays per policy).
struct RepeatsPolicy {
  std::size_t repeats;
  bool warmup;
};

RepeatsPolicy repeats_policy(std::size_t n, bool fast) {
  if (fast) return {2, true};
  if (n > 100000) return {1, false};
  return {5, true};
}

}  // namespace

int main() {
  using namespace qlec;

  const bool fast = env::bench_fast();
  const std::vector<std::size_t> sizes =
      fast ? std::vector<std::size_t>{100, 500, 1000}
           : std::vector<std::size_t>{100,   500,    1000,  2000,   5000,
                                      10000, 20000, 100000, 1000000};

  std::printf("=== perf_scaling: QLEC rounds/sec vs N (density fixed) ===\n");
  std::printf("R=5, lambda=4, 1 seed; median over timed repetitions\n");
  std::printf("repeats policy: 5 (N<=100000), 1+no-warmup (N>100000); "
              "fast mode: 2\n");
  std::printf("\n");

  std::vector<perf::CaseResult> cases;
  for (const std::size_t n : sizes) {
    ExperimentConfig cfg;
    cfg.scenario.n = n;
    // Fixed node density: the §5.1 cube is 200^3 for N = 100.
    cfg.scenario.m_side = 200.0 * std::cbrt(static_cast<double>(n) / 100.0);
    cfg.scenario.initial_energy = 5.0;
    cfg.sim.rounds = fast ? 3 : 5;
    cfg.sim.slots_per_round = 20;
    cfg.sim.mean_interarrival = 4.0;
    cfg.sim.death_line = -1.0;  // throughput run: nobody dies
    cfg.seeds = 1;
    cfg.protocol.qlec.total_rounds = cfg.sim.rounds;

    const RepeatsPolicy policy = repeats_policy(n, fast);
    const std::size_t repeats = env::perf_repeats(policy.repeats);
    if (repeats < 5 || !policy.warmup)
      std::printf("  [N=%zu: %zu timed repetition%s%s]\n", n, repeats,
                  repeats == 1 ? "" : "s",
                  policy.warmup ? "" : ", warmup skipped");
    perf::CaseResult c;
    c.name = "qlec";
    c.n = n;
    c.seeds = cfg.seeds;
    c.timing = perf::time_case(
        repeats,
        [&] {
          std::uint64_t rounds = 0, packets = 0;
          for (const SimResult& r : run_replications("qlec", cfg)) {
            rounds += static_cast<std::uint64_t>(r.rounds_completed);
            packets += r.generated;
          }
          c.rounds = rounds;
          c.packets = packets;
        },
        policy.warmup);
    // Cases run in ascending-N order, so the process high-water mark after
    // a case is that case's peak footprint.
    c.peak_rss = perf::peak_rss_bytes();
    std::printf("  N=%-7zu median %9.1f ms  %8.2f rounds/s  %10.0f "
                "packets/s  peak RSS %8.1f MB\n",
                n, 1e3 * c.timing.median(), c.rounds_per_sec(),
                c.packets_per_sec(),
                static_cast<double>(c.peak_rss) / (1024.0 * 1024.0));
    std::fflush(stdout);
    cases.push_back(c);
  }

  const std::string baseline = perf::slurp(env::perf_baseline());
  if (!baseline.empty()) {
    std::printf("\nspeedup vs baseline (%s):\n", env::perf_baseline().c_str());
    const JsonValue doc = parse_json(baseline).value_or(JsonValue{});
    for (const perf::CaseResult& c : cases) {
      const double base = perf::baseline_field(doc, c.n, "rounds_per_sec");
      if (std::isnan(base) || base <= 0.0) continue;
      std::printf("  N=%-7zu %.2fx rounds/sec\n", c.n,
                  c.rounds_per_sec() / base);
    }
  }

  perf::write_bench_file("BENCH_scaling.json", "perf_scaling", cases,
                         baseline);
  std::printf("\nwrote BENCH_scaling.json\n");
  return 0;
}
