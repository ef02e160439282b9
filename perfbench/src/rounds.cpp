// The round-core workloads (scale_100k, worlds_mac): one scenario file,
// several deployments drawn from the workload seed, and repeated
// run_simulation calls on fresh copies of each deployment.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "config/sweep.hpp"
#include "sim/experiment.hpp"
#include "traced_protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Deployment {
  qlec::ExperimentConfig cfg;
  qlec::Network net;  ///< pristine; every repetition runs on a copy
};

qlec::ProtocolOptions protocol_options(const qlec::ExperimentConfig& cfg) {
  // As run_replications: the simulator's death line is authoritative.
  qlec::ProtocolOptions opts = cfg.protocol;
  opts.death_line = cfg.sim.death_line;
  return opts;
}

/// Seconds spent in each step of one set-up (or of a batch of them).
struct SetupTimes {
  double total = 0.0, parse = 0.0, build = 0.0, make = 0.0;
};

/// The set-up a user pays before the first round: scenario expansion,
/// deployment and protocol construction. Adds its step times to `times`.
Deployment set_up(const std::string& scenario_text, std::uint64_t base_seed,
                  SetupTimes& times) {
  const Clock::time_point t0 = Clock::now();
  const qlec::config::ScenarioFile file =
      qlec::config::parse_scenario(scenario_text);
  const std::vector<qlec::config::SweepCell> cells = qlec::config::expand_grid(
      file, {{"base_seed",
              qlec::JsonValue::make_number(static_cast<double>(base_seed))}});
  if (cells.size() != 1 || !cells[0].config.sim.trace.record)
    throw std::runtime_error(
        "a round-core scenario must be one cell with sim.trace.record");
  const Clock::time_point t1 = Clock::now();
  Deployment d{cells[0].config, qlec::build_network(cells[0].config,
                                                    cells[0].config.base_seed)};
  const Clock::time_point t2 = Clock::now();
  const auto protocol = qlec::make_protocol(d.cfg.protocol.name, d.net,
                                            protocol_options(d.cfg));
  const Clock::time_point t3 = Clock::now();
  const auto s = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  times.total += s(t0, t3);
  times.parse += s(t0, t1);
  times.build += s(t1, t2);
  times.make += s(t2, t3);
  return d;
}

/// Set-up samples, taken between repetitions so that they span the run as
/// the repetitions do. One sample is the mean of `batch` set-ups of the
/// deployment seeds in turn.
class SetupSampler {
 public:
  SetupSampler(const std::string& text, std::vector<std::uint64_t> seeds,
               std::size_t batch)
      : text_(text), seeds_(std::move(seeds)), batch_(batch) {}

  /// Takes one sample; returns its wall time, destruction included.
  double sample() {
    const Clock::time_point t0 = Clock::now();
    SetupTimes sum;
    for (std::size_t b = 0; b < batch_; ++b)
      set_up(text_, seeds_[next_++ % seeds_.size()], sum);
    const auto n = static_cast<double>(batch_);
    total_s.push_back(sum.total / n);
    parse_s.push_back(sum.parse / n);
    build_s.push_back(sum.build / n);
    make_s.push_back(sum.make / n);
    return seconds_since(t0);
  }

  std::vector<double> total_s, parse_s, build_s, make_s;

 private:
  const std::string& text_;
  const std::vector<std::uint64_t> seeds_;
  const std::size_t batch_;
  std::size_t next_ = 0;
};

struct Rep {
  double wall_s = 0.0;
  qlec::SimResult result;
};

/// One repetition on a fresh copy of `d`, seeded exactly as
/// run_replications seeds its first replication, so the digests equal a
/// qlec_run of the same cell. Only run_simulation is timed. With `hooks`,
/// the protocol runs inside a TracedProtocol and its hook times are added.
Rep repetition(const Deployment& d, const qlec::SimConfig& sim,
               HookTimes* hooks) {
  qlec::Network net = d.net;
  std::unique_ptr<qlec::ClusteringProtocol> protocol =
      qlec::make_protocol(d.cfg.protocol.name, net, protocol_options(d.cfg));
  TracedProtocol* traced = nullptr;
  if (hooks != nullptr) {
    auto wrapper = std::make_unique<TracedProtocol>(std::move(protocol));
    traced = wrapper.get();
    protocol = std::move(wrapper);
  }
  qlec::Rng rng(d.cfg.base_seed ^ 0xD1B54A32D192ED03ULL);
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  rep.result = qlec::run_simulation(net, *protocol, sim, rng);
  rep.wall_s = seconds_since(t0);
  if (traced != nullptr) *hooks += traced->times();
  return rep;
}

/// First digest seen per (behaviour variant, deployment); every later
/// repetition of the same pair must reproduce it. Shard count and tracing
/// are not part of the key: neither may change a digest.
class DigestGate {
 public:
  explicit DigestGate(Report& report) : report_(report) {}

  void operator()(const std::string& variant, std::size_t deployment,
                  const Rep& rep) {
    const std::string digest = qlec::trace_digest_hex(rep.result.trace);
    const std::string key = variant + "#" + std::to_string(deployment);
    const auto [it, first] = refs_.emplace(key, digest);
    report_.attempt(first || it->second == digest,
                    key + ": digest " + digest + " != " + it->second);
  }

 private:
  Report& report_;
  std::map<std::string, std::string> refs_;
};

void untraced(const std::vector<Deployment>& deps, SetupSampler& setup,
              const RunArgs& args, DigestGate& gate, Report& report) {
  const std::size_t k = deps.size();
  gate("full", 0, repetition(deps[0], deps[0].cfg.sim, nullptr));  // warm-up

  std::vector<std::vector<double>> per_dep(k);
  std::vector<double> node_rounds_of(k, 0.0);
  std::vector<double> all, rss;
  double setup_s = 0.0;
  const Clock::time_point loop0 = Clock::now();
  for (std::size_t j = 0; seconds_since(loop0) < args.seconds; ++j) {
    const std::size_t i = j % k;
    reset_peak_rss();
    const Rep rep = repetition(deps[i], deps[i].cfg.sim, nullptr);
    rss.push_back(peak_rss_mib());
    gate("full", i, rep);
    per_dep[i].push_back(rep.wall_s);
    node_rounds_of[i] = static_cast<double>(deps[i].net.size()) *
                        static_cast<double>(rep.result.rounds_completed);
    all.push_back(rep.wall_s);
    setup_s += setup.sample();
  }
  const double loop_s = seconds_since(loop0) - setup_s;

  // Throughput of one pass over every deployment at its median time.
  double work = 0.0, time = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (per_dep[i].empty()) continue;
    work += node_rounds_of[i];
    time += median(per_dep[i]);
  }
  EndToEnd e;
  e.setup_s = median(setup.total_s);
  e.node_rounds_per_s = work / time;
  e.peak_rss_mib = median(rss);
  e.lat_p50_ms = 1e3 * percentile(all, 50.0);
  e.lat_p90_ms = 1e3 * percentile(all, 90.0);
  e.req_per_s = static_cast<double>(all.size()) / loop_s;
  std::fprintf(stderr, "perfbench: %zu timed repetitions over %zu "
               "deployments in %.1f s, %zu set-up samples\n", all.size(), k,
               loop_s, setup.total_s.size());
  emit_end_to_end(e, report);
}

using SimVariant = std::function<qlec::SimConfig(const Deployment&)>;

qlec::SimConfig own_sim(const Deployment& d) { return d.cfg.sim; }

/// Alternates repetitions of variants `a` and `b` on rotating deployments
/// until `budget_s` has passed (at least two pairs); returns the two median
/// wall times.
std::pair<double, double> paired_medians(
    const std::vector<Deployment>& deps, const std::string& variant_a,
    const SimVariant& sim_a, const std::string& variant_b,
    const SimVariant& sim_b, double budget_s, DigestGate& gate) {
  std::vector<double> ta, tb;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t j = 0; j < 2 || seconds_since(t0) < budget_s; ++j) {
    const std::size_t i = j % deps.size();
    const Rep a = repetition(deps[i], sim_a(deps[i]), nullptr);
    gate(variant_a, i, a);
    const Rep b = repetition(deps[i], sim_b(deps[i]), nullptr);
    gate(variant_b, i, b);
    ta.push_back(a.wall_s);
    tb.push_back(b.wall_s);
  }
  return {median(ta), median(tb)};
}

/// An optional subsystem of the scenario and how to switch it off.
struct Subsystem {
  const char* name;
  bool (*enabled)(const qlec::SimConfig&);
  void (*switch_off)(qlec::SimConfig&);
};

constexpr Subsystem kSubsystems[] = {
    {"mac", [](const qlec::SimConfig& s) { return s.mac.enabled; },
     [](qlec::SimConfig& s) { s.mac.enabled = false; }},
    {"env", [](const qlec::SimConfig& s) { return s.env.enabled; },
     [](qlec::SimConfig& s) { s.env.enabled = false; }},
    {"fault", [](const qlec::SimConfig& s) { return s.fault.enabled; },
     [](qlec::SimConfig& s) { s.fault.enabled = false; }},
};

void traced(const std::vector<Deployment>& deps, SetupSampler& setup,
            const RunArgs& args, DigestGate& gate, Report& report) {
  const std::size_t k = deps.size();
  const qlec::SimConfig& scenario_sim = deps[0].cfg.sim;
  std::vector<const Subsystem*> enabled;
  for (const Subsystem& sub : kSubsystems)
    if (sub.enabled(scenario_sim)) enabled.push_back(&sub);
  // Half the run goes to the hooks, the other half to the paired
  // comparisons: shard count, and each enabled subsystem switched off.
  const double compare_budget =
      0.5 * args.seconds / static_cast<double>(1 + enabled.size());

  gate("full", 0, repetition(deps[0], deps[0].cfg.sim, nullptr));  // warm-up
  LayerValues v;

  // Hooks: each traced repetition is paired with an untraced one of the same
  // deployment; the gate holds both to one digest.
  HookTimes hooks;
  std::vector<double> plain_s, traced_s;
  double sim_s = 0.0, generated = 0.0, delivered = 0.0, heads = 0.0;
  double tx_attempts = 0.0, collisions = 0.0, cca_busy = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t j = 0; j < 2 || seconds_since(t0) < 0.5 * args.seconds;
       ++j) {
    const std::size_t i = j % k;
    const Rep plain = repetition(deps[i], deps[i].cfg.sim, nullptr);
    gate("full", i, plain);
    const Rep rep = repetition(deps[i], deps[i].cfg.sim, &hooks);
    gate("full", i, rep);
    setup.sample();
    plain_s.push_back(plain.wall_s);
    traced_s.push_back(rep.wall_s);
    sim_s += rep.wall_s;
    generated += static_cast<double>(rep.result.generated);
    delivered += static_cast<double>(rep.result.delivered);
    heads += rep.result.heads_per_round.mean();
    tx_attempts += static_cast<double>(rep.result.mac.totals.tx_attempts);
    collisions += static_cast<double>(rep.result.mac.totals.collisions);
    cca_busy += static_cast<double>(rep.result.mac.totals.cca_busy);
  }
  v.set("net.build_s", median(setup.build_s));
  v.set("sim.protocol_make_s", median(setup.make_s));
  v.set("config.parse_us", 1e6 * median(setup.parse_s));
  const auto reps = static_cast<double>(traced_s.size());
  const double sim_ns = 1e9 * sim_s;
  const auto per_call = [](const HookTime& h) {
    return h.calls == 0 ? 0.0
                        : static_cast<double>(h.ns) /
                              static_cast<double>(h.calls);
  };
  v.set("core.route_ns", per_call(hooks.route));
  v.set("core.route_calls", static_cast<double>(hooks.route.calls) / reps);
  v.set("core.route_share", static_cast<double>(hooks.route.ns) / sim_ns);
  v.set("core.elect_ms_per_round", 1e-6 * per_call(hooks.round_start));
  v.set("core.prepare_tx_ms_per_round", 1e-6 * per_call(hooks.prepare_tx));
  v.set("core.feedback_ns", per_call(hooks.feedback));
  v.set("core.feedback_calls",
        static_cast<double>(hooks.feedback.calls) / reps);
  v.set("sim.self_share",
        1.0 - static_cast<double>(hooks.total_ns()) / sim_ns);
  v.set("sim.pdr", generated > 0.0 ? delivered / generated : 1.0);
  v.set("sim.heads_per_round", heads / reps);
  v.set("sim.mac.tx_attempts", tx_attempts / reps);
  v.set("sim.mac.collisions", collisions / reps);
  v.set("sim.mac.cca_busy", cca_busy / reps);
  v.set("trace.overhead", median(traced_s) / median(plain_s));

  // util.exec: a sharded scenario against serial, a serial one against four
  // shards; the gate holds both to the same digest.
  const bool own_is_serial = scenario_sim.exec.shards <= 1;
  const auto alt_sim = [own_is_serial](const Deployment& d) {
    qlec::SimConfig sim = d.cfg.sim;
    sim.exec.shards = own_is_serial ? 4 : 1;
    return sim;
  };
  const auto [own_s, alt_s] = paired_medians(deps, "full", own_sim, "full",
                                             alt_sim, compare_budget, gate);
  v.set("util.exec.speedup", own_is_serial ? own_s / alt_s : alt_s / own_s);

  // Subsystem costs: the full world against the same world with one
  // subsystem switched off.
  for (const Subsystem* sub : enabled) {
    const auto off = [sub](const Deployment& d) {
      qlec::SimConfig sim = d.cfg.sim;
      sub->switch_off(sim);
      return sim;
    };
    const auto [full, reduced] =
        paired_medians(deps, "full", own_sim, std::string("no-") + sub->name,
                       off, compare_budget, gate);
    v.set(std::string("sim.") + sub->name + ".cost_share",
          1.0 - reduced / full);
  }
  v.emit(report);
}

}  // namespace

void run_rounds(const RoundsWorkload& w, const RunArgs& args,
                Report& report) {
  const std::string text = read_file(w.scenario_path);
  std::vector<std::uint64_t> seeds;
  std::vector<Deployment> deps;
  SetupTimes untimed;
  for (std::size_t i = 0; i < w.deployments; ++i) {
    seeds.push_back(derive_seed(args.seed, i));
    deps.push_back(set_up(text, seeds.back(), untimed));
  }
  SetupSampler setup(text, seeds, w.setup_batch);
  DigestGate gate(report);
  if (args.trace) {
    traced(deps, setup, args, gate, report);
  } else {
    untraced(deps, setup, args, gate, report);
  }
}

}  // namespace perfbench
