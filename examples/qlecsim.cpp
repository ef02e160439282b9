// qlecsim — general-purpose simulation driver over the public API: pick a
// protocol, deployment, traffic level, and mobility model from the command
// line and get a metrics table (optionally CSV on stdout for scripting).
//
//   ./build/examples/qlecsim --protocol qlec --n 100 --lambda 4 --rounds 20
//   ./build/examples/qlecsim --protocol fcm --mobility waypoint --speed 10
//   ./build/examples/qlecsim --help
#include <cstdio>
#include <string>

#include "net/network_io.hpp"
#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

/// "qlec|ideec|..." over the whole registry, so the help cannot drift
/// from what make_protocol accepts.
std::string protocol_choices() {
  std::string out;
  for (const std::string& name : qlec::protocol_names())
    out += (out.empty() ? "" : "|") + name;
  return out;
}

const std::vector<std::pair<std::string, std::string>> kOptions = {
    {"--protocol <name>", protocol_choices() + " (default qlec)"},
    {"--n <int>", "node count (default 100)"},
    {"--m <meters>", "cube side (default 200)"},
    {"--energy <J>", "initial energy per node (default 5)"},
    {"--rounds <int>", "rounds to simulate (default 20)"},
    {"--lambda <slots>", "mean packet inter-arrival per node (default 4)"},
    {"--seeds <int>", "replications (default 3)"},
    {"--seed <int>", "base seed (default 42)"},
    {"--k <int>", "force cluster count (default: Theorem 1 k_opt)"},
    {"--deployment <kind>", "uniform|terrain (default uniform)"},
    {"--bs <kind>", "surface|center|corner|external (default surface)"},
    {"--mobility <kind>", "none|walk|waypoint (default none)"},
    {"--speed <m/round>", "mobility speed (default 5)"},
    {"--harvest <J/round>", "energy harvested per node per round"},
    {"--lifespan", "lifespan mode: stop at first node death"},
    {"--csv", "emit one CSV row per seed instead of the table"},
    {"--json", "emit a JSON document with per-seed results"},
    {"--save-deployment <path>", "write the seed-0 topology as CSV and "
                                 "exit"},
    {"--load-deployment <path>", "simulate on a saved topology (single "
                                 "replication)"},
    {"--help", "show this message"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace qlec;
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    std::fputs(render_usage("qlecsim", kOptions).c_str(), stdout);
    return 0;
  }

  ExperimentConfig cfg;
  cfg.scenario.n = static_cast<std::size_t>(args.get_int("n", 100));
  cfg.scenario.m_side = args.get_double("m", 200.0);
  cfg.scenario.initial_energy = args.get_double("energy", 5.0);
  cfg.sim.rounds = static_cast<int>(args.get_int("rounds", 20));
  cfg.sim.mean_interarrival = args.get_double("lambda", 4.0);
  cfg.sim.harvest_per_round = args.get_double("harvest", 0.0);
  cfg.sim.trace.stop_at_first_death = args.has("lifespan");
  cfg.seeds = static_cast<std::size_t>(args.get_int("seeds", 3));
  cfg.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string deployment = args.get_string("deployment", "uniform");
  if (const auto d = deployment_from_name(deployment)) {
    cfg.deployment = *d;
  } else {
    std::fprintf(stderr, "qlecsim: unknown deployment '%s' "
                 "(expected uniform|terrain)\n", deployment.c_str());
    return 2;
  }
  cfg.protocol.k = static_cast<std::size_t>(args.get_int("k", 0));
  cfg.protocol.qlec.force_k = static_cast<int>(args.get_int("k", 0));
  cfg.protocol.qlec.total_rounds = cfg.sim.rounds;

  const std::string bs = args.get_string("bs", "surface");
  if (bs == "center") cfg.scenario.bs = BsPlacement::kCenter;
  else if (bs == "corner") cfg.scenario.bs = BsPlacement::kCorner;
  else if (bs == "external") cfg.scenario.bs = BsPlacement::kExternal;
  else cfg.scenario.bs = BsPlacement::kTopFaceCenter;

  const std::string mobility = args.get_string("mobility", "none");
  if (mobility == "walk") cfg.sim.mobility.kind = MobilityKind::kRandomWalk;
  else if (mobility == "waypoint")
    cfg.sim.mobility.kind = MobilityKind::kRandomWaypoint;
  cfg.sim.mobility.speed = args.get_double("speed", 5.0);

  const std::string protocol = args.get_string("protocol", "qlec");
  if (!args.errors().empty()) {
    for (const std::string& key : args.errors())
      std::fprintf(stderr, "qlecsim: bad value for --%s\n", key.c_str());
    return 2;
  }

  if (const auto path = args.get("save-deployment")) {
    const Network net = build_network(cfg, cfg.base_seed);
    if (!write_text_file(*path, network_to_csv(net))) {
      std::fprintf(stderr, "qlecsim: cannot write %s\n", path->c_str());
      return 2;
    }
    std::printf("saved %zu-node deployment to %s\n", net.size(),
                path->c_str());
    return 0;
  }

  std::vector<SimResult> results;
  try {
    if (const auto path = args.get("load-deployment")) {
      const auto text = read_text_file(*path);
      if (!text) {
        std::fprintf(stderr, "qlecsim: cannot read %s\n", path->c_str());
        return 2;
      }
      auto net = network_from_csv(*text);
      if (!net) {
        std::fprintf(stderr, "qlecsim: %s is not a deployment CSV\n",
                     path->c_str());
        return 2;
      }
      auto proto = make_protocol(protocol, *net, cfg.protocol);
      Rng rng(cfg.base_seed ^ 0xD1B54A32D192ED03ULL);
      results.push_back(run_simulation(*net, *proto, cfg.sim, rng));
    } else {
      results = run_replications(protocol, cfg);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qlecsim: %s\n", e.what());
    return 2;
  }

  if (args.has("json")) {
    JsonWriter j;
    j.begin_object();
    j.key("protocol");
    j.value(results.empty() ? protocol : results.front().protocol);
    j.key("seeds");
    j.begin_array();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SimResult& r = results[i];
      j.begin_object();
      j.key("seed");
      j.value(static_cast<unsigned long long>(cfg.base_seed + i));
      j.key("pdr");
      j.value(r.pdr());
      j.key("energy_j");
      j.value(r.total_energy_consumed);
      j.key("latency_slots");
      j.value(r.latency.mean());
      j.key("first_death_round");
      j.value(static_cast<long long>(r.first_death_round));
      j.key("heads_per_round");
      j.value(r.heads_per_round.mean());
      j.key("generated");
      j.value(static_cast<unsigned long long>(r.generated));
      j.key("delivered");
      j.value(static_cast<unsigned long long>(r.delivered));
      j.end_object();
    }
    j.end_array();
    j.end_object();
    std::printf("%s\n", j.str().c_str());
    return 0;
  }

  if (args.has("csv")) {
    std::printf("seed,protocol,pdr,energy_j,latency_slots,fnd_round,"
                "heads_per_round\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SimResult& r = results[i];
      std::printf("%llu,%s,%.6f,%.6f,%.3f,%d,%.3f\n",
                  static_cast<unsigned long long>(cfg.base_seed + i),
                  r.protocol.c_str(), r.pdr(), r.total_energy_consumed,
                  r.latency.mean(), r.first_death_round,
                  r.heads_per_round.mean());
    }
    return 0;
  }

  AggregatedMetrics agg;
  for (const SimResult& r : results) agg.add(r);
  TextTable t({"metric", "mean +/- ci95"});
  t.add_row({"protocol", agg.protocol});
  t.add_row({"PDR", fmt_pm(agg.pdr.mean(), agg.pdr.ci95_halfwidth(), 4)});
  t.add_row({"energy (J)", fmt_pm(agg.total_energy.mean(),
                                  agg.total_energy.ci95_halfwidth(), 3)});
  t.add_row({"latency (slots)",
             fmt_pm(agg.mean_latency.mean(),
                    agg.mean_latency.ci95_halfwidth(), 2)});
  t.add_row({"lifespan FND (rounds)",
             fmt_pm(agg.first_death.mean(),
                    agg.first_death.ci95_halfwidth(), 1)});
  t.add_row({"heads/round", fmt_double(agg.heads_per_round.mean(), 2)});
  t.add_row({"packets generated", fmt_double(agg.generated.mean(), 0)});
  std::printf("%s", t.render().c_str());
  return 0;
}
