// Telemetry demonstration harness (OBSERVABILITY.md walks through the
// outputs). Runs one QLEC simulation with fault injection and full
// telemetry — JSONL events, per-phase Chrome trace, end-of-run metrics —
// then validates every artifact by parsing it back and prints the worked
// example from the docs: mean elected heads per round vs the Theorem 1
// k_opt prediction. Exits nonzero if any artifact fails to parse, so CI
// can use it as a smoke test.
//
// The artifacts are written to obs_events.jsonl / obs_trace.json /
// obs_metrics.json in the working directory. To get the same artifacts
// from any scenario, set sim.telemetry.* with qlec_run --set
// (OBSERVABILITY.md).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/qlec.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"

namespace {

int g_failures = 0;

void check(const char* claim, bool ok, const std::string& detail) {
  std::printf("[%s] %-52s %s\n", ok ? "PASS" : "FAIL", claim, detail.c_str());
  if (!ok) ++g_failures;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main() {
  using namespace qlec;

  // --- Configure: file sinks for all three artifacts. ---
  obs::TelemetryOptions topt;
  topt.enabled = true;
  topt.sink = obs::TelemetryOptions::Sink::kFile;
  topt.events_path = "obs_events.jsonl";
  topt.trace_phases = true;
  topt.trace_path = "obs_trace.json";
  topt.metrics_path = "obs_metrics.json";

  ScenarioConfig scenario;  // the paper's §5.1 deployment
  Rng net_rng(7);
  Network net = make_uniform_network(scenario, net_rng);

  SimConfig sim;
  sim.rounds = 40;
  sim.slots_per_round = 10;
  sim.mean_interarrival = 4.0;
  sim.telemetry = topt;
  // A few faults so the event stream shows "fault" transitions too.
  sim.fault.enabled = true;
  sim.fault.hazards.stun_per_node = 0.002;
  sim.fault.hazards.stun_rounds = 3;
  sim.fault.plan.events.push_back(
      FaultEvent{FaultKind::kCrash, /*round=*/12, /*node=*/5});
  sim.fault.plan.events.push_back(
      FaultEvent{FaultKind::kLinkDegrade, /*round=*/20, /*node=*/-1,
                 /*duration=*/4, /*severity=*/0.6});

  QlecParams params;
  params.total_rounds = sim.rounds;
  QlecProtocol protocol(net, params, RadioModel(sim.radio), sim.death_line);

  Rng rng(7 ^ 0xD1B54A32D192ED03ULL);
  const SimResult result = run_simulation(net, protocol, sim, rng);

  std::printf("=== obs_demo: %s, %d rounds, PDR %.3f ===\n\n",
              result.protocol.c_str(), result.rounds_completed,
              result.pdr());

  // --- Validate the JSONL event stream line by line. ---
  {
    std::ifstream in(topt.events_path);
    std::size_t lines = 0, bad = 0, elections = 0, faults = 0;
    double head_sum = 0.0;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++lines;
      std::string err;
      const auto v = parse_json(line, &err);
      if (!v || !v->is_object()) {
        ++bad;
        continue;
      }
      const JsonValue* type = v->get("type");
      if (type == nullptr || !type->is_string()) {
        ++bad;
        continue;
      }
      if (type->as_string() == "election") {
        ++elections;
        if (const JsonValue* h = v->get("heads"); h != nullptr)
          head_sum += h->as_double();
      }
      if (type->as_string() == "fault") ++faults;
    }
    check("events: every JSONL line parses", lines > 0 && bad == 0,
          std::to_string(lines) + " lines, " + std::to_string(bad) + " bad");
    check("events: one election record per round",
          elections == static_cast<std::size_t>(result.rounds_completed),
          std::to_string(elections) + " records");
    check("events: fault transitions present", faults > 0,
          std::to_string(faults) + " fault events");

    // The worked example from OBSERVABILITY.md: Algorithm 3 prunes the
    // elected set toward the Theorem 1 prediction, so the mean head count
    // tracks k_opt from the election events alone.
    const double mean_heads =
        elections > 0 ? head_sum / static_cast<double>(elections) : 0.0;
    std::printf("\nworked example: mean heads/round %.2f vs k_opt %zu\n\n",
                mean_heads, protocol.k_opt());
    check("events: mean head count within 3x of k_opt",
          mean_heads > 0.0 &&
              mean_heads < 3.0 * static_cast<double>(protocol.k_opt()),
          "");
  }

  // --- Validate the Chrome trace document. ---
  {
    std::string err;
    const auto doc = parse_json(slurp(topt.trace_path), &err);
    const JsonValue* events =
        doc && doc->is_object() ? doc->get("traceEvents") : nullptr;
    check("trace: document parses with traceEvents array",
          events != nullptr && events->is_array() && events->size() > 0,
          err);
    std::size_t rounds = 0;
    if (events != nullptr && events->is_array()) {
      for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue* name = events->at(i).get("name");
        if (name != nullptr && name->as_string() == "round") ++rounds;
      }
    }
    check("trace: one 'round' span per simulated round",
          rounds == static_cast<std::size_t>(result.rounds_completed),
          std::to_string(rounds) + " spans");
  }

  // --- Validate the metrics export against the SimResult. ---
  {
    std::string err;
    const auto doc = parse_json(slurp(topt.metrics_path), &err);
    check("metrics: document parses", doc && doc->is_object(), err);
    if (doc && doc->is_object()) {
      const JsonValue* counters = doc->get("counters");
      const JsonValue* gen =
          counters != nullptr ? counters->get("sim.packets.generated")
                              : nullptr;
      check("metrics: generated counter matches SimResult",
            gen != nullptr &&
                static_cast<std::uint64_t>(gen->as_double()) ==
                    result.generated,
            gen != nullptr ? std::to_string(gen->as_double()) : "missing");
    }
  }

  std::printf("\n%s (%d failure%s)\n",
              g_failures == 0 ? "ALL TELEMETRY ARTIFACTS VALID"
                              : "TELEMETRY VALIDATION FAILED",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
