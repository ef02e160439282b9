// Telemetry/simulator integration: the determinism contract (enabled
// telemetry changes NO trajectory for any protocol in the registry), the
// event-stream and metrics consistency against SimResult, and the per-seed
// output-file suffixing used by pool-mode replications.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/experiment.hpp"
#include "util/json.hpp"

namespace qlec {
namespace {

/// Same shape as the golden-trace scenario: small but busy enough that all
/// instrumented paths (retries, prunes, uplinks, round metrics) run.
ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 40;
  cfg.sim.rounds = 10;
  cfg.sim.slots_per_round = 10;
  cfg.sim.trace.record = true;
  cfg.seeds = 2;
  cfg.base_seed = 42;
  cfg.protocol.qlec.total_rounds = 10;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TelemetrySim, EnabledTelemetryKeepsEveryProtocolTraceIdentical) {
  // Stronger than the audit guarantee: telemetry stays bit-identical even
  // when ENABLED (it draws nothing from any Rng stream), so the digests
  // must match with the full instrument set running.
  const ExperimentConfig plain_cfg = small_config();
  ExperimentConfig tele_cfg = plain_cfg;
  tele_cfg.sim.telemetry.enabled = true;
  tele_cfg.sim.telemetry.sink = obs::TelemetryOptions::Sink::kRing;
  tele_cfg.sim.telemetry.trace_phases = true;
  tele_cfg.sim.telemetry.per_packet_events = true;
  for (const std::string& name : protocol_names()) {
    const auto plain = run_replications(name, plain_cfg);
    const auto instrumented = run_replications(name, tele_cfg);
    ASSERT_EQ(plain.size(), instrumented.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
      EXPECT_EQ(trace_digest(plain[i].trace),
                trace_digest(instrumented[i].trace))
          << name << " seed " << i;
  }
}

TEST(TelemetrySim, EventStreamMatchesRoundCount) {
  const std::string path = "test_telemetry_events.jsonl";
  ExperimentConfig cfg = small_config();
  cfg.seeds = 1;
  cfg.sim.telemetry.enabled = true;
  cfg.sim.telemetry.sink = obs::TelemetryOptions::Sink::kFile;
  cfg.sim.telemetry.events_path = path;
  const auto results = run_replications("qlec", cfg);
  ASSERT_EQ(results.size(), 1u);
  const int rounds = results[0].rounds_completed;

  std::ifstream in(path);
  std::size_t elections = 0, round_ends = 0, stats = 0, lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++lines;
    std::string err;
    const auto v = parse_json(line, &err);
    ASSERT_TRUE(v.has_value()) << err << " in: " << line;
    const std::string type = v->get("type")->as_string();
    if (type == "election") ++elections;
    if (type == "round_end") ++round_ends;
    if (type == "election_stats") ++stats;
  }
  EXPECT_EQ(elections, static_cast<std::size_t>(rounds));
  EXPECT_EQ(round_ends, static_cast<std::size_t>(rounds));
  EXPECT_EQ(stats, static_cast<std::size_t>(rounds));
  EXPECT_GE(lines, 3u * static_cast<std::size_t>(rounds));
  std::remove(path.c_str());
}

TEST(TelemetrySim, MetricsExportAgreesWithSimResult) {
  // The small cell, and a congested §5.1 cell (lambda = 2) whose run ends
  // with packets still queued: the end-of-run tally books those into
  // lost_dead after the last round, and the counters must include them.
  ExperimentConfig congested;
  congested.scenario.n = 100;
  congested.scenario.m_side = 200.0;
  congested.scenario.initial_energy = 5.0;
  congested.sim.rounds = 20;
  congested.sim.slots_per_round = 20;
  congested.sim.mean_interarrival = 2.0;
  congested.protocol.qlec.total_rounds = 20;
  for (ExperimentConfig cfg : {small_config(), congested}) {
    const std::string path = "test_telemetry_metrics.json";
    cfg.seeds = 1;
    cfg.sim.telemetry.enabled = true;
    cfg.sim.telemetry.sink = obs::TelemetryOptions::Sink::kNull;
    cfg.sim.telemetry.metrics_path = path;
    const auto results = run_replications("qlec", cfg);
    ASSERT_EQ(results.size(), 1u);
    const SimResult& r = results[0];
    if (cfg.scenario.n == congested.scenario.n) {
      ASSERT_GT(r.lost_dead, 0u);
    }

    std::string err;
    const auto doc = parse_json(slurp(path), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue* counters = doc->get("counters");
    ASSERT_NE(counters, nullptr);
    const auto counter = [&](const char* name) -> std::uint64_t {
      const JsonValue* v = counters->get(name);
      return v != nullptr ? static_cast<std::uint64_t>(v->as_double()) : 0;
    };
    EXPECT_EQ(counter("sim.rounds"),
              static_cast<std::uint64_t>(r.rounds_completed));
    EXPECT_EQ(counter("sim.packets.generated"), r.generated);
    EXPECT_EQ(counter("sim.packets.delivered"), r.delivered);
    EXPECT_EQ(counter("sim.packets.lost.link"), r.lost_link);
    EXPECT_EQ(counter("sim.packets.lost.queue"), r.lost_queue);
    EXPECT_EQ(counter("sim.packets.lost.dead"), r.lost_dead);
    std::remove(path.c_str());
  }
}

TEST(TelemetrySim, MacSpansNestInTransmissionAndUplink) {
  // Each contention phase records one "mac" span: inside "transmission"
  // for the member frames of a slot, inside "uplink" for the head chains.
  // A run without the MAC records none.
  for (const bool mac : {true, false}) {
    const std::string path = "test_telemetry_mac_trace.json";
    ExperimentConfig cfg = small_config();
    cfg.seeds = 1;
    cfg.sim.mac.enabled = mac;
    cfg.sim.telemetry.enabled = true;
    cfg.sim.telemetry.sink = obs::TelemetryOptions::Sink::kNull;
    cfg.sim.telemetry.trace_phases = true;
    cfg.sim.telemetry.trace_path = path;
    run_replications("qlec", cfg);

    std::string err;
    const auto doc = parse_json(slurp(path), &err);
    std::remove(path.c_str());
    ASSERT_TRUE(doc.has_value()) << err;
    struct Span {
      std::string name;
      double begin, end;
      int round;
    };
    std::vector<Span> spans;
    const JsonValue& events = *doc->get("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
      const JsonValue& e = events.at(i);
      const double ts = e.get("ts")->as_double();
      spans.push_back({e.get("name")->as_string(), ts,
                       ts + e.get("dur")->as_double(),
                       static_cast<int>(
                           e.get("args")->get("round")->as_double())});
    }
    std::size_t in_transmission = 0, in_uplink = 0, mac_spans = 0;
    for (const Span& m : spans) {
      if (m.name != "mac") continue;
      ++mac_spans;
      // The enclosing phase of the same round; ts and dur are rounded
      // microseconds, hence the slack.
      for (const Span& p : spans) {
        if (p.round != m.round || p.begin > m.begin + 1e-3 ||
            m.end > p.end + 1e-3)
          continue;
        in_transmission += p.name == "transmission";
        in_uplink += p.name == "uplink";
      }
    }
    if (!mac) {
      EXPECT_EQ(mac_spans, 0u);
      continue;
    }
    EXPECT_GT(in_transmission, 0u);
    EXPECT_GT(in_uplink, 0u);
    EXPECT_EQ(in_transmission + in_uplink, mac_spans)
        << "every mac span lies in exactly one of the two phases";
  }
}

TEST(TelemetrySim, SeedSuffixRewritesPathsBeforeTheExtension) {
  obs::TelemetryOptions opts;
  opts.events_path = "out/ev.jsonl";
  opts.trace_path = "trace.json";
  opts.metrics_path = "plain";  // no extension: plain append
  const obs::TelemetryOptions got =
      obs::Telemetry::with_seed_suffix(opts, 3);
  EXPECT_EQ(got.events_path, "out/ev.seed3.jsonl");
  EXPECT_EQ(got.trace_path, "trace.seed3.json");
  EXPECT_EQ(got.metrics_path, "plain.seed3");

  // A dot inside a directory name is not an extension.
  obs::TelemetryOptions dir;
  dir.events_path = "out.d/events";
  EXPECT_EQ(obs::Telemetry::with_seed_suffix(dir, 0).events_path,
            "out.d/events.seed0");

  // Empty paths stay empty (no output configured).
  obs::TelemetryOptions empty;
  EXPECT_EQ(obs::Telemetry::with_seed_suffix(empty, 1).events_path, "");
}

TEST(TelemetrySim, ReplicationsWriteOneEventFilePerSeed) {
  ExperimentConfig cfg = small_config();
  cfg.seeds = 2;
  cfg.sim.rounds = 3;
  cfg.sim.telemetry.enabled = true;
  cfg.sim.telemetry.sink = obs::TelemetryOptions::Sink::kFile;
  cfg.sim.telemetry.events_path = "test_telemetry_rep.jsonl";
  run_replications("qlec", cfg);
  for (const char* path : {"test_telemetry_rep.seed0.jsonl",
                           "test_telemetry_rep.seed1.jsonl"}) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path << " missing";
    std::string first;
    std::getline(in, first);
    EXPECT_TRUE(parse_json(first).has_value()) << path;
    in.close();
    std::remove(path);
  }
}

}  // namespace
}  // namespace qlec
