// The benchmark's own tests: order statistics, the result-line grammar, the
// metric lists against BENCHMARK.json, and the hook-timing decorator's
// transparency across the protocol registry. Runs from the checkout root.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/sweep.hpp"
#include "report.hpp"
#include "sim/experiment.hpp"
#include "traced_protocol.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnKnownSamples) {
  const std::vector<double> five = {35, 20, 50, 15, 40};
  EXPECT_EQ(percentile(five, 5), 15);
  EXPECT_EQ(percentile(five, 30), 20);
  EXPECT_EQ(percentile(five, 40), 20);
  EXPECT_EQ(percentile(five, 50), 35);
  EXPECT_EQ(percentile(five, 100), 50);
  EXPECT_EQ(median(five), 35);

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(percentile(hundred, 50), 50);
  EXPECT_EQ(percentile(hundred, 90), 90);
  EXPECT_EQ(percentile(hundred, 99), 99);
  EXPECT_EQ(percentile({7.5}, 90), 7.5);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({1, 2}), 1);  // nearest rank never interpolates
  EXPECT_THROW(percentile(five, 0), std::invalid_argument);
  EXPECT_THROW(percentile(five, 101), std::invalid_argument);
}

TEST(MetricGrammar, NamesAndUnits) {
  for (const char* ok : {"setup_s", "core.route_ns", "9lives", "a-b.c_d",
                         "config.jobs.hit_ratio"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const std::string& bad :
       {std::string(), std::string("_lead"), std::string(".x"),
        std::string("-x"), std::string("has space"), std::string("a/b"),
        std::string("caf\xc3\xa9"), std::string(65, 'a')})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));

  for (const char* ok : {"ms", "s", "1/s", "count", "%", "MiB", "x"})
    EXPECT_TRUE(valid_unit(ok)) << ok;
  for (const std::string& bad : {std::string(), std::string("m s"),
                                std::string(17, 'u'), std::string("s,")})
    EXPECT_FALSE(valid_unit(bad)) << bad;
}

TEST(Report, ResultLineShape) {
  Report r;
  r.attempt(true);
  r.attempt(false, "expected failure in a test");
  r.attempt(false, "expected failed check in a test");
  r.metric("lat_p50_ms", 1.25, "ms");
  EXPECT_THROW(r.metric("lat_p50_ms", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(r.metric("bad name", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(r.metric("ok", 2.0, "bad unit"), std::invalid_argument);
  EXPECT_THROW(r.metric("nan", 0.0 / 0.0, "ms"), std::invalid_argument);

  const auto doc = qlec::parse_json(r.to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->size(), 4u);
  EXPECT_FALSE(doc->get("correct")->as_bool());
  EXPECT_EQ(doc->get("attempted")->as_int(), 3);
  EXPECT_EQ(doc->get("failed")->as_int(), 2);
  const qlec::JsonValue* m = doc->get("metrics")->get("lat_p50_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->get("value")->as_double(), 1.25);
  EXPECT_EQ(m->get("unit")->as_string(), "ms");

  // A run that never reached an operation still reads as failed.
  const auto empty = qlec::parse_json(Report().to_json());
  EXPECT_EQ(empty->get("attempted")->as_int(), 1);
  EXPECT_EQ(empty->get("failed")->as_int(), 1);
}

/// name -> unit of one BENCHMARK.json metric section.
std::map<std::string, std::string> declared(const char* section) {
  const auto spec = qlec::parse_json(read_file("BENCHMARK.json"));
  EXPECT_TRUE(spec.has_value());
  std::map<std::string, std::string> out;
  for (const qlec::JsonValue& m : spec->get(section)->items())
    out[m.get("name")->as_string()] = m.get("unit")->as_string();
  return out;
}

TEST(MetricLists, MatchBenchmarkJson) {
  std::map<std::string, std::string> layer;
  for (std::size_t i = 0; i < kLayerMetricCount; ++i)
    layer[kLayerMetrics[i].name] = kLayerMetrics[i].unit;
  EXPECT_EQ(layer.size(), kLayerMetricCount) << "duplicate layer metric";
  EXPECT_EQ(layer, declared("per_layer"));

  Report r;
  emit_end_to_end(EndToEnd{}, r);
  std::map<std::string, std::string> e2e;
  const auto doc = qlec::parse_json(r.to_json());
  for (const auto& [name, m] : doc->get("metrics")->members())
    e2e[name] = m.get("unit")->as_string();
  EXPECT_EQ(e2e, declared("end_to_end"));

  LayerValues v;
  EXPECT_THROW(v.set("core.no_such_metric", 1.0), std::invalid_argument);
}

/// Records which virtuals reached it.
class SpyProtocol final : public qlec::ClusteringProtocol {
 public:
  std::set<std::string>* seen;
  explicit SpyProtocol(std::set<std::string>* s) : seen(s) {}
  std::string name() const override { seen->insert("name"); return "spy"; }
  bool flat_routing() const override {
    seen->insert("flat_routing");
    return true;
  }
  void on_round_start(qlec::Network&, int, qlec::Rng&,
                      qlec::EnergyLedger&) override {
    seen->insert("on_round_start");
  }
  int route(const qlec::Network&, int, double, qlec::Rng&) override {
    seen->insert("route");
    return 7;
  }
  int uplink_target(const qlec::Network&, int, qlec::Rng&) override {
    seen->insert("uplink_target");
    return 8;
  }
  void on_tx_result(const qlec::Network&, int, int, bool) override {
    seen->insert("on_tx_result");
  }
  void on_uplink_result(const qlec::Network&, int, bool) override {
    seen->insert("on_uplink_result");
  }
  void on_round_end(qlec::Network&, int) override {
    seen->insert("on_round_end");
  }
  std::size_t learning_updates() const override {
    seen->insert("learning_updates");
    return 9;
  }
  void prepare_tx(const qlec::Network&, double) override {
    seen->insert("prepare_tx");
  }
  void set_exec(qlec::ExecContext* exec) override {
    if (exec != nullptr) seen->insert("set_exec");
  }
  void set_telemetry(qlec::obs::Telemetry* t) override {
    if (t != nullptr) seen->insert("set_telemetry");
  }
};

TEST(TracedProtocol, ForwardsEveryVirtual) {
  std::set<std::string> seen;
  TracedProtocol traced(std::make_unique<SpyProtocol>(&seen));
  qlec::Network net;
  qlec::Rng rng(1);
  qlec::EnergyLedger ledger;
  EXPECT_EQ(traced.name(), "spy");
  EXPECT_TRUE(traced.flat_routing());
  traced.on_round_start(net, 0, rng, ledger);
  EXPECT_EQ(traced.route(net, 0, 1.0, rng), 7);
  EXPECT_EQ(traced.uplink_target(net, 0, rng), 8);
  traced.on_tx_result(net, 0, 1, true);
  traced.on_uplink_result(net, 0, true);
  traced.on_round_end(net, 0);
  EXPECT_EQ(traced.learning_updates(), 9u);
  traced.prepare_tx(net, 1.0);
  traced.set_exec(reinterpret_cast<qlec::ExecContext*>(&seen));
  traced.set_telemetry(reinterpret_cast<qlec::obs::Telemetry*>(&seen));
  EXPECT_EQ(seen, (std::set<std::string>{
                      "name", "flat_routing", "on_round_start", "route",
                      "uplink_target", "on_tx_result", "on_uplink_result",
                      "on_round_end", "learning_updates", "prepare_tx",
                      "set_exec", "set_telemetry"}));
  const HookTimes& t = traced.times();
  EXPECT_EQ(t.round_start.calls, 1u);
  EXPECT_EQ(t.route.calls, 1u);
  EXPECT_EQ(t.uplink_target.calls, 1u);
  EXPECT_EQ(t.feedback.calls, 2u);
  EXPECT_EQ(t.round_end.calls, 1u);
  EXPECT_EQ(t.prepare_tx.calls, 1u);
}

/// The golden digest file of `protocol`, comment lines dropped.
std::vector<std::string> golden(const std::string& protocol) {
  std::vector<std::string> out;
  const std::string text = read_file("tests/golden/" + protocol + ".digest");
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    if (end > at && text[at] != '#') out.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return out;
}

std::string digest_of(const qlec::ExperimentConfig& cfg, std::uint64_t seed,
                      const qlec::SimConfig& sim, bool traced,
                      HookTimes* hooks) {
  qlec::Network net = qlec::build_network(cfg, seed);
  qlec::ProtocolOptions opts = cfg.protocol;
  opts.death_line = cfg.sim.death_line;
  std::unique_ptr<qlec::ClusteringProtocol> p =
      qlec::make_protocol(cfg.protocol.name, net, opts);
  TracedProtocol* wrapper = nullptr;
  if (traced) {
    auto w = std::make_unique<TracedProtocol>(std::move(p));
    wrapper = w.get();
    p = std::move(w);
  }
  qlec::Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
  const qlec::SimResult r = qlec::run_simulation(net, *p, sim, rng);
  if (wrapper != nullptr) *hooks += wrapper->times();
  return qlec::trace_digest_hex(r.trace);
}

// Digest equality against the unwrapped protocol (and the committed
// goldens) across the registry, serial and sharded, with telemetry on.
TEST(TracedProtocol, DigestsEqualUnwrappedAcrossRegistry) {
  const auto cells = qlec::config::expand_grid(qlec::config::parse_scenario(
      read_file("examples/scenarios/golden_replay.json")));
  ASSERT_EQ(cells.size(), qlec::protocol_names().size());
  for (const qlec::config::SweepCell& cell : cells) {
    const qlec::ExperimentConfig& cfg = cell.config;
    const std::vector<std::string> want = golden(cfg.protocol.name);
    ASSERT_EQ(want.size(), cfg.seeds) << cfg.protocol.name;
    qlec::SimConfig sharded = cfg.sim;
    sharded.exec.shards = 3;
    qlec::SimConfig observed = cfg.sim;
    observed.telemetry.enabled = true;
    observed.telemetry.sink = qlec::obs::TelemetryOptions::Sink::kNull;
    HookTimes hooks;
    for (std::size_t i = 0; i < cfg.seeds; ++i) {
      const std::uint64_t seed = cfg.base_seed + i;
      const std::string plain = digest_of(cfg, seed, cfg.sim, false, nullptr);
      EXPECT_EQ(plain, want[i]) << cfg.protocol.name;
      EXPECT_EQ(digest_of(cfg, seed, cfg.sim, true, &hooks), plain)
          << cfg.protocol.name;
      EXPECT_EQ(digest_of(cfg, seed, sharded, true, &hooks), plain)
          << cfg.protocol.name << " sharded";
      EXPECT_EQ(digest_of(cfg, seed, observed, true, &hooks), plain)
          << cfg.protocol.name << " telemetry";
    }
    EXPECT_EQ(hooks.round_start.calls,
              3 * cfg.seeds * static_cast<std::uint64_t>(cfg.sim.rounds))
        << cfg.protocol.name;
    EXPECT_GT(hooks.route.calls, 0u) << cfg.protocol.name;
  }
}

}  // namespace
}  // namespace perfbench
