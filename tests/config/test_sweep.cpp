// Sweep-grid expansion and the run manifest: grid shape, cell ordering,
// --set override semantics, label rendering, and the manifest's resolved
// config echo re-parsing to the identical grid.
#include "config/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "config/runner.hpp"

namespace qlec::config {
namespace {

const char* kFig3 = R"({
  "name": "fig3-grid",
  "description": "3x3 comparison",
  "scenario": {"n": 40},
  "sim": {"rounds": 3, "slots_per_round": 4},
  "seeds": 2,
  "sweep": {
    "protocol.name": ["qlec", "fcm", "kmeans"],
    "sim.mean_interarrival": [2, 4, 8]
  }
})";

TEST(Sweep, ParseScenarioSeparatesMetaFromBase) {
  const ScenarioFile s = parse_scenario(kFig3);
  EXPECT_EQ(s.name, "fig3-grid");
  EXPECT_EQ(s.description, "3x3 comparison");
  ASSERT_EQ(s.axes.size(), 2u);
  EXPECT_EQ(s.axes[0].path, "protocol.name");
  EXPECT_EQ(s.axes[1].path, "sim.mean_interarrival");
  // The base document holds only config keys — no meta leakage.
  EXPECT_EQ(s.base.get("sweep"), nullptr);
  EXPECT_EQ(s.base.get("name"), nullptr);
  ASSERT_NE(s.base.get("scenario"), nullptr);
}

TEST(Sweep, ThreeByThreeExpandsToNineCells) {
  const auto cells = expand_grid(parse_scenario(kFig3));
  ASSERT_EQ(cells.size(), 9u);
  // Declaration order, last axis fastest.
  EXPECT_EQ(cells[0].label, "protocol.name=qlec sim.mean_interarrival=2");
  EXPECT_EQ(cells[1].label, "protocol.name=qlec sim.mean_interarrival=4");
  EXPECT_EQ(cells[3].label, "protocol.name=fcm sim.mean_interarrival=2");
  EXPECT_EQ(cells[8].label, "protocol.name=kmeans sim.mean_interarrival=8");
  // Bindings landed in the configs, and base keys survived.
  EXPECT_EQ(cells[3].config.protocol.name, "fcm");
  EXPECT_DOUBLE_EQ(cells[3].config.sim.mean_interarrival, 2.0);
  EXPECT_EQ(cells[3].config.scenario.n, 40u);
  EXPECT_EQ(cells[3].config.seeds, 2u);
  ASSERT_EQ(cells[3].bindings.size(), 2u);
  EXPECT_EQ(cells[3].bindings[0].first, "protocol.name");
}

TEST(Sweep, MacKnobsAreSweepable) {
  // The contention knobs ride the generic path machinery: a boolean
  // enabled axis crossed with a numeric cca_range axis.
  const auto cells = expand_grid(parse_scenario(R"({
    "sweep": {"sim.mac.enabled": [false, true],
              "sim.mac.cca_range": [75, 150]}
  })"));
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_FALSE(cells[0].config.sim.mac.enabled);
  EXPECT_TRUE(cells[2].config.sim.mac.enabled);
  EXPECT_DOUBLE_EQ(cells[1].config.sim.mac.cca_range, 150.0);
  EXPECT_EQ(cells[3].label, "sim.mac.enabled=true sim.mac.cca_range=150");
}

TEST(Sweep, NoSweepBlockIsOneCell) {
  const auto cells = expand_grid(parse_scenario(R"({"scenario":{"n":7}})"));
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].label.empty());
  EXPECT_TRUE(cells[0].bindings.empty());
  EXPECT_EQ(cells[0].config.scenario.n, 7u);
}

TEST(Sweep, OverridePinsMatchingAxis) {
  const ScenarioFile s = parse_scenario(kFig3);
  const auto cells =
      expand_grid(s, {{"protocol.name", JsonValue::make_string("qlec")}});
  ASSERT_EQ(cells.size(), 3u);  // the 3-protocol axis collapsed
  for (const SweepCell& c : cells) EXPECT_EQ(c.config.protocol.name, "qlec");
}

TEST(Sweep, OverrideOnNonAxisPathJustSets) {
  const auto cells = expand_grid(parse_scenario(kFig3),
                                 {{"scenario.n", JsonValue::make_number(99)}});
  ASSERT_EQ(cells.size(), 9u);
  for (const SweepCell& c : cells) EXPECT_EQ(c.config.scenario.n, 99u);
}

TEST(Sweep, TypoedAxisPathDiesPathQualified) {
  try {
    expand_grid(parse_scenario(
        R"({"sweep": {"scenario.nn": [1, 2]}})"));
    FAIL() << "typo'd axis accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.path(), "scenario.nn");
  }
}

TEST(Sweep, AxisValueOutOfDomainDiesPathQualified) {
  try {
    expand_grid(parse_scenario(R"({"sweep": {"scenario.n": [10, 0]}})"));
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.path(), "scenario.n");
  }
}

TEST(Sweep, MalformedSweepBlocksRejected) {
  EXPECT_THROW(parse_scenario(R"({"sweep": []})"), ConfigError);
  EXPECT_THROW(parse_scenario(R"({"sweep": {"scenario.n": []}})"),
               ConfigError);
  EXPECT_THROW(parse_scenario(R"({"sweep": {"scenario.n": 5}})"),
               ConfigError);
  EXPECT_THROW(parse_scenario(R"({"sweep": {"a..b": [1]}})"), ConfigError);
  EXPECT_THROW(parse_scenario(R"({"name": 3})"), ConfigError);
  EXPECT_THROW(parse_scenario("[1,2]"), ConfigError);
  EXPECT_THROW(parse_scenario("{nope"), ConfigError);
}

TEST(Sweep, GridExplosionGuard) {
  // 40^3 = 64000 cells > the 10k cap.
  std::string axis = "[";
  for (int i = 1; i <= 40; ++i)
    axis += (i > 1 ? "," : "") + std::to_string(i);
  axis += "]";
  const std::string doc = R"({"sweep": {"sim.rounds": )" + axis +
                          R"(, "sim.slots_per_round": )" + axis +
                          R"(, "sim.max_retries": )" + axis + "}}";
  EXPECT_THROW(expand_grid(parse_scenario(doc)), ConfigError);
}

TEST(Sweep, WithPathSetCreatesAndReplaces) {
  const JsonValue doc = *parse_json(R"({"a": {"b": 1}})");
  const JsonValue r1 = with_path_set(doc, "a.b", JsonValue::make_number(2));
  EXPECT_EQ(r1.get("a")->get("b")->as_double(), 2.0);
  const JsonValue r2 = with_path_set(doc, "a.c.d", JsonValue::make_bool(true));
  EXPECT_TRUE(r2.get("a")->get("c")->get("d")->as_bool());
  EXPECT_EQ(r2.get("a")->get("b")->as_double(), 1.0);  // untouched sibling
  EXPECT_THROW(with_path_set(doc, "a.b.c", JsonValue::make_number(3)),
               ConfigError);
}

TEST(Sweep, LeafLabelRendersScalars) {
  EXPECT_EQ(leaf_label(JsonValue::make_string("qlec")), "qlec");
  EXPECT_EQ(leaf_label(JsonValue::make_number(100)), "100");
  EXPECT_EQ(leaf_label(JsonValue::make_bool(true)), "true");
}

TEST(SweepManifest, EchoReparsesToIdenticalGrid) {
  // The acceptance bar: a manifest's fully-resolved config echo, parsed
  // back through the strict binding, reproduces the expanded grid exactly.
  const auto cells = expand_grid(parse_scenario(kFig3));
  RunManifest m;  // echo only — no need to actually simulate here
  for (const SweepCell& c : cells) {
    CellResult r;
    r.bindings = c.bindings;
    r.label = c.label;
    r.config = c.config;
    m.cells.push_back(r);
  }
  const std::string json = manifest_to_json(m);
  const auto doc = parse_json(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const JsonValue* echoed = doc->get("cells");
  ASSERT_NE(echoed, nullptr);
  ASSERT_EQ(echoed->size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JsonValue* cfg = echoed->at(i).get("config");
    ASSERT_NE(cfg, nullptr);
    EXPECT_EQ(experiment_from_json(*cfg), cells[i].config) << "cell " << i;
  }
}

TEST(SweepManifest, RunGridProducesMetricsAndCsv) {
  const auto cells = expand_grid(parse_scenario(R"({
    "scenario": {"n": 25},
    "sim": {"rounds": 2, "slots_per_round": 4, "trace": {"record": true}},
    "seeds": 2,
    "sweep": {"protocol.name": ["kmeans", "direct"]}
  })"));
  const RunManifest m = run_grid(cells);
  ASSERT_EQ(m.cells.size(), 2u);
  for (const CellResult& c : m.cells) {
    EXPECT_EQ(c.metrics.pdr.count(), 2u);
    ASSERT_EQ(c.digests.size(), 2u);  // trace.record => per-seed digests
    EXPECT_EQ(c.digests[0].size(), 16u);
  }
  const std::string csv = manifest_to_csv(m);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "label,protocol,seeds,pdr,pdr_ci95,energy_j,energy_ci95,"
            "latency_slots,first_death_round,half_death_round,"
            "heads_per_round,generated,delivered,first_death_ci95,lost_link,"
            "lost_queue,lost_dead");
  // Every row has one field per header column.
  std::size_t rows = 0;
  for (std::size_t at = 0; at < csv.size(); ++rows) {
    const std::size_t end = csv.find('\n', at);
    const std::string row = csv.substr(at, end - at);
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), 16) << row;
    at = end + 1;
  }
  EXPECT_EQ(rows, 3u);
  EXPECT_NE(csv.find("protocol.name=kmeans"), std::string::npos);
  const std::string digest_lines = manifest_digest_lines(m);
  EXPECT_NE(digest_lines.find("# protocol.name=direct"), std::string::npos);
}

TEST(SweepManifest, PoolPolicyMatchesSerial) {
  const auto cells = expand_grid(parse_scenario(R"({
    "scenario": {"n": 25},
    "sim": {"rounds": 2, "slots_per_round": 4, "trace": {"record": true}},
    "seeds": 3,
    "sweep": {"protocol.name": ["kmeans", "leach"]}
  })"));
  const RunManifest serial = run_grid(cells, ExecPolicy::serial());
  const RunManifest pooled = run_grid(cells, ExecPolicy::pool(3));
  ASSERT_EQ(serial.cells.size(), pooled.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i)
    EXPECT_EQ(serial.cells[i].digests, pooled.cells[i].digests) << i;
}

}  // namespace
}  // namespace qlec::config
