// expand_grid reads the base document once and each cell's bindings onto a
// copy of the typed base. The oracle below is the whole-document expansion
// it replaced, kept verbatim: every cell materialised as a full document
// and read by the strict schema binding onto the compiled defaults. Both
// must give the same cells (config echo bytes, job keys, labels, bindings)
// and, for a grid with one error, the same ConfigError path and message.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/jobs.hpp"
#include "config/schema.hpp"
#include "config/sweep.hpp"
#include "util/csv.hpp"

namespace qlec::config {
namespace {

std::vector<SweepCell> oracle_expand_grid(
    const ScenarioFile& scenario, const std::vector<Override>& overrides) {
  constexpr std::size_t kMaxCells = 10000;
  // --set lands on the base first, and pins any axis it names exactly.
  JsonValue base = scenario.base;
  std::vector<SweepAxis> axes = scenario.axes;
  for (const auto& [path, value] : overrides) {
    base = with_path_set(base, path, value);
    std::erase_if(axes, [&p = path](const SweepAxis& a) {
      return a.path == p;
    });
  }

  std::size_t total = 1;
  for (const SweepAxis& a : axes) {
    if (a.values.size() > kMaxCells / total)
      throw ConfigError("sweep", "grid exceeds " +
                                     std::to_string(kMaxCells) + " cells");
    total *= a.values.size();
  }

  std::vector<SweepCell> cells;
  cells.reserve(total);
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t cell = 0; cell < total; ++cell) {
    SweepCell c;
    JsonValue doc = base;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const JsonValue& v = axes[a].values[idx[a]];
      doc = with_path_set(doc, axes[a].path, v);
      c.bindings.emplace_back(axes[a].path, v);
      if (!c.label.empty()) c.label += ' ';
      c.label += axes[a].path + "=" + leaf_label(v);
    }
    c.config = experiment_from_json(doc);
    cells.push_back(std::move(c));
    // Odometer increment, last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return cells;
}

/// Either the cells or the ConfigError of one expansion.
struct Outcome {
  std::vector<SweepCell> cells;
  std::optional<std::pair<std::string, std::string>> error;  // path, what
};

template <typename Expand>
Outcome run(Expand expand, const ScenarioFile& s,
            const std::vector<Override>& overrides) {
  Outcome out;
  try {
    out.cells = expand(s, overrides);
  } catch (const ConfigError& e) {
    out.error.emplace(e.path(), e.what());
  }
  return out;
}

/// Expands `s` both ways and requires the same outcome. Returns the cells.
std::vector<SweepCell> expect_same(const ScenarioFile& s,
                                   const std::vector<Override>& overrides,
                                   const std::string& what) {
  const Outcome want = run(oracle_expand_grid, s, overrides);
  const Outcome got = run(
      [](const ScenarioFile& f, const std::vector<Override>& o) {
        return expand_grid(f, o);
      },
      s, overrides);
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.cells.size(), want.cells.size()) << what;
  for (std::size_t i = 0; i < std::min(got.cells.size(), want.cells.size());
       ++i) {
    const SweepCell& g = got.cells[i];
    const SweepCell& w = want.cells[i];
    EXPECT_EQ(experiment_to_json(g.config), experiment_to_json(w.config))
        << what << " cell " << i;
    EXPECT_EQ(job_key(g.config), job_key(w.config)) << what << " cell " << i;
    EXPECT_EQ(g.label, w.label) << what << " cell " << i;
    EXPECT_EQ(g.bindings.size(), w.bindings.size()) << what;
    for (std::size_t b = 0;
         b < std::min(g.bindings.size(), w.bindings.size()); ++b) {
      EXPECT_EQ(g.bindings[b].first, w.bindings[b].first) << what;
      EXPECT_EQ(dump_json(g.bindings[b].second),
                dump_json(w.bindings[b].second))
          << what;
    }
  }
  return got.cells;
}

std::vector<SweepCell> expect_same(const std::string& text,
                                   const std::vector<Override>& overrides = {}) {
  return expect_same(parse_scenario(text), overrides, text);
}

/// The ConfigError both expansions throw for `text` (they must agree).
std::string expect_rejected(const std::string& text) {
  expect_same(text);
  try {
    expand_grid(parse_scenario(text));
  } catch (const ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted: " << text;
  return "";
}

JsonValue json(const char* text) { return *parse_json(text); }

TEST(ExpandGridOracle, EveryCommittedScenario) {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {QLEC_SCENARIO_DIR, QLEC_PERFBENCH_SCENARIO_DIR})
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
      if (e.path().extension() == ".json") files.push_back(e.path());
  ASSERT_GE(files.size(), 20u);
  for (const std::filesystem::path& file : files) {
    const auto text = read_text_file(file.string());
    ASSERT_TRUE(text.has_value()) << file;
    const ScenarioFile s = parse_scenario(*text);
    const std::string name = file.filename().string();
    EXPECT_FALSE(expect_same(s, {}, name).empty()) << name;
    // A --set beside the axes, and one that pins the first axis.
    expect_same(s, {{"sim.slots_per_round", JsonValue::make_number(7)}},
                name + " --set sim.slots_per_round=7");
    if (!s.axes.empty())
      expect_same(s, {{s.axes[0].path, s.axes[0].values.back()}},
                  name + " --set " + s.axes[0].path);
  }
}

TEST(ExpandGridOracle, ObjectAxisReplacesTheBaseSubtree) {
  const auto cells = expect_same(R"({
    "sim": {"radio": {"e_elec": 1e-8, "eps_fs": 2e-11}},
    "sweep": {"sim.radio": [{"e_elec": 5e-8}, {"eps_mp": 1e-12}]}
  })");
  ASSERT_EQ(cells.size(), 2u);
  // The base's eps_fs does not leak into a cell whose value omits it.
  EXPECT_EQ(cells[0].config.sim.radio.e_elec, 5e-8);
  EXPECT_EQ(cells[0].config.sim.radio.eps_fs, RadioParams{}.eps_fs);
  EXPECT_EQ(cells[1].config.sim.radio.e_elec, RadioParams{}.e_elec);
}

TEST(ExpandGridOracle, PrefixAxesInBothOrders) {
  const auto whole_first = expect_same(R"({
    "sim": {"radio": {"eps_fs": 2e-11}},
    "sweep": {"sim.radio": [{"eps_mp": 1e-12}],
              "sim.radio.e_elec": [1e-8, 3e-8]}
  })");
  ASSERT_EQ(whole_first.size(), 2u);
  EXPECT_EQ(whole_first[1].config.sim.radio.e_elec, 3e-8);
  EXPECT_EQ(whole_first[1].config.sim.radio.eps_mp, 1e-12);

  // The later, shorter axis overwrites the leaf the earlier one set.
  const auto leaf_first = expect_same(R"({
    "sweep": {"sim.radio.e_elec": [1e-8, 3e-8],
              "sim.radio": [{"eps_mp": 1e-12}]}
  })");
  ASSERT_EQ(leaf_first.size(), 2u);
  EXPECT_EQ(leaf_first[1].config.sim.radio.e_elec, RadioParams{}.e_elec);
}

TEST(ExpandGridOracle, SetUnderAndAboveAnAxisPath) {
  const char* radio_axis = R"({
    "sweep": {"sim.radio": [{"eps_mp": 1e-12}, {"e_da": 1e-9}]}
  })";
  // Under the axis: each cell's value replaces the subtree, --set included.
  const auto under = expect_same(
      radio_axis, {{"sim.radio.e_elec", JsonValue::make_number(3e-8)}});
  ASSERT_EQ(under.size(), 2u);
  EXPECT_EQ(under[0].config.sim.radio.e_elec, RadioParams{}.e_elec);

  // Above the axis: the --set subtree is the base the axis writes into.
  const auto above =
      expect_same(R"({"sweep": {"sim.radio.e_elec": [1e-8, 3e-8]}})",
                  {{"sim.radio", json(R"({"eps_fs": 2e-11})")}});
  ASSERT_EQ(above.size(), 2u);
  EXPECT_EQ(above[1].config.sim.radio.e_elec, 3e-8);
  EXPECT_EQ(above[1].config.sim.radio.eps_fs, 2e-11);
}

TEST(ExpandGridOracle, InvalidBaseLeafEveryCellOverridesIsAccepted) {
  const auto cells = expect_same(R"({
    "scenario": {"n": 0, "m_side": 50},
    "sim": {"radio": "not an object"},
    "sweep": {"scenario.n": [10, 20], "sim.radio": [{"e_elec": 1e-8}]}
  })");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].config.scenario.n, 20u);
  EXPECT_EQ(cells[1].config.scenario.m_side, 50.0);
}

TEST(ExpandGridOracle, NullOnTheAxisPathIsAnEmptyObject) {
  const auto cells =
      expect_same(R"({"sim": null, "sweep": {"sim.rounds": [3, 4]}})");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].config.sim.rounds, 4);
}

TEST(ExpandGridOracle, NonObjectIntermediateIsRejected) {
  EXPECT_EQ(expect_rejected(
                R"({"sim": {"rounds": 5}, "sweep": {"sim.rounds.x": [1]}})"),
            "sim.rounds.x: path traverses non-object value at sim.rounds");
  // The non-object may come from an earlier axis's value.
  EXPECT_EQ(expect_rejected(
                R"({"sweep": {"sim.radio": [5], "sim.radio.e_elec": [1]}})"),
            "sim.radio.e_elec: path traverses non-object value at "
            "sim.radio");
}

TEST(ExpandGridOracle, BadAxisValuesAndKeysAreRejected) {
  EXPECT_EQ(expect_rejected(R"({"sweep": {"scenario.n": [10, 0]}})"),
            "scenario.n: expected integer ≥ 1, got 0");
  EXPECT_EQ(expect_rejected(R"({"sweep": {"scenario.nn": [1, 2]}})"),
            "scenario.nn: unknown key");
  EXPECT_EQ(expect_rejected(
                R"({"sweep": {"protocol.name": ["qlec", "qlecc"]}})")
                .rfind("protocol.name: expected one of ", 0),
            0u);
  // A key the base repeats stays a duplicate, axis or not.
  EXPECT_EQ(expect_rejected(R"({"sim": {"rounds": 5, "rounds": 6},
                                "sweep": {"sim.rounds": [1]}})"),
            "sim.rounds: duplicate key");
}

}  // namespace
}  // namespace qlec::config
