// Scenario files and sweep-grid expansion (the declarative half of
// `qlec_run`). A scenario file is one experiment document plus an optional
// "sweep" block of dotted-path axes:
//
//   {
//     "name": "fig3",
//     "description": "Fig. 3 comparison grid",
//     "scenario": {"n": 100, "m_side": 200},
//     "sim": {"rounds": 20},
//     "sweep": {
//       "scenario.n": [100, 500, 1000],
//       "protocol.name": ["qlec", "qelar", "deec"]
//     }
//   }
//
// expand_grid() cartesian-expands the axes (declaration order; the last
// axis varies fastest). It reads the base document through the strict
// schema binding once, with every axis path removed, and then reads each
// cell's bindings, as a document of their own, onto a copy of that typed
// base — so a typo'd axis path ("scenario.nn") dies with the same
// path-qualified ConfigError an inline typo would.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "config/schema.hpp"

namespace qlec::config {

/// One sweep axis: a dotted config path and the JSON values it takes.
struct SweepAxis {
  std::string path;
  std::vector<JsonValue> values;
};

/// A parsed scenario file, still at the document level (cells are bound to
/// ExperimentConfigs only at expand_grid time, after overrides land).
struct ScenarioFile {
  std::string name;         ///< "name" key; "" when absent
  std::string description;  ///< "description" key; "" when absent
  JsonValue base;           ///< the experiment document minus the meta keys
  std::vector<SweepAxis> axes;  ///< "sweep" entries, declaration order
};

/// A `--set key=value` style override: dotted path + replacement value.
using Override = std::pair<std::string, JsonValue>;

/// One concrete grid cell.
struct SweepCell {
  /// The axis assignments that produced this cell (axis order).
  std::vector<Override> bindings;
  /// "scenario.n=100 protocol.name=qlec" (""), for logs and CSV rows.
  std::string label;
  ExperimentConfig config;
};

/// Returns a copy of `doc` with the value at dotted `path` replaced (or
/// inserted). Missing intermediate objects are created; traversing through
/// a non-object value is a ConfigError at the offending prefix.
JsonValue with_path_set(const JsonValue& doc, const std::string& path,
                        const JsonValue& leaf);

/// Parses scenario-file text. Pulls out "name"/"description"/"sweep",
/// validates the sweep block's shape (object of non-empty arrays), and
/// leaves the rest as `base` — which is NOT yet validated against the
/// schema (expansion does that per cell). Throws ConfigError.
ScenarioFile parse_scenario(const std::string& text);

/// Expands the scenario into concrete cells. `overrides` (from `--set`)
/// are applied to the base document first; an override whose path exactly
/// matches a sweep axis removes that axis (the grid collapses along it).
/// Each cell's config is the one experiment_from_json gives for the base
/// document with that cell's axis values set into it (an axis value
/// replaces the subtree at its path), and the grids it rejects are the
/// ones that whole-document parse rejects. Where a grid holds more than
/// one error, the one reported may differ: the base is checked before any
/// cell. Throws ConfigError, including on grids above 10_000 cells.
/// Takes `scenario` by value and edits its base in place: pass an rvalue
/// (`expand_grid(parse_scenario(text))`) to expand without copying it.
std::vector<SweepCell> expand_grid(ScenarioFile scenario,
                                   const std::vector<Override>& overrides = {});

/// Renders a JSON leaf for labels/CSV: bare text for strings, compact JSON
/// otherwise ("qlec", 100, true, [1,2]).
std::string leaf_label(const JsonValue& v);

}  // namespace qlec::config
