// Bidirectional JSON binding for ExperimentConfig and everything it
// transitively owns: ScenarioConfig (incl. BsPlacement/Deployment), SimConfig
// with its nested Audit/Trace/Telemetry options, FaultConfig (plan + hazards),
// and ProtocolOptions (incl. QlecParams). This is what makes scenarios data
// instead of hand-written C++ mains (DESIGN.md §11). schema.cpp lists each
// struct's keys once, in a bind_* template that both the reader and the
// writer run, and its enum tables are the only spelling of every token.
//
// Contract:
//   * Every field is serialized, defaults included, so a manifest's config
//     echo is a complete provenance record independent of compiled defaults.
//   * Parsing is lenient about ABSENT fields (they keep the C++ default) and
//     strict about everything else: unknown keys, duplicate keys, and
//     out-of-domain leaves are rejected with a path-qualified ConfigError
//     ("sim.fault.hazards.crash_per_node: expected number in [0, 1], got
//     \"high\"").
//   * experiment_from_json(parse_json(experiment_to_json(cfg))) == cfg for
//     every representable config (integers up to 2^53; see DESIGN.md §11
//     for the compatibility policy).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "util/json.hpp"

namespace qlec::config {

/// A config-layer validation failure. `path()` is the dotted location of the
/// offending node ("sim.fault.plan.events[2].severity"; "" for whole-document
/// failures); what() is "<path>: <problem>".
class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::string path, const std::string& problem);
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// ---- enum token tables: the only spelling of each config-file token ----

/// One row per enum value: (value, token).
template <typename E>
using EnumTable = std::vector<std::pair<E, const char*>>;

/// The token table of E, defined in schema.cpp for the nine config enums
/// declared below.
template <typename E>
const EnumTable<E>& enum_table();

template <>
const EnumTable<BsPlacement>& enum_table();
template <>
const EnumTable<Aggregation>& enum_table();
template <>
const EnumTable<MobilityKind>& enum_table();
template <>
const EnumTable<obs::TelemetryOptions::Sink>& enum_table();
template <>
const EnumTable<FaultKind>& enum_table();
template <>
const EnumTable<SectorMode>& enum_table();
template <>
const EnumTable<ControllerKind>& enum_table();
template <>
const EnumTable<TrajectoryKind>& enum_table();
template <>
const EnumTable<Deployment>& enum_table();

/// `value`'s token; a value outside the table renders as "?", which never
/// parses back.
template <typename E>
const char* enum_name(E value) noexcept {
  for (const auto& [e, name] : enum_table<E>())
    if (e == value) return name;
  return "?";
}

/// Serializes `cfg` (all fields) as the next value of `w`.
void write_experiment(JsonWriter& w, const ExperimentConfig& cfg);

/// `cfg` as a standalone JSON document.
std::string experiment_to_json(const ExperimentConfig& cfg);

/// Binds a parsed JSON object to an ExperimentConfig. `path` prefixes every
/// error location (pass "" when `v` is the document root). Throws
/// ConfigError.
ExperimentConfig experiment_from_json(const JsonValue& v,
                                      const std::string& path = "");

/// As above, but reads `v` onto `base` instead of the compiled defaults: a
/// field `v` leaves out keeps its value in `base`.
ExperimentConfig experiment_from_json(const JsonValue& v,
                                      const ExperimentConfig& base,
                                      const std::string& path = "");

}  // namespace qlec::config
