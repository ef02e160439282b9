// Bidirectional JSON binding for ExperimentConfig and everything it
// transitively owns: ScenarioConfig (incl. BsPlacement/Deployment), SimConfig
// with its nested Audit/Trace/Telemetry options, FaultConfig (plan + hazards),
// and ProtocolOptions (incl. QlecParams). This is what makes scenarios data
// instead of hand-written C++ mains (DESIGN.md §11).
//
// Contract:
//   * Every field is serialized, defaults included, so a manifest's config
//     echo is a complete provenance record independent of compiled defaults.
//   * Parsing is lenient about ABSENT fields (they keep the C++ default) and
//     strict about everything else: unknown keys, duplicate keys, and
//     out-of-domain leaves are rejected with a path-qualified ConfigError
//     ("sim.fault.hazards.crash_per_node: expected number in [0, 1], got
//     \"high\"").
//   * parse_experiment(experiment_to_json(cfg)) == cfg for every
//     representable config (integers up to 2^53; see DESIGN.md §11 for the
//     compatibility policy).
#pragma once

#include <stdexcept>
#include <string>

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

// ---- enum token tables (the config-file spellings) ----
// deployment_name/fault_kind_name live next to their enums; these cover the
// rest. Unknown enum values render as "?" and never parse back.
const char* bs_placement_name(BsPlacement b) noexcept;
const char* aggregation_name(Aggregation a) noexcept;
const char* mobility_kind_name(MobilityKind k) noexcept;
const char* telemetry_sink_name(obs::TelemetryOptions::Sink s) noexcept;

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

/// parse_json + experiment_from_json. Malformed JSON becomes a ConfigError
/// with an empty path and the parser's byte-offset message.
ExperimentConfig parse_experiment(const std::string& text);

}  // namespace qlec::config
