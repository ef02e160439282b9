// Config text -> ExperimentConfig in one call, for the schema round-trip
// and error tests. The programs read whole scenario files through
// config::parse_scenario instead.
#pragma once

#include <optional>
#include <string>

#include "config/schema.hpp"

namespace qlec::config {

/// parse_json + experiment_from_json. Malformed JSON becomes a ConfigError
/// with an empty path and the parser's byte-offset message.
inline ExperimentConfig parse_experiment(const std::string& text) {
  std::string error;
  const std::optional<JsonValue> doc = parse_json(text, &error);
  if (!doc) throw ConfigError("", "malformed JSON: " + error);
  return experiment_from_json(*doc);
}

}  // namespace qlec::config
