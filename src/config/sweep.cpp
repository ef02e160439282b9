#include "config/sweep.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>

namespace qlec::config {
namespace {

/// A grid this large is almost certainly an authoring mistake (e.g. a
/// 20-value axis pasted five times); fail before spawning hours of work.
constexpr std::size_t kMaxCells = 10000;

/// Splits "a.b.c" into {"a","b","c"}; empty segments are malformed.
std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    parts.push_back(path.substr(start, dot - start));
    if (parts.back().empty())
      throw ConfigError(path, "malformed sweep path (empty segment)");
    if (dot == std::string::npos) return parts;
    start = dot + 1;
  }
}

/// The members of the node at parts[0..depth), the node a path write goes
/// through, moved out of it: an object's own members, or none for null
/// (which a write turns into an object). Anything else is a ConfigError at
/// that prefix.
std::vector<std::pair<std::string, JsonValue>> members_on_path(
    JsonValue&& node, const std::string& full_path,
    const std::vector<std::string>& parts, std::size_t depth) {
  if (node.is_object()) return std::move(node).take_members();
  if (node.is_null()) return {};
  std::string prefix = parts[0];
  for (std::size_t i = 1; i < depth; ++i) prefix += "." + parts[i];
  throw ConfigError(full_path, "path traverses non-object value at " + prefix);
}

/// `node` with the value at the rest of the path replaced by `leaf`. Takes
/// `node` by value and moves every level it passes through, so a caller
/// that moves its document in edits it without copying a subtree.
JsonValue set_in(JsonValue node, const std::string& full_path,
                 const std::vector<std::string>& parts, std::size_t depth,
                 const JsonValue& leaf) {
  if (depth == parts.size()) return leaf;
  std::vector<std::pair<std::string, JsonValue>> members =
      members_on_path(std::move(node), full_path, parts, depth);
  for (auto& [k, v] : members) {
    if (k == parts[depth]) {
      v = set_in(std::move(v), full_path, parts, depth + 1, leaf);
      return JsonValue::make_object(std::move(members));
    }
  }
  members.emplace_back(
      parts[depth],
      set_in(JsonValue::make_null(), full_path, parts, depth + 1, leaf));
  return JsonValue::make_object(std::move(members));
}

/// `node` without the member at the rest of the path: the inverse walk of
/// set_in, failing where set_in fails, so a document a sweep writes into
/// can be read without the subtrees the sweep replaces. A leaf key that
/// repeats is kept, so the strict parse still rejects the duplicate. Moves
/// like set_in.
JsonValue erase_in(JsonValue node, const std::string& full_path,
                   const std::vector<std::string>& parts, std::size_t depth) {
  std::vector<std::pair<std::string, JsonValue>> members =
      members_on_path(std::move(node), full_path, parts, depth);
  const auto named = [&key = parts[depth]](const auto& m) {
    return m.first == key;
  };
  const auto it = std::find_if(members.begin(), members.end(), named);
  if (it != members.end()) {
    if (depth + 1 < parts.size())
      it->second =
          erase_in(std::move(it->second), full_path, parts, depth + 1);
    else if (std::count_if(members.begin(), members.end(), named) == 1)
      members.erase(it);
  }
  return JsonValue::make_object(std::move(members));
}

}  // namespace

JsonValue with_path_set(const JsonValue& doc, const std::string& path,
                        const JsonValue& leaf) {
  return set_in(doc, path, split_path(path), 0, leaf);
}

std::string leaf_label(const JsonValue& v) {
  return v.is_string() ? v.as_string() : dump_json(v);
}

ScenarioFile parse_scenario(const std::string& text) {
  std::string error;
  std::optional<JsonValue> doc = parse_json(text, &error);
  if (!doc) throw ConfigError("", "malformed JSON: " + error);
  if (!doc->is_object())
    throw ConfigError("", "scenario file must be a JSON object");

  // The document is taken apart, not copied: every member and axis value
  // moves into its place in the ScenarioFile.
  ScenarioFile out;
  std::vector<std::pair<std::string, JsonValue>> base_members;
  for (auto& [key, value] : std::move(*doc).take_members()) {
    if (key == "name" || key == "description") {
      if (!value.is_string())
        throw ConfigError(key, "expected string, got " +
                                   dump_json(value).substr(0, 40));
      (key == "name" ? out.name : out.description) = value.as_string();
    } else if (key == "sweep") {
      if (!value.is_object())
        throw ConfigError("sweep", "expected object of path -> value-array");
      for (auto& [path, values] : std::move(value).take_members()) {
        if (!values.is_array() || values.size() == 0)
          throw ConfigError("sweep." + path,
                            "expected non-empty array of axis values");
        split_path(path);  // reject malformed axis paths up front
        out.axes.push_back({std::move(path), std::move(values).take_items()});
      }
    } else {
      base_members.emplace_back(std::move(key), std::move(value));
    }
  }
  out.base = JsonValue::make_object(std::move(base_members));
  return out;
}

std::vector<SweepCell> expand_grid(ScenarioFile scenario,
                                   const std::vector<Override>& overrides) {
  // --set lands on the base first, and pins any axis it names exactly.
  JsonValue base = std::move(scenario.base);
  std::vector<SweepAxis> axes = std::move(scenario.axes);
  for (const auto& [path, value] : overrides) {
    base = set_in(std::move(base), path, split_path(path), 0, value);
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

  // An axis value replaces its subtree wholesale, so the base is read once
  // with every axis path removed, and each cell then reads only its own
  // bindings onto a copy of that typed base.
  std::vector<std::vector<std::string>> parts;
  for (const SweepAxis& a : axes) {
    parts.push_back(split_path(a.path));
    base = erase_in(std::move(base), a.path, parts.back(), 0);
  }
  const ExperimentConfig typed_base = experiment_from_json(base);

  std::vector<SweepCell> cells;
  cells.reserve(total);
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t cell = 0; cell < total; ++cell) {
    SweepCell& c = cells.emplace_back();
    JsonValue overlay = JsonValue::make_object({});
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const JsonValue& v = axes[a].values[idx[a]];
      overlay = set_in(std::move(overlay), axes[a].path, parts[a], 0, v);
      c.bindings.emplace_back(axes[a].path, v);
      if (!c.label.empty()) c.label += ' ';
      c.label += axes[a].path + "=" + leaf_label(v);
    }
    c.config = experiment_from_json(overlay, typed_base);
    // Odometer increment, last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return cells;
}

}  // namespace qlec::config
