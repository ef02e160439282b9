// Internal strict-JSON reading helpers shared by the schema binding
// (schema.cpp) and the manifest/cell-record parsers (runner.cpp). Hoisted
// out of schema.cpp's anonymous namespace when the manifest format gained a
// strict inverse — both parsers must reject with identical path-qualified
// ConfigError wording. Not installed API: config/*.cpp only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "config/schema.hpp"
#include "util/json.hpp"

namespace qlec::config::detail {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Largest integer a JSON double carries exactly.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

inline std::string join(const std::string& path, std::string_view key) {
  std::string out = path;
  if (!out.empty()) out += '.';
  out += key;
  return out;
}

inline std::string fmt_num(double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", d);
  return buf;
}

/// Short rendering of an unexpected value for "got ..." error tails.
inline std::string describe(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber: return fmt_num(v.as_double());
    case JsonValue::Kind::kString: {
      std::string s = v.as_string();
      if (s.size() > 40) s = s.substr(0, 37) + "...";
      return '"' + s + '"';
    }
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

inline std::string bounds_text(double lo, double hi, bool lo_open) {
  if (lo == -kInf && hi == kInf) return "finite number";
  if (hi == kInf)
    return std::string("number ") + (lo_open ? "> " : "≥ ") + fmt_num(lo);
  return "number in [" + fmt_num(lo) + ", " + fmt_num(hi) + "]";
}

/// One object scope: rejects non-objects and duplicate keys up front, hands
/// out members while tracking which keys were consumed, and rejects the
/// leftovers (unknown keys) in finish().
class ObjectReader {
 public:
  ObjectReader(const JsonValue& v, std::string path)
      : v_(v), path_(std::move(path)) {
    if (!v_.is_object())
      throw ConfigError(path_, "expected object, got " + describe(v_));
    const auto& members = v_.members();
    // The first member, in document order, whose key an earlier member
    // has: the earliest non-first entry of a run of equal keys, sorted by
    // (key, position).
    std::vector<std::size_t> order(members.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&members](auto a, auto b) {
      const int c = members[a].first.compare(members[b].first);
      return c != 0 ? c < 0 : a < b;
    });
    std::size_t dup = members.size();
    for (std::size_t i = 1; i < order.size(); ++i)
      if (members[order[i]].first == members[order[i - 1]].first)
        dup = std::min(dup, order[i]);
    if (dup < members.size())
      throw ConfigError(join(path_, members[dup].first), "duplicate key");
    consumed_.assign(members.size(), false);
  }

  /// Marks `key` consumed; nullptr when absent (field keeps its default).
  const JsonValue* find(std::string_view key) {
    const auto& members = v_.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == key) {
        consumed_[i] = true;
        return &members[i].second;
      }
    }
    return nullptr;
  }

  std::string sub(std::string_view key) const { return join(path_, key); }
  const std::string& path() const noexcept { return path_; }

  /// Call after reading every known key: any member left over is unknown.
  void finish() const {
    const auto& members = v_.members();
    for (std::size_t i = 0; i < members.size(); ++i)
      if (!consumed_[i])
        throw ConfigError(join(path_, members[i].first), "unknown key");
  }

  // -- typed leaf readers; absent keys leave `out` untouched --

  void number(std::string_view key, double& out, double lo = -kInf,
              double hi = kInf, bool lo_open = false) {
    const JsonValue* j = find(key);
    if (j == nullptr) return;
    const double d = j->as_double();
    if (!j->is_number() || !std::isfinite(d) || d < lo || d > hi ||
        (lo_open && d <= lo))
      throw ConfigError(sub(key), "expected " + bounds_text(lo, hi, lo_open) +
                                      ", got " + describe(*j));
    out = d;
  }

  /// Exact integer in [lo, hi]; 7.5 or 1e300 are type errors here.
  long long integer(std::string_view key, long long cur, long long lo,
                    long long hi = std::numeric_limits<long long>::max()) {
    const JsonValue* j = find(key);
    if (j == nullptr) return cur;
    const double d = j->as_double();
    std::string want = "integer";
    if (lo != std::numeric_limits<long long>::min())
      want += " ≥ " + std::to_string(lo);
    if (!j->is_number() || !std::isfinite(d) || d != std::floor(d) ||
        std::fabs(d) > kMaxExactInt ||
        d < static_cast<double>(lo) || d > static_cast<double>(hi))
      throw ConfigError(sub(key),
                        "expected " + want + ", got " + describe(*j));
    return static_cast<long long>(d);
  }

  void int_field(std::string_view key, int& out, long long lo) {
    out = static_cast<int>(
        integer(key, out, lo, std::numeric_limits<int>::max()));
  }

  void size_field(std::string_view key, std::size_t& out, long long lo) {
    out = static_cast<std::size_t>(
        integer(key, static_cast<long long>(out), lo));
  }

  /// Unsigned seed: any integer in [0, 2^53] (the exactly-representable
  /// range; larger seeds would silently round through the double channel).
  void seed_field(std::string_view key, std::uint64_t& out) {
    out = static_cast<std::uint64_t>(
        integer(key, static_cast<long long>(out), 0));
  }

  void boolean(std::string_view key, bool& out) {
    const JsonValue* j = find(key);
    if (j == nullptr) return;
    if (!j->is_bool())
      throw ConfigError(sub(key),
                        "expected true or false, got " + describe(*j));
    out = j->as_bool();
  }

  void string_field(std::string_view key, std::string& out) {
    const JsonValue* j = find(key);
    if (j == nullptr) return;
    if (!j->is_string())
      throw ConfigError(sub(key), "expected string, got " + describe(*j));
    out = j->as_string();
  }

 private:
  const JsonValue& v_;
  std::string path_;
  std::vector<bool> consumed_;  ///< per member, in document order
};

}  // namespace qlec::config::detail
