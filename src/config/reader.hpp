// The two binders of the config schema, and the strict-reading helpers the
// manifest and cell-record parsers (runner.cpp) share with it. schema.cpp
// spells each config struct's fields once, in a bind_* template over a
// binder: ObjectReader reads a JSON object onto the struct, rejecting
// with path-qualified ConfigErrors; ObjectWriter writes the struct through
// a JsonWriter with the same member signatures, ignoring the bounds. Not
// installed API: config/*.cpp only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <ranges>
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

  /// A string that must be one of `names` (protocol.name).
  void one_of(std::string_view key, std::string& out,
              const std::vector<std::string>& names) {
    if (const auto i = token(key, names)) out = names[*i];
  }

  /// One of the tokens of enum_table<E>() (schema.hpp).
  template <typename E>
  void enumeration(std::string_view key, E& out) {
    const EnumTable<E>& table = enum_table<E>();
    if (const auto i = token(key, table | std::views::values))
      out = table[*i].first;
  }

  void vec3(std::string_view key, Vec3& out) {
    if (const JsonValue* j = find(key)) out = read_vec3(*j, sub(key));
  }

  /// A nested object, read onto `out` by `bind(reader, out)`.
  template <typename T, typename Bind>
  void object(std::string_view key, T& out, Bind bind) {
    const JsonValue* j = find(key);
    if (j == nullptr) return;
    ObjectReader r(*j, sub(key));
    bind(r, out);
    r.finish();
  }

  /// An array of objects; each element starts from T{}.
  template <typename T, typename Bind>
  void array(std::string_view key, std::vector<T>& out, Bind bind) {
    const JsonValue* j = items(key);
    if (j == nullptr) return;
    out.clear();
    for (std::size_t i = 0; i < j->size(); ++i) {
      ObjectReader r(j->at(i), item(key, i));
      bind(r, out.emplace_back());
      r.finish();
    }
  }

  /// An array of [x, y, z] points.
  void array(std::string_view key, std::vector<Vec3>& out) {
    const JsonValue* j = items(key);
    if (j == nullptr) return;
    out.clear();
    for (std::size_t i = 0; i < j->size(); ++i)
      out.push_back(read_vec3(j->at(i), item(key, i)));
  }

 private:
  std::string item(std::string_view key, std::size_t i) const {
    return sub(key) + "[" + std::to_string(i) + "]";
  }

  /// The array at `key`; nullptr when absent.
  const JsonValue* items(std::string_view key) {
    const JsonValue* j = find(key);
    if (j != nullptr && !j->is_array())
      throw ConfigError(sub(key), "expected array, got " + describe(*j));
    return j;
  }

  /// Index into `tokens` of the string at `key`; nullopt when absent.
  /// Anything else is "expected one of a|b|c".
  template <typename Tokens>
  std::optional<std::size_t> token(std::string_view key,
                                   const Tokens& tokens) {
    const JsonValue* j = find(key);
    if (j == nullptr) return std::nullopt;
    std::size_t i = 0;
    for (const auto& t : tokens) {
      if (j->is_string() && j->as_string() == t) return i;
      ++i;
    }
    std::string allowed;
    for (const auto& t : tokens) {
      if (!allowed.empty()) allowed += '|';
      allowed += t;
    }
    throw ConfigError(sub(key),
                      "expected one of " + allowed + ", got " + describe(*j));
  }

  static Vec3 read_vec3(const JsonValue& v, const std::string& path) {
    const bool ok = v.is_array() && v.size() == 3 && v.at(0).is_number() &&
                    v.at(1).is_number() && v.at(2).is_number() &&
                    std::isfinite(v.at(0).as_double()) &&
                    std::isfinite(v.at(1).as_double()) &&
                    std::isfinite(v.at(2).as_double());
    if (!ok)
      throw ConfigError(path, "expected [x, y, z] array of 3 finite numbers, "
                              "got " + describe(v));
    return {v.at(0).as_double(), v.at(1).as_double(), v.at(2).as_double()};
  }

  const JsonValue& v_;
  std::string path_;
  std::vector<bool> consumed_;  ///< per member, in document order
};

/// ObjectReader's member signatures over a JsonWriter: writes every key,
/// in call order, into the object the caller has begun. Bounds are the
/// reader's business and are ignored here.
class ObjectWriter {
 public:
  explicit ObjectWriter(JsonWriter& w) : w_(w) {}

  void number(std::string_view key, double v, double = 0, double = 0,
              bool = false) {
    leaf(key, v);
  }
  void int_field(std::string_view key, int v, long long) { leaf(key, v); }
  void size_field(std::string_view key, std::size_t v, long long) {
    leaf(key, v);
  }
  void seed_field(std::string_view key, std::uint64_t v) {
    leaf(key, static_cast<unsigned long long>(v));
  }
  void boolean(std::string_view key, bool v) { leaf(key, v); }
  void string_field(std::string_view key, const std::string& v) {
    leaf(key, std::string_view(v));
  }
  void one_of(std::string_view key, const std::string& v,
              const std::vector<std::string>&) {
    leaf(key, std::string_view(v));
  }
  template <typename E>
  void enumeration(std::string_view key, E v) {
    leaf(key, enum_name(v));
  }

  void vec3(std::string_view key, const Vec3& v) {
    w_.key(key);
    write_vec3(v);
  }

  template <typename T, typename Bind>
  void object(std::string_view key, const T& v, Bind bind) {
    w_.key(key);
    w_.begin_object();
    bind(*this, v);
    w_.end_object();
  }

  template <typename T, typename Bind>
  void array(std::string_view key, const std::vector<T>& v, Bind bind) {
    w_.key(key);
    w_.begin_array();
    for (const T& e : v) {
      w_.begin_object();
      bind(*this, e);
      w_.end_object();
    }
    w_.end_array();
  }

  void array(std::string_view key, const std::vector<Vec3>& v) {
    w_.key(key);
    w_.begin_array();
    for (const Vec3& p : v) write_vec3(p);
    w_.end_array();
  }

 private:
  template <typename V>
  void leaf(std::string_view key, V v) {
    w_.key(key);
    w_.value(v);
  }

  void write_vec3(const Vec3& v) {
    w_.begin_array();
    w_.value(v.x);
    w_.value(v.y);
    w_.value(v.z);
    w_.end_array();
  }

  JsonWriter& w_;
};

}  // namespace qlec::config::detail
