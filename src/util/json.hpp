// Minimal JSON writer + recursive-descent parser: enough to export result
// records for downstream tooling and to round-trip them in tests, without
// external dependencies. The writer produces compact, valid JSON with
// correct string escaping and round-trippable doubles (append_g17, see
// util/number_format.hpp); the parser accepts exactly RFC 8259 JSON (it
// exists to validate and inspect documents this repo itself emits —
// telemetry JSONL, Chrome traces, BENCH files).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qlec {

/// Streaming JSON builder with explicit structure calls. Usage:
///   JsonWriter j;
///   j.begin_object();
///   j.key("pdr"); j.value(0.98);
///   j.key("tags"); j.begin_array(); j.value("a"); j.end_array();
///   j.end_object();
///   std::string out = j.str();
/// Misuse (e.g. value without key inside an object) is the caller's
/// responsibility; the writer only manages commas and escaping. Every call
/// appends straight into one buffer: keys and strings are escaped in place
/// and doubles go through append_g17, so a literal key allocates nothing.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Writes `"name":` inside an object (with any needed comma).
  void key(std::string_view name);
  void value(std::string_view v);
  /// Keeps a string literal off the pointer-to-bool conversion.
  void value(const char* v) { value(std::string_view(v)); }
  /// %.17g-equivalent (append_g17); non-finite values become null.
  void value(double v);
  void value(long long v);
  void value(unsigned long long v);
  void value(int v) { value(static_cast<long long>(v)); }
  void value(std::size_t v) { value(static_cast<unsigned long long>(v)); }
  void value(bool v);
  /// Splices `json` into the output verbatim (with any needed comma). The
  /// caller guarantees it is a complete, valid JSON value — used to embed a
  /// previously emitted document (e.g. a baseline BENCH file) unparsed —
  /// or, inside an object, a run of complete `"key":value` members.
  void raw_value(const std::string& json);

  const std::string& str() const noexcept { return out_; }

  /// Escapes a string per RFC 8259 (quotes, backslash, control chars).
  static std::string escape(const std::string& s);

 private:
  void comma_if_needed();

  std::string out_;
  std::size_t depth_ = 0;    // open containers
  bool need_comma_ = false;  // the next value or key follows a sibling
};

/// A parsed JSON document node. Numbers are stored as double (the writer
/// emits them through append_g17, the %.17g-equivalent formatter, so every
/// double round-trips exactly, integral values up to 2^53 included); object
/// member order is preserved as written.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const noexcept { return bool_; }
  double as_double() const noexcept { return number_; }
  long long as_int() const noexcept { return static_cast<long long>(number_); }
  const std::string& as_string() const noexcept { return string_; }

  /// Array access. `size()` is also the member count for objects.
  std::size_t size() const noexcept {
    return kind_ == Kind::kObject ? members_.size() : items_.size();
  }
  const JsonValue& at(std::size_t i) const { return items_.at(i); }
  const std::vector<JsonValue>& items() const noexcept { return items_; }

  /// Object lookup: the value under `key`, or nullptr when absent (or when
  /// this node is not an object).
  const JsonValue* get(const std::string& key) const noexcept;
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }

  /// Moves the items / members out of a node the caller is done with
  /// (`std::move(doc).take_members()`), leaving it valid but unspecified:
  /// a document can be taken apart without copying its subtrees.
  std::vector<JsonValue> take_items() && noexcept { return std::move(items_); }
  std::vector<std::pair<std::string, JsonValue>> take_members() && noexcept {
    return std::move(members_);
  }

  // Construction (used by the parser; handy for tests too).
  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Returns nullopt on malformed input; when `error` is
/// non-null it receives a one-line description with the byte offset.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error = nullptr);

/// Serializes a JsonValue tree back to compact JSON text — the inverse of
/// parse_json (member order preserved; doubles via append_g17, the same
/// %.17g-equivalent formatter as the writer, so parse_json(dump_json(v))
/// reproduces `v` exactly). `indent` > 0 switches to a pretty-printed form
/// with that many spaces per nesting level.
std::string dump_json(const JsonValue& v, int indent = 0);

/// Appends `v` as the next value of `w` (inside whatever container is
/// open). Lets callers splice a parsed document into a larger handwritten
/// stream, e.g. echoing a resolved config into a run manifest.
void write_value(JsonWriter& w, const JsonValue& v);

}  // namespace qlec
