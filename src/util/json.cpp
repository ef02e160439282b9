#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/number_format.hpp"

namespace qlec {

namespace {

/// Appends `s` escaped per RFC 8259. Clean runs (no quote, backslash or
/// control byte) are copied in one append; bytes >= 0x80 pass through.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending clean run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  append_escaped(out, s);
  out.push_back('"');
}

/// JSON has no Inf/NaN, so those become null.
void append_number(std::string& out, double v) {
  if (std::isfinite(v))
    append_g17(out, v);
  else
    out += "null";
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void JsonWriter::comma_if_needed() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = depth_ > 0;
}

void JsonWriter::begin_object() {
  comma_if_needed();
  out_.push_back('{');
  ++depth_;
  need_comma_ = false;
}

void JsonWriter::end_object() {
  out_.push_back('}');
  if (depth_ > 0) --depth_;
  need_comma_ = depth_ > 0;
}

void JsonWriter::begin_array() {
  comma_if_needed();
  out_.push_back('[');
  ++depth_;
  need_comma_ = false;
}

void JsonWriter::end_array() {
  out_.push_back(']');
  if (depth_ > 0) --depth_;
  need_comma_ = depth_ > 0;
}

void JsonWriter::key(std::string_view name) {
  comma_if_needed();
  append_quoted(out_, name);
  out_.push_back(':');
  need_comma_ = false;  // the upcoming value must not emit a comma
}

void JsonWriter::value(std::string_view v) {
  comma_if_needed();
  append_quoted(out_, v);
}

void JsonWriter::value(double v) {
  comma_if_needed();
  append_number(out_, v);
}

void JsonWriter::value(long long v) {
  comma_if_needed();
  append_int(out_, v);
}

void JsonWriter::value(unsigned long long v) {
  comma_if_needed();
  append_int(out_, v);
}

void JsonWriter::value(bool v) {
  comma_if_needed();
  out_ += v ? "true" : "false";
}

void JsonWriter::raw_value(const std::string& json) {
  comma_if_needed();
  out_ += json;
}

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

// ---- JsonValue ----

const JsonValue* JsonValue::get(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

// ---- Parser ----

namespace {

/// Recursive-descent RFC 8259 parser over a contiguous buffer. Errors are
/// reported once at the outermost failure with the current byte offset.
class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : s_(text), error_(error) {}

  std::optional<JsonValue> parse() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing garbage after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  /// Containers past this depth are rejected (guards the recursion against
  /// adversarial inputs like "[[[[...").
  static constexpr int kMaxDepth = 128;

  void fail(const std::string& what) {
    if (error_ != nullptr && error_->empty())
      *error_ = what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    fail(std::string("expected '") + lit + "'");
    return false;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (s_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        std::string str;
        if (!parse_string(str)) return false;
        out = JsonValue::make_string(std::move(str));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = JsonValue::make_bool(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = JsonValue::make_null();
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (consume('}')) {
      out = JsonValue::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return false;
      }
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}' in object");
      return false;
    }
    out = JsonValue::make_object(std::move(members));
    return true;
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (consume(']')) {
      out = JsonValue::make_array(std::move(items));
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']' in array");
      return false;
    }
    out = JsonValue::make_array(std::move(items));
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (!append_unicode_escape(out)) return false;
          break;
        }
        default:
          fail("invalid escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  /// Decodes \uXXXX (incl. surrogate pairs) to UTF-8.
  bool append_unicode_escape(std::string& out) {
    unsigned cp = 0;
    if (!read_hex4(cp)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
      if (pos_ + 1 < s_.size() && s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
        pos_ += 2;
        unsigned lo = 0;
        if (!read_hex4(lo)) return false;
        if (lo < 0xDC00 || lo > 0xDFFF) {
          fail("invalid low surrogate");
          return false;
        }
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("lone high surrogate");
        return false;
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("lone low surrogate");
      return false;
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return true;
  }

  bool read_hex4(unsigned& out) {
    if (pos_ + 4 > s_.size()) {
      fail("truncated \\u escape");
      return false;
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
        return false;
      }
    }
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      fail("invalid number");
      return false;
    }
    if (s_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    }
    if (consume('.')) {
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("digits required after decimal point");
        return false;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        fail("digits required in exponent");
        return false;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    }
    const std::string token = s_.substr(start, pos_ - start);
    out = JsonValue::make_number(std::strtod(token.c_str(), nullptr));
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error) {
  if (error != nullptr) error->clear();
  return JsonParser(text, error).parse();
}

// ---- Serializer ----

namespace {

void dump_value(std::string& out, const JsonValue& v, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: append_number(out, v.as_double()); break;
    case JsonValue::Kind::kString:
      append_quoted(out, v.as_string());
      break;
    case JsonValue::Kind::kArray: {
      if (v.items().empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dump_value(out, item, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      if (v.members().empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        append_quoted(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        dump_value(out, member, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string dump_json(const JsonValue& v, int indent) {
  std::string out;
  dump_value(out, v, indent, 0);
  return out;
}

void write_value(JsonWriter& w, const JsonValue& v) {
  w.raw_value(dump_json(v));
}

}  // namespace qlec
