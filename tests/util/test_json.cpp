#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "util/number_format.hpp"

namespace qlec {
namespace {

TEST(JsonWriter, EmptyObjectAndArray) {
  JsonWriter j;
  j.begin_object();
  j.end_object();
  EXPECT_EQ(j.str(), "{}");
  JsonWriter a;
  a.begin_array();
  a.end_array();
  EXPECT_EQ(a.str(), "[]");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter j;
  j.begin_object();
  j.key("name");
  j.value("qlec");
  j.key("pdr");
  j.value(0.5);
  j.key("count");
  j.value(42);
  j.key("ok");
  j.value(true);
  j.key("missing");
  j.raw_value("null");
  j.end_object();
  EXPECT_EQ(j.str(),
            "{\"name\":\"qlec\",\"pdr\":0.5,\"count\":42,\"ok\":true,"
            "\"missing\":null}");
}

TEST(JsonWriter, ArrayCommas) {
  JsonWriter j;
  j.begin_array();
  j.value(1);
  j.value(2);
  j.value(3);
  j.end_array();
  EXPECT_EQ(j.str(), "[1,2,3]");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter j;
  j.begin_object();
  j.key("rows");
  j.begin_array();
  j.begin_object();
  j.key("x");
  j.value(1);
  j.end_object();
  j.begin_object();
  j.key("x");
  j.value(2);
  j.end_object();
  j.end_array();
  j.key("tail");
  j.value("end");
  j.end_object();
  EXPECT_EQ(j.str(), "{\"rows\":[{\"x\":1},{\"x\":2}],\"tail\":\"end\"}");
}

TEST(JsonWriter, StringEscaping) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, DoubleRoundTrips) {
  JsonWriter j;
  j.begin_array();
  const double v = 0.1 + 0.2;
  j.value(v);
  j.end_array();
  const std::string body = j.str().substr(1, j.str().size() - 2);
  EXPECT_EQ(std::stod(body), v);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter j;
  j.begin_array();
  j.value(std::numeric_limits<double>::infinity());
  j.value(std::numeric_limits<double>::quiet_NaN());
  j.end_array();
  EXPECT_EQ(j.str(), "[null,null]");
}

TEST(JsonWriter, NegativeAndLargeIntegers) {
  JsonWriter j;
  j.begin_array();
  j.value(static_cast<long long>(-7));
  j.value(static_cast<unsigned long long>(1) << 62);
  j.end_array();
  EXPECT_EQ(j.str(), "[-7,4611686018427387904]");
}

TEST(JsonParser, ScalarDocuments) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_TRUE(parse_json("true")->as_bool());
  EXPECT_FALSE(parse_json("false")->as_bool());
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2")->as_double(), -1250.0);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
  EXPECT_EQ(parse_json("  42  ")->as_int(), 42);
}

TEST(JsonParser, ObjectsPreserveMemberOrder) {
  const auto doc = parse_json("{\"b\":1,\"a\":{\"nested\":[1,2,3]}}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->members().size(), 2u);
  EXPECT_EQ(doc->members()[0].first, "b");
  EXPECT_EQ(doc->members()[1].first, "a");
  const JsonValue* nested = doc->get("a")->get("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_EQ(nested->size(), 3u);
  EXPECT_EQ(nested->at(2).as_int(), 3);
  EXPECT_EQ(doc->get("missing"), nullptr);
}

TEST(JsonParser, StringEscapesDecodeIncludingUnicode) {
  const auto doc =
      parse_json("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(doc.has_value());
  // A = 'A'; é = e-acute (2-byte UTF-8); the surrogate pair is
  // the 4-byte grinning-face emoji.
  EXPECT_EQ(doc->as_string(), "a\"b\\c\n\tA\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonParser, RejectsMalformedDocuments) {
  std::string err;
  EXPECT_FALSE(parse_json("", &err).has_value());
  EXPECT_FALSE(parse_json("{", &err).has_value());
  EXPECT_FALSE(parse_json("[1,]", &err).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}", &err).has_value());
  EXPECT_FALSE(parse_json("{'a':1}", &err).has_value());
  EXPECT_FALSE(parse_json("01", &err).has_value());
  EXPECT_FALSE(parse_json("1 2", &err).has_value());  // trailing garbage
  EXPECT_FALSE(parse_json("nul", &err).has_value());
  EXPECT_FALSE(parse_json("\"unterminated", &err).has_value());
  EXPECT_FALSE(parse_json("\"bad\\q\"", &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(JsonParser, RejectsPathologicalNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(parse_json(deep).has_value());
}

TEST(JsonParser, RoundTripsWriterOutput) {
  JsonWriter j;
  j.begin_object();
  j.key("name");
  j.value("q\"lec\n");
  j.key("pdr");
  j.value(0.1 + 0.2);
  j.key("count");
  j.value(static_cast<unsigned long long>(1) << 53);
  j.key("tags");
  j.begin_array();
  j.value(true);
  j.raw_value("null");
  j.end_array();
  j.end_object();

  std::string err;
  const auto doc = parse_json(j.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->get("name")->as_string(), "q\"lec\n");
  EXPECT_DOUBLE_EQ(doc->get("pdr")->as_double(), 0.1 + 0.2);
  EXPECT_DOUBLE_EQ(doc->get("count")->as_double(), 9007199254740992.0);
  EXPECT_TRUE(doc->get("tags")->at(0).as_bool());
  EXPECT_TRUE(doc->get("tags")->at(1).is_null());
}

TEST(JsonDump, CompactDumpIsParseInverse) {
  const std::string text =
      R"({"a":1,"b":[true,null,"x\n"],"c":{"d":0.5,"e":-3}})";
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  // Member order and exact values are preserved, so dump == input here.
  EXPECT_EQ(dump_json(*doc), text);
  // And the generic inverse property: parse(dump(v)) == dump-stable.
  const auto again = parse_json(dump_json(*doc));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(dump_json(*again), dump_json(*doc));
}

TEST(JsonDump, PrettyPrintNests) {
  const auto doc = parse_json(R"({"a":{"b":[1,2]},"c":[]})");
  const std::string pretty = dump_json(*doc, 2);
  EXPECT_NE(pretty.find("{\n  \"a\": {\n    \"b\": [\n      1,"),
            std::string::npos)
      << pretty;
  EXPECT_NE(pretty.find("\"c\": []"), std::string::npos) << pretty;
  // Pretty form parses back to the same tree.
  EXPECT_EQ(dump_json(*parse_json(pretty)), dump_json(*doc));
}

TEST(JsonDump, WriteValueSplicesIntoStream) {
  const auto doc = parse_json(R"({"inner":[1,"two"]})");
  JsonWriter w;
  w.begin_object();
  w.key("echo");
  write_value(w, *doc);
  w.key("after");
  w.value(7);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"echo":{"inner":[1,"two"]},"after":7})");
}

TEST(JsonDump, LargeIntegersStayIntegral) {
  const auto doc = parse_json("[9007199254740992,-42,0]");
  EXPECT_EQ(dump_json(*doc), "[9007199254740992,-42,0]");
}

// ---- The %.17g formatter and the in-place escaper against their oracles ----

std::string g17_oracle(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The escaper JsonWriter used before it escaped in place; the oracle for
/// key(), value(string), escape() and dump_json's strings.
std::string escape_oracle(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// The listed edges: signed zeros, the subnormal and normal extremes, the
/// 2^53 neighbourhood, the 1e17 boundary where integers leave the fixed
/// style, and the %g style switch at exponents -5/-4 and 16/17.
std::vector<double> g17_edges() {
  const double two53 = 9007199254740992.0;
  std::vector<double> v = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, -DBL_MIN,
      DBL_MAX, -DBL_MAX, two53 - 1, two53, two53 + 1, two53 + 2, -two53 - 1,
      -two53, 1e16, 99999999999999984.0, 1e17, -1e17, 1e300,
      std::nextafter(1e17, 0.0),
      std::nextafter(1e17, 1e18), std::nextafter(-1e17, 0.0), 1e15 + 0.5,
      0.1, 0.2, 0.1 + 0.2, 1.0 / 3.0, 0.5, 1.0, -1.0, 2.0, 10.0, 1e-4,
      1e-5, 9.9999999999999995e-5, 123456789012345678.0, 1e21, 1e22, 1e100,
      1e-300, 5e-324, 4.9406564584124654e-324, 2.2250738585072009e-308,
      1.7976931348623157e308, 42.0, -7.0, 100.0, 1e6, 3.14159265358979};
  for (int e = -30; e <= 30; ++e) v.push_back(std::pow(10.0, e));
  return v;
}

/// >= 1 M doubles: every finite random bit pattern of 1 << 20 draws, random
/// integers across the |v| < 1e17 fixed/exponent boundary, and the edges.
std::vector<double> g17_corpus() {
  std::mt19937_64 rng(20191007);
  std::vector<double> v = g17_edges();
  while (v.size() < (1u << 20)) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) v.push_back(d);
  }
  for (int i = 0; i < 100000; ++i) {
    const auto shift = static_cast<int>(rng() % 62);
    const auto mag = static_cast<std::int64_t>(rng() >> (shift + 2));
    v.push_back(static_cast<double>((rng() & 1) != 0 ? -mag : mag));
  }
  return v;
}

TEST(NumberFormat, MatchesSnprintfG17OnTheOracleCorpus) {
  std::size_t mismatches = 0;
  for (const double d : g17_corpus()) {
    if (format_g17(d) != g17_oracle(d) && ++mismatches <= 5)
      ADD_FAILURE() << "format_g17 differs from %.17g for " << g17_oracle(d);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumberFormat, IntegralFastPathRows) {
  // Integral |v| < 1e17 is written as an integer; these rows straddle that
  // path's edges (signed zero, 2^53, the last double below 1e17) and the
  // values just outside it.
  const double two53 = 9007199254740992.0;
  const std::pair<double, const char*> rows[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {-1.0, "-1"},
      {two53, "9007199254740992"},
      {-two53, "-9007199254740992"},
      {two53 + 2, "9007199254740994"},
      {1e16, "10000000000000000"},
      {99999999999999984.0, "99999999999999984"},
      {1e17, "1e+17"},
      {-1e17, "-1e+17"},
      {1e300, "1.0000000000000001e+300"},
      {0.5, "0.5"},
  };
  for (const auto& [v, text] : rows) {
    EXPECT_EQ(g17_oracle(v), text);
    EXPECT_EQ(format_g17(v), g17_oracle(v));
    std::string appended = "x";  // append_g17 keeps what precedes it
    append_g17(appended, v);
    EXPECT_EQ(appended.front(), 'x');
    EXPECT_EQ(appended.substr(1), text);
  }
}

TEST(NumberFormat, DoublesRoundTripExactly) {
  for (const double v : {0.1 + 0.2, 1.5, 2.25, 1.0 / 3.0, -7.0})
    EXPECT_EQ(std::stod(format_g17(v)), v);
}

TEST(NumberFormat, NonFiniteMatchesPrintfSpelling) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double d : {inf, -inf, nan, -nan})
    EXPECT_EQ(format_g17(d), g17_oracle(d));
}

TEST(NumberFormat, EveryWriterEmitsTheOracleBytes) {
  // JsonWriter::value(double) and dump_json format through
  // util/number_format.hpp; each, and append_g17 itself, must reproduce
  // %.17g over the whole corpus.
  const std::vector<double> corpus = g17_corpus();
  constexpr std::size_t kChunk = 4096;
  for (std::size_t at = 0; at < corpus.size(); at += kChunk) {
    const std::size_t end = std::min(corpus.size(), at + kChunk);
    const std::vector<double> chunk(corpus.begin() + at, corpus.begin() + end);
    std::string row, appended;
    for (const double d : chunk) {
      row += g17_oracle(d) + ",";
      append_g17(appended, d);
      appended += ',';
    }
    ASSERT_EQ(appended, row) << "append_g17, chunk at " << at;
    row.pop_back();
    const std::string json = "[" + row + "]";

    JsonWriter w;
    w.begin_array();
    std::vector<JsonValue> items;
    for (const double d : chunk) {
      w.value(d);
      items.push_back(JsonValue::make_number(d));
    }
    w.end_array();
    ASSERT_EQ(w.str(), json) << "JsonWriter, chunk at " << at;
    ASSERT_EQ(dump_json(JsonValue::make_array(std::move(items))), json)
        << "dump_json, chunk at " << at;
  }
}

TEST(JsonEscape, EverySingleByteMatchesTheOldEscaper) {
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    const std::string esc = escape_oracle(s);
    EXPECT_EQ(JsonWriter::escape(s), esc) << "byte " << b;
    JsonWriter w;
    w.begin_object();
    w.key(s);
    w.value(s);
    w.end_object();
    EXPECT_EQ(w.str(), "{\"" + esc + "\":\"" + esc + "\"}") << "byte " << b;
    EXPECT_EQ(dump_json(JsonValue::make_string(s)), '"' + esc + '"')
        << "byte " << b;
  }
}

TEST(JsonEscape, MixedStringsMatchTheOldEscaper) {
  std::vector<std::string> cases = {
      "", "plain", "\"", "a\"b\\c", "tab\tnew\nline\r\n", "\x01\x1f\x7f",
      "caf\xc3\xa9 \xf0\x9f\x98\x80", std::string("nul\0mid", 7),
      "trailing\\", "\bback\fform", "long clean run then \"quote\" end"};
  // Random strings over a byte alphabet weighted toward the escaped set.
  const std::string alphabet = std::string("\"\\\n\r\t\b\f\x01\x1f\x7f\x80\xff", 12) +
                               "abcxyz019 ,:{}[]";
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::string s(rng() % 48, ' ');
    for (char& c : s) {
      c = (rng() % 4 == 0) ? static_cast<char>(rng() % 256)
                           : alphabet[rng() % alphabet.size()];
    }
    cases.push_back(std::move(s));
  }
  for (const std::string& s : cases) {
    const std::string esc = escape_oracle(s);
    ASSERT_EQ(JsonWriter::escape(s), esc);
    JsonWriter w;
    w.begin_array();
    w.value(s);
    w.begin_object();
    w.key(s);
    w.value(s.c_str());
    w.end_object();
    w.end_array();
    const std::string c_str_esc = escape_oracle(std::string(s.c_str()));
    ASSERT_EQ(w.str(), "[\"" + esc + "\",{\"" + esc + "\":\"" + c_str_esc + "\"}]");
    ASSERT_EQ(dump_json(JsonValue::make_string(s)), '"' + esc + '"');
  }
}

}  // namespace
}  // namespace qlec
