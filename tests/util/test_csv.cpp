#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "util/number_format.hpp"

namespace qlec {
namespace {

TEST(ParseCsv, SimpleRows) {
  const auto rows = parse_csv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "2", "3"}));
}

TEST(ParseCsv, MissingTrailingNewline) {
  const auto rows = parse_csv("a,b\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"1", "2"}));
}

TEST(ParseCsv, CrLfLineEndings) {
  const auto rows = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
}

TEST(ParseCsv, QuotedFieldWithComma) {
  const auto rows = parse_csv("\"x,y\",z\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"x,y", "z"}));
}

TEST(ParseCsv, EscapedQuotes) {
  const auto rows = parse_csv("\"he said \"\"hi\"\"\",ok\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "he said \"hi\"");
}

TEST(ParseCsv, QuotedNewline) {
  const auto rows = parse_csv("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(ParseCsv, EmptyFields) {
  const auto rows = parse_csv("a,,c\n,,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"", "", ""}));
}

TEST(ParseCsv, EmptyInput) {
  EXPECT_TRUE(parse_csv("").empty());
}

TEST(ParseCsvLine, SingleLine) {
  EXPECT_EQ(parse_csv_line("p,q,r"), (CsvRow{"p", "q", "r"}));
  EXPECT_TRUE(parse_csv_line("").empty());
}

TEST(FormatCsvRow, PlainFields) {
  EXPECT_EQ(format_csv_row({"a", "b"}), "a,b");
}

TEST(FormatCsvRow, QuotesWhenNeeded) {
  EXPECT_EQ(format_csv_row({"x,y"}), "\"x,y\"");
  EXPECT_EQ(format_csv_row({"say \"hi\""}), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(format_csv_row({"a\nb"}), "\"a\nb\"");
}

TEST(FormatCsvRow, RoundTripsThroughParse) {
  const CsvRow original{"plain", "with,comma", "with\"quote", "multi\nline",
                        ""};
  const auto rows = parse_csv(format_csv_row(original) + "\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], original);
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row(CsvRow{"h1", "h2"});
  w.write_row(CsvRow{format_g17(1.5), format_g17(2.25)});
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"h1", "h2"}));
  EXPECT_DOUBLE_EQ(std::stod(rows[1][0]), 1.5);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 2.25);
}

TEST(CsvWriter, DoublesRoundTripExactly) {
  std::ostringstream out;
  CsvWriter w(out);
  const double v = 0.1 + 0.2;  // 0.30000000000000004
  w.write_row(CsvRow{format_g17(v)});
  const auto rows = parse_csv(out.str());
  EXPECT_EQ(std::stod(rows[0][0]), v);
}

TEST(TextFileIo, WriteThenRead) {
  const std::string path = ::testing::TempDir() + "/qlec_csv_test.txt";
  ASSERT_TRUE(write_text_file(path, "hello\nworld"));
  const auto content = read_text_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "hello\nworld");
  std::remove(path.c_str());
}

TEST(TextFileIo, MissingFileReturnsNullopt) {
  EXPECT_FALSE(read_text_file("/nonexistent/definitely/missing.csv")
                   .has_value());
}

}  // namespace
}  // namespace qlec
