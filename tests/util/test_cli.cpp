#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace qlec {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, EqualsForm) {
  const CliArgs args = parse({"--n=100", "--name=qlec"});
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get_string("name", ""), "qlec");
}

TEST(CliArgs, SpaceForm) {
  const CliArgs args = parse({"--n", "42", "--lambda", "2.5"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), 2.5);
}

TEST(CliArgs, BareFlagIsTrue) {
  const CliArgs args = parse({"--verbose", "--n=3"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(CliArgs, TrailingBareFlag) {
  const CliArgs args = parse({"--n=3", "--lifespan"});
  EXPECT_TRUE(args.get_bool("lifespan", false));
}

TEST(CliArgs, PositionalArguments) {
  const CliArgs args = parse({"input.csv", "--n=1", "output.csv"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"input.csv", "output.csv"}));
}

TEST(CliArgs, MissingUsesFallback) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_string("s", "dft"), "dft");
  EXPECT_FALSE(args.get_bool("b", false));
  EXPECT_FALSE(args.has("n"));
}

TEST(CliArgs, BadNumericRecordsError) {
  const CliArgs args = parse({"--n=abc"});
  EXPECT_EQ(args.get_int("n", 9), 9);
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_EQ(args.errors()[0], "n");
}

TEST(CliArgs, BadDoubleSuffixRejected) {
  const CliArgs args = parse({"--x=1.5abc"});
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.0), 2.0);
  EXPECT_FALSE(args.errors().empty());
}

TEST(CliArgs, BoolSpellings) {
  const CliArgs args = parse({"--a=YES", "--b=off", "--c=1", "--d=False"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(CliArgs, BadBoolFallsBack) {
  const CliArgs args = parse({"--a=maybe"});
  EXPECT_TRUE(args.get_bool("a", true));
  EXPECT_FALSE(args.errors().empty());
}

TEST(CliArgs, LastOccurrenceWins) {
  const CliArgs args = parse({"--n=1", "--n=2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

TEST(CliArgs, NegativeNumbersParse) {
  const CliArgs args = parse({"--x=-3.5", "--n=-7"});
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), -3.5);
  EXPECT_EQ(args.get_int("n", 0), -7);
}

TEST(CliArgs, OutOfRangeIntRecordsError) {
  const CliArgs args = parse({"--jobs=-1", "--port=70000", "--n=65535"});
  EXPECT_EQ(args.get_int("jobs", 4, 0), 4);
  EXPECT_EQ(args.get_int("port", 8423, 0, 65535), 8423);
  EXPECT_EQ(args.get_int("n", 0, 0, 65535), 65535);
  EXPECT_EQ(args.errors(), (std::vector<std::string>{"jobs", "port"}));
}

TEST(CliArgs, GetAllPreservesRepeatsInOrder) {
  const CliArgs args = parse({"--set", "a=1", "--n=5", "--set", "b=2",
                              "--set=c=3"});
  const std::vector<std::string> sets = args.get_all("set");
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], "a=1");
  EXPECT_EQ(sets[1], "b=2");
  EXPECT_EQ(sets[2], "c=3");
  EXPECT_TRUE(args.get_all("missing").empty());
  // Scalar getters still see the last occurrence.
  EXPECT_EQ(args.get_string("set", ""), "c=3");
}

TEST(RenderUsage, ContainsAllOptions) {
  const std::string out = render_usage(
      "tool", {{"--alpha <x>", "does alpha"}, {"--b", "flag b"}});
  EXPECT_NE(out.find("usage: tool"), std::string::npos);
  EXPECT_NE(out.find("--alpha <x>"), std::string::npos);
  EXPECT_NE(out.find("does alpha"), std::string::npos);
  EXPECT_NE(out.find("flag b"), std::string::npos);
}

}  // namespace
}  // namespace qlec
