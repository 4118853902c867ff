#include "common/flags.h"

#include <gtest/gtest.h>

namespace fedrec {
namespace {

FlagParser Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  FlagParser parser;
  parser.Parse(static_cast<int>(argv.size()), argv.data()).CheckOK();
  return parser;
}

TEST(FlagParserTest, EqualsSyntax) {
  const auto p = Parse({"--epochs=50", "--name=test"});
  EXPECT_EQ(p.GetInt("epochs", 0), 50);
  EXPECT_EQ(p.GetString("name", ""), "test");
}

TEST(FlagParserTest, SpaceSyntax) {
  const auto p = Parse({"--epochs", "50"});
  EXPECT_EQ(p.GetInt("epochs", 0), 50);
}

TEST(FlagParserTest, BareBooleanFlag) {
  const auto p = Parse({"--quick", "--full=false"});
  EXPECT_TRUE(p.GetBool("quick", false));
  EXPECT_FALSE(p.GetBool("full", true));
  EXPECT_TRUE(p.GetBool("absent", true));
  EXPECT_FALSE(p.GetBool("absent", false));
}

TEST(FlagParserTest, BooleanSpellings) {
  EXPECT_TRUE(Parse({"--a=true"}).GetBool("a", false));
  EXPECT_TRUE(Parse({"--a=1"}).GetBool("a", false));
  EXPECT_TRUE(Parse({"--a=yes"}).GetBool("a", false));
  EXPECT_FALSE(Parse({"--a=0"}).GetBool("a", true));
  EXPECT_FALSE(Parse({"--a=no"}).GetBool("a", true));
}

TEST(FlagParserTest, FallbacksWhenAbsent) {
  const auto p = Parse({});
  EXPECT_EQ(p.GetInt("x", 7), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("y", 0.5), 0.5);
  EXPECT_EQ(p.GetString("z", "dft"), "dft");
  EXPECT_FALSE(p.Has("x"));
}

TEST(FlagParserTest, DoubleParsing) {
  const auto p = Parse({"--rho=0.05"});
  EXPECT_DOUBLE_EQ(p.GetDouble("rho", 0.0), 0.05);
}

TEST(FlagParserTest, DoubleListParsing) {
  const auto p = Parse({"--rho=0.01,0.05,0.1"});
  const auto values = p.GetDoubleList("rho", {});
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 0.01);
  EXPECT_DOUBLE_EQ(values[2], 0.1);
  const auto fallback = p.GetDoubleList("absent", {1.0, 2.0});
  EXPECT_EQ(fallback.size(), 2u);
}

TEST(FlagParserTest, PositionalArguments) {
  const auto p = Parse({"pos1", "--f=1", "pos2"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "pos1");
  EXPECT_EQ(p.positional()[1], "pos2");
  EXPECT_EQ(p.program_name(), "prog");
}

TEST(FlagParserTest, MalformedNumberAborts) {
  const auto p = Parse({"--epochs=abc"});
  EXPECT_DEATH(p.GetInt("epochs", 0), "epochs");
  EXPECT_DEATH(p.GetDouble("epochs", 0.0), "epochs");
  EXPECT_DEATH(p.GetBool("epochs", false), "boolean");
}

TEST(FlagParserTest, BareDoubleDashRejected) {
  FlagParser parser;
  const char* argv[] = {"prog", "--"};
  EXPECT_FALSE(parser.Parse(2, argv).ok());
}

TEST(FlagParserTest, NegativeValueViaEquals) {
  const auto p = Parse({"--delta=-3"});
  EXPECT_EQ(p.GetInt("delta", 0), -3);
}

TEST(FlagParserTest, UnknownFlagsNamesEveryFlagOutsideTheList) {
  const auto p = Parse({"table9", "--kapa=5", "--scale", "0.1", "--bogus"});
  EXPECT_EQ(p.UnknownFlags({"scale", "kappa"}),
            (std::vector<std::string>{"bogus", "kapa"}));
  EXPECT_TRUE(p.UnknownFlags({"bogus", "kapa", "scale"}).empty());
  EXPECT_TRUE(Parse({"table9"}).UnknownFlags({}).empty());
}

}  // namespace
}  // namespace fedrec
