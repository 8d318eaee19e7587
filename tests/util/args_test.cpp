#include "util/args.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ps::util {
namespace {

ArgParser make_parser() {
  ArgParser parser;
  parser.add_flag("--quick", "reduced scale")
      .add_option("--nodes", "100", "nodes per job")
      .add_option("--rate", "1.5", "arrivals per hour");
  return parser;
}

void parse(ArgParser& parser, std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParserTest, DefaultsApplyWhenUnset) {
  ArgParser parser = make_parser();
  parse(parser, {});
  EXPECT_FALSE(parser.flag("--quick"));
  EXPECT_EQ(parser.option("--nodes"), "100");
  EXPECT_DOUBLE_EQ(parser.option_double("--rate"), 1.5);
  EXPECT_EQ(parser.option_size("--nodes"), 100u);
}

TEST(ArgParserTest, ParsesFlagsAndValues) {
  ArgParser parser = make_parser();
  parse(parser, {"--quick", "--nodes", "12", "--rate", "0.25"});
  EXPECT_TRUE(parser.flag("--quick"));
  EXPECT_EQ(parser.option_size("--nodes"), 12u);
  EXPECT_DOUBLE_EQ(parser.option_double("--rate"), 0.25);
}

TEST(ArgParserTest, CollectsPositionalArguments) {
  ArgParser parser = make_parser();
  parse(parser, {"characterize", "--nodes", "4", "extra"});
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "characterize");
  EXPECT_EQ(parser.positional()[1], "extra");
}

TEST(ArgParserTest, UnknownOptionRejected) {
  ArgParser parser = make_parser();
  EXPECT_THROW(parse(parser, {"--bogus"}), ps::InvalidArgument);
}

TEST(ArgParserTest, MissingValueRejected) {
  ArgParser parser = make_parser();
  EXPECT_THROW(parse(parser, {"--nodes"}), ps::InvalidArgument);
}

TEST(ArgParserTest, TypeMismatchesRejected) {
  ArgParser parser = make_parser();
  parse(parser, {"--nodes", "many"});
  EXPECT_THROW(static_cast<void>(parser.option_size("--nodes")),
               ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parser.option("--quick")),
               ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parser.flag("--nodes")),
               ps::InvalidArgument);
}

TEST(ArgParserTest, CountsRejectSignsTrailingGarbageAndOverflow) {
  for (const char* text :
       {"-3", "-0", "+3", "12abc", " 12", "12 ", "1.5", "0x10", "",
        "18446744073709551616"}) {
    ArgParser parser = make_parser();
    parse(parser, {"--nodes", text});
    EXPECT_THROW(static_cast<void>(parser.option_size("--nodes")),
                 ps::InvalidArgument)
        << "'" << text << "'";
  }
  ArgParser parser = make_parser();
  parse(parser, {"--nodes", "18446744073709551615"});
  EXPECT_EQ(parser.option_size("--nodes"), 18446744073709551615u);
}

TEST(ArgParserTest, NumbersRejectTrailingGarbage) {
  for (const char* text : {"1.5x", "x1.5", "1.5 ", " 1.5", "", "1e", "--1"}) {
    ArgParser parser = make_parser();
    parse(parser, {"--rate", text});
    EXPECT_THROW(static_cast<void>(parser.option_double("--rate")),
                 ps::InvalidArgument)
        << "'" << text << "'";
  }
  ArgParser parser = make_parser();
  parse(parser, {"--rate", "-2.5e-1"});
  EXPECT_DOUBLE_EQ(parser.option_double("--rate"), -0.25);
}

TEST(ArgParserTest, ReparseResetsState) {
  ArgParser parser = make_parser();
  parse(parser, {"--quick", "--nodes", "8"});
  parse(parser, {});
  EXPECT_FALSE(parser.flag("--quick"));
  EXPECT_EQ(parser.option_size("--nodes"), 100u);
  EXPECT_TRUE(parser.positional().empty());
}

TEST(ArgParserTest, ProvidedDistinguishesExplicitFromDefault) {
  ArgParser parser = make_parser();
  parse(parser, {"--nodes", "100"});
  // Explicitly passing the default value still counts as provided.
  EXPECT_TRUE(parser.provided("--nodes"));
  EXPECT_FALSE(parser.provided("--rate"));
  EXPECT_THROW(static_cast<void>(parser.provided("--bogus")),
               ps::InvalidArgument);
  parse(parser, {});
  EXPECT_FALSE(parser.provided("--nodes"));
}

TEST(ArgParserTest, DuplicateDeclarationRejected) {
  ArgParser parser;
  parser.add_flag("--x", "");
  EXPECT_THROW(parser.add_option("--x", "1", ""), ps::InvalidArgument);
  EXPECT_THROW(parser.add_flag("no-dashes", ""), ps::InvalidArgument);
}

TEST(ArgParserTest, HelpListsEveryOption) {
  const ArgParser parser = make_parser();
  const std::string help = parser.help();
  EXPECT_NE(help.find("--quick"), std::string::npos);
  EXPECT_NE(help.find("--nodes <value=100>"), std::string::npos);
  EXPECT_NE(help.find("arrivals per hour"), std::string::npos);
}

}  // namespace
}  // namespace ps::util
