#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace chainnn {
namespace {

const std::map<std::string, std::string> kDefaults = {
    {"model", "alexnet"}, {"batch", "4"}, {"verbose", "false"},
    {"scale", "1.5"}};

TEST(Cli, DefaultsApply) {
  CliFlags flags;
  const char* argv[] = {"prog"};
  std::string err;
  ASSERT_TRUE(flags.parse(1, argv, kDefaults, &err)) << err;
  EXPECT_EQ(flags.get_string("model"), "alexnet");
  EXPECT_EQ(flags.get_int("batch"), 4);
  EXPECT_FALSE(flags.get_bool("verbose"));
  EXPECT_DOUBLE_EQ(flags.get_double("scale"), 1.5);
}

TEST(Cli, EqualsForm) {
  CliFlags flags;
  const char* argv[] = {"prog", "--model=vgg16", "--batch=128"};
  std::string err;
  ASSERT_TRUE(flags.parse(3, argv, kDefaults, &err)) << err;
  EXPECT_EQ(flags.get_string("model"), "vgg16");
  EXPECT_EQ(flags.get_int("batch"), 128);
}

TEST(Cli, SpaceForm) {
  CliFlags flags;
  const char* argv[] = {"prog", "--batch", "32"};
  std::string err;
  ASSERT_TRUE(flags.parse(3, argv, kDefaults, &err)) << err;
  EXPECT_EQ(flags.get_int("batch"), 32);
}

TEST(Cli, BooleanSwitch) {
  CliFlags flags;
  const char* argv[] = {"prog", "--verbose"};
  std::string err;
  ASSERT_TRUE(flags.parse(2, argv, kDefaults, &err)) << err;
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Cli, UnknownFlagRejected) {
  CliFlags flags;
  const char* argv[] = {"prog", "--nope=1"};
  std::string err;
  EXPECT_FALSE(flags.parse(2, argv, kDefaults, &err));
  EXPECT_NE(err.find("--nope"), std::string::npos);
}

TEST(Cli, MissingValueRejected) {
  CliFlags flags;
  const char* argv[] = {"prog", "--batch"};
  std::string err;
  EXPECT_FALSE(flags.parse(2, argv, kDefaults, &err));
}

TEST(Cli, PositionalCollected) {
  CliFlags flags;
  const char* argv[] = {"prog", "pos1", "--batch=2", "pos2"};
  std::string err;
  ASSERT_TRUE(flags.parse(4, argv, kDefaults, &err)) << err;
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.positional()[1], "pos2");
}

TEST(Cli, UsageListsFlags) {
  const std::string usage = CliFlags::usage(kDefaults);
  EXPECT_NE(usage.find("--model=alexnet"), std::string::npos);
  EXPECT_NE(usage.find("--batch=4"), std::string::npos);
}

TEST(ExecModeFlag, ParsesEngines) {
  ExecModeSelection sel;
  std::string err;
  ASSERT_TRUE(parse_exec_mode_selection("analytical", false, false, &sel,
                                        &err));
  EXPECT_EQ(sel.mode, chain::ExecMode::kAnalytical);
  EXPECT_FALSE(sel.compare);
  EXPECT_FALSE(sel.none);
  EXPECT_STREQ(sel.name(), "analytical");

  ASSERT_TRUE(parse_exec_mode_selection("cycle-accurate", false, false, &sel,
                                        &err));
  EXPECT_EQ(sel.mode, chain::ExecMode::kCycleAccurate);
  ASSERT_TRUE(parse_exec_mode_selection("cycle", false, false, &sel, &err));
  EXPECT_EQ(sel.mode, chain::ExecMode::kCycleAccurate);
}

TEST(ExecModeFlag, CompareAndNoneArePerBinary) {
  ExecModeSelection sel;
  std::string err;
  ASSERT_TRUE(parse_exec_mode_selection("compare", true, false, &sel, &err));
  EXPECT_TRUE(sel.compare);
  EXPECT_STREQ(sel.name(), "compare");
  EXPECT_FALSE(parse_exec_mode_selection("compare", false, true, &sel, &err));
  EXPECT_NE(err.find("compare\""), std::string::npos);

  ASSERT_TRUE(parse_exec_mode_selection("none", false, true, &sel, &err));
  EXPECT_TRUE(sel.none);
  EXPECT_FALSE(parse_exec_mode_selection("none", true, false, &sel, &err));
}

TEST(ExecModeFlag, ErrorListsAcceptedValues) {
  ExecModeSelection sel;
  std::string err;
  EXPECT_FALSE(parse_exec_mode_selection("bogus", true, true, &sel, &err));
  EXPECT_NE(err.find("analytical"), std::string::npos);
  EXPECT_NE(err.find("cycle-accurate"), std::string::npos);
  EXPECT_NE(err.find("compare"), std::string::npos);
  EXPECT_NE(err.find("none"), std::string::npos);
  EXPECT_FALSE(parse_exec_mode_selection("bogus", false, false, &sel, &err));
  EXPECT_EQ(err.find("compare"), std::string::npos);
}

}  // namespace
}  // namespace chainnn
