// Argument-parser tests.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/util/args.hpp"

namespace vosim {
namespace {

TEST(Args, PositionalOrderPreserved) {
  const ArgParser p({"characterize", "rca", "8"});
  ASSERT_EQ(p.positional().size(), 3u);
  EXPECT_EQ(p.positional()[0], "characterize");
  EXPECT_EQ(p.positional()[2], "8");
}

TEST(Args, KeyEqualsValue) {
  const ArgParser p({"--patterns=500", "--csv=out.csv"});
  EXPECT_EQ(p.get_uint("patterns", 0), 500);
  EXPECT_EQ(p.get("csv", ""), "out.csv");
}

TEST(Args, KeySpaceValue) {
  const ArgParser p({"--vdd", "0.7", "run"});
  EXPECT_DOUBLE_EQ(p.get_double("vdd", 0.0), 0.7);
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "run");
}

TEST(Args, BareFlagBeforeOption) {
  const ArgParser p({"--verbose", "--out=model.txt"});
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_EQ(p.value("verbose").value(), "");
  EXPECT_TRUE(p.has("out"));
}

TEST(Args, MissingOptionFallsBack) {
  const ArgParser p({"cmd"});
  EXPECT_FALSE(p.has("patterns"));
  EXPECT_EQ(p.get_uint("patterns", 123), 123);
  EXPECT_DOUBLE_EQ(p.get_double("vdd", 0.5), 0.5);
  EXPECT_EQ(p.get("csv", "default.csv"), "default.csv");
  EXPECT_FALSE(p.value("csv").has_value());
}

TEST(Args, MalformedNumbersThrow) {
  // Integer options are counts, sizes and seeds: a sign, a space, junk
  // or a value past 64 bits is refused with an error naming the option
  // (a signed parse would wrap "-1" to 2^64 - 1 once cast to a count).
  for (const char* bad : {"-1", "+3", "12x", "abc", "", " 5",
                          "18446744073709551616"}) {
    const ArgParser p({"--patterns", bad});
    try {
      p.get_uint("patterns", 0);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "--patterns takes a non-negative integer, not '" +
                    std::string(bad) + "'");
    }
  }
  const ArgParser p({"--vdd=zero", "--seed=18446744073709551615"});
  EXPECT_THROW(p.get_double("vdd", 0.0), std::invalid_argument);
  EXPECT_EQ(p.get_uint("seed", 1), 18446744073709551615ULL);
}

TEST(Args, ArgcArgvConstructor) {
  const char* argv[] = {"vosim_cli", "synth", "rca", "--patterns", "99"};
  const ArgParser p(5, argv);
  EXPECT_EQ(p.program(), "vosim_cli");
  EXPECT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.get_uint("patterns", 0), 99);
}

TEST(Args, NegativeNumbersAsValues) {
  const ArgParser p({"--vbb", "-2"});
  EXPECT_DOUBLE_EQ(p.get_double("vbb", 0.0), -2.0);
}

TEST(Args, DoubleDashEndsOptions) {
  const ArgParser p({"--vdd", "0.7", "--", "--not-an-option", "plain"});
  EXPECT_DOUBLE_EQ(p.get_double("vdd", 0.0), 0.7);
  EXPECT_FALSE(p.has("not-an-option"));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "--not-an-option");
  EXPECT_EQ(p.positional()[1], "plain");
}

TEST(Args, MissingValueForValueTakingKeyThrows) {
  // "--patterns --csv=x" must not silently demote --patterns to a flag:
  // asking for its value is an error, while flag-style queries still work.
  const ArgParser p({"--patterns", "--csv=x"});
  EXPECT_TRUE(p.has("patterns"));
  EXPECT_EQ(p.value("patterns").value(), "");
  EXPECT_THROW(p.get_uint("patterns", 5), std::invalid_argument);
  EXPECT_THROW(p.get("patterns", "d"), std::invalid_argument);
  EXPECT_THROW(p.get_double("patterns", 1.0), std::invalid_argument);
  EXPECT_EQ(p.get("csv", ""), "x");
}

TEST(Args, ExplicitEmptyValueIsNotMissing) {
  const ArgParser p({"--csv="});
  EXPECT_EQ(p.get("csv", "default"), "");
}

TEST(Args, ListFromCommaSeparatedValue) {
  const ArgParser p({"--workloads", "fir,blur,kmeans"});
  const std::vector<std::string> expect{"fir", "blur", "kmeans"};
  EXPECT_EQ(p.get_list("workloads"), expect);
}

TEST(Args, ListFromRepeatedOptions) {
  const ArgParser p({"--w", "fir,blur", "--w=dot", "--w", "kmeans"});
  const std::vector<std::string> expect{"fir", "blur", "dot", "kmeans"};
  EXPECT_EQ(p.get_list("w"), expect);
}

TEST(Args, ListDropsEmptyItems) {
  const ArgParser p({"--w", ",fir,,blur,"});
  const std::vector<std::string> expect{"fir", "blur"};
  EXPECT_EQ(p.get_list("w"), expect);
}

TEST(Args, ListFallsBackWhenAbsent) {
  const ArgParser p({"cmd"});
  EXPECT_TRUE(p.get_list("w").empty());
  const std::vector<std::string> fallback{"fir", "dot"};
  EXPECT_EQ(p.get_list("w", fallback), fallback);
  // A present-but-empty list beats the fallback: "--w ," means
  // "explicitly none", not "use the default".
  const ArgParser q({"--w", ","});
  EXPECT_TRUE(q.get_list("w", fallback).empty());
}

TEST(Args, ListRejectsBareFlagOccurrence) {
  const ArgParser p({"--w", "--csv=x"});
  EXPECT_THROW(p.get_list("w"), std::invalid_argument);
  const ArgParser q({"--w", "fir", "--w"});
  EXPECT_THROW(q.get_list("w"), std::invalid_argument);
}

}  // namespace
}  // namespace vosim
