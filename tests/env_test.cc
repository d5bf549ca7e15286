// Tests for the strict knob parsers (common/env.h): the one accept/reject
// table every numeric DWM_* knob and dwm_cli flag shares, and EnvInt's
// one-`env_parse_error`-per-knob warning.
#include "common/env.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"

namespace dwm {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

struct IntCase {
  const char* text;
  bool ok;
  int64_t value;
};

TEST(ParseIntTest, AcceptsOnlyPlainInRangeDigits) {
  const IntCase kCases[] = {
      {"", false, 0},
      {"0", true, 0},
      {"5", true, 5},
      {" 5", false, 0},
      {"+5", false, 0},
      {"-3", false, 0},
      {"0x10", false, 0},
      {"5abc", false, 0},
      {"99999999999999999999", false, 0},
      {"5 ", false, 0},
      {"-0", false, 0},
      {"9223372036854775807", true, kMax},
  };
  for (const IntCase& c : kCases) {
    int64_t out = -42;
    EXPECT_EQ(ParseInt(c.text, 0, kMax, &out), c.ok) << "'" << c.text << "'";
    EXPECT_EQ(out, c.ok ? c.value : -42) << "'" << c.text << "'";
  }
}

TEST(ParseIntTest, SignOnlyWhenTheRangeIsNegativeAndBoundsAreInclusive) {
  int64_t out = 0;
  EXPECT_TRUE(ParseInt("-3", -12, 12, &out));
  EXPECT_EQ(out, -3);
  EXPECT_TRUE(ParseInt("-12", -12, 12, &out));
  EXPECT_EQ(out, -12);
  EXPECT_FALSE(ParseInt("-13", -12, 12, &out));
  EXPECT_FALSE(ParseInt("13", -12, 12, &out));
  EXPECT_FALSE(ParseInt("64", -12, 12, &out));
  EXPECT_FALSE(ParseInt("+3", -12, 12, &out));
  EXPECT_FALSE(ParseInt("-", -12, 12, &out));
  EXPECT_EQ(out, -12);
}

TEST(ParseDoubleTest, AcceptsOnlyFiniteFullStringDecimals) {
  struct DoubleCase {
    const char* text;
    bool ok;
    double value;
  };
  const DoubleCase kCases[] = {
      {"1.5", true, 1.5},  {"1e3", true, 1000.0}, {"-2.5", true, -2.5},
      {"0", true, 0.0},    {"", false, 0},        {" 1", false, 0},
      {"+1", false, 0},    {"1.5x", false, 0},    {"inf", false, 0},
      {"nan", false, 0},   {"1e999", false, 0},   {"0x1p3", false, 0},
  };
  for (const DoubleCase& c : kCases) {
    double out = -42.0;
    EXPECT_EQ(ParseDouble(c.text, &out), c.ok) << "'" << c.text << "'";
    EXPECT_EQ(out, c.ok ? c.value : -42.0) << "'" << c.text << "'";
  }
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(EnvIntTest, UnsetAndEmptyAreSilentAndBadValuesWarnOncePerKnob) {
  const char* kKnob = "DWM_ENV_TEST_KNOB";
  log::ScopedCapture capture;
  ASSERT_EQ(unsetenv(kKnob), 0);
  EXPECT_EQ(EnvInt(kKnob, 0, 100, "0..100", "using 1"), std::nullopt);
  ASSERT_EQ(setenv(kKnob, "", 1), 0);
  EXPECT_EQ(EnvInt(kKnob, 0, 100, "0..100", "using 1"), std::nullopt);
  ASSERT_EQ(setenv(kKnob, "42", 1), 0);
  EXPECT_EQ(EnvInt(kKnob, 0, 100, "0..100", "using 1"), 42);
  EXPECT_EQ(capture.text(), "");

  for (const char* bad : {" 5", "+5", "101", "5abc"}) {
    ASSERT_EQ(setenv(kKnob, bad, 1), 0);
    EXPECT_EQ(EnvInt(kKnob, 0, 100, "0..100", "using 1"), std::nullopt)
        << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv(kKnob), 0);
  EXPECT_EQ(CountOccurrences(capture.text(), "\"event\":\"env_parse_error\""),
            1u)
      << capture.text();
  EXPECT_NE(capture.text().find("\"knob\":\"DWM_ENV_TEST_KNOB\""),
            std::string::npos);
  EXPECT_NE(capture.text().find("\"value\":\" 5\""), std::string::npos);
  EXPECT_NE(capture.text().find("\"action\":\"using 1\""), std::string::npos);
}

}  // namespace
}  // namespace dwm
