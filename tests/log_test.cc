// Tests for the structured logger (src/common/log.h): level parsing and
// gating, token-bucket rate limiting with a deterministic clock, JSONL
// escaping, the fixed record layout with its stable/measured split, and
// the stable projection the determinism gates diff across thread counts.
#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"

namespace dwm::log {
namespace {

TEST(LevelTest, NamesRoundTripAndParseIsStrict) {
  for (const Level level :
       {Level::kDebug, Level::kInfo, Level::kWarn, Level::kError}) {
    Level parsed = Level::kInfo;
    ASSERT_TRUE(ParseLevel(LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  Level out = Level::kError;
  for (const char* bad : {"", "INFO", "info ", "warning", "verbose", "3"}) {
    EXPECT_FALSE(ParseLevel(bad, &out)) << bad;
    EXPECT_EQ(out, Level::kError) << bad;  // a failed parse leaves *out alone
  }
}

TEST(TokenBucketTest, DeterministicRefillAndSuppressionTally) {
  TokenBucket bucket(1.0, 2.0);  // 1 token/s, burst of 2
  EXPECT_TRUE(bucket.AllowAt(10.0));
  EXPECT_TRUE(bucket.AllowAt(10.0));
  EXPECT_FALSE(bucket.AllowAt(10.0));  // burst exhausted
  EXPECT_FALSE(bucket.AllowAt(10.5));  // only 0.5 tokens refilled
  EXPECT_EQ(bucket.TakeSuppressed(), 2);
  EXPECT_EQ(bucket.TakeSuppressed(), 0);  // Take resets the tally
  EXPECT_TRUE(bucket.AllowAt(11.5));      // 1.5 tokens accumulated
  EXPECT_FALSE(bucket.AllowAt(11.5));
  EXPECT_EQ(bucket.TakeSuppressed(), 1);
}

TEST(TokenBucketTest, NonPositiveRateDisablesLimiting) {
  TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.AllowAt(1.0));
  EXPECT_EQ(bucket.TakeSuppressed(), 0);
}

TEST(TokenBucketTest, BurstIsClampedToAtLeastOne) {
  TokenBucket bucket(5.0, 0.0);
  EXPECT_TRUE(bucket.AllowAt(1.0));
  EXPECT_FALSE(bucket.AllowAt(1.0));
}

TEST(RecordTest, LevelsBelowTheThresholdAreDropped) {
  ScopedCapture capture;
  Logger::Global().SetLevel(Level::kWarn);
  Debug("dropped_debug");
  Info("dropped_info");
  Warn("kept_warn");
  Error("kept_error");
  const std::string& text = capture.text();
  EXPECT_EQ(text.find("dropped"), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"kept_warn\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"kept_error\""), std::string::npos);
}

TEST(RecordTest, EscapesQuotesNewlinesAndControlCharacters) {
  ScopedCapture capture;
  Info("escape").Str("dataset", "zipf \"0.7\"\nsecond\tline\x01");
  const std::string& text = capture.text();
  EXPECT_NE(text.find("\\\"0.7\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\t"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  // The embedded newline must not have split the record: one line emitted.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST(RecordTest, FixedLayoutWithStableThenVolatileThenMeasured) {
  ScopedCapture capture;
  Logger::Global().SetLevel(Level::kInfo);
  Warn("slow_query")
      .Volatile()
      .Str("dataset", "ds")
      .I64("budget", 64)
      .U64("request", 7)
      .Bool("replaced", false)
      .MeasuredF64("elapsed_us", 12.5)
      .MeasuredI64("suppressed", 3);
  const std::string& text = capture.text();
  // Stable fields in call order, then the volatile marker, then "m" —
  // the exact layout the stable projection's single cut relies on
  // (tools/validate_log.py; its fixture pairs run as ctests).
  EXPECT_EQ(text.rfind("{\"lvl\":\"warn\",\"event\":\"slow_query\","
                       "\"dataset\":\"ds\",\"budget\":64,\"request\":7,"
                       "\"replaced\":false,\"stable\":false,"
                       "\"m\":{\"ts_us\":",
                       0),
            0u);
  EXPECT_NE(text.find(",\"elapsed_us\":12.5,\"suppressed\":3}}\n"),
            std::string::npos);
}

TEST(RecordTest, NonFiniteDoublesBecomeNull) {
  ScopedCapture capture;
  Info("nonfinite").F64("bound", std::nan("")).F64("ratio", 0.25);
  const std::string& text = capture.text();
  EXPECT_NE(text.find("\"bound\":null"), std::string::npos);
  EXPECT_NE(text.find("\"ratio\":0.25"), std::string::npos);
}

TEST(ScopedCaptureTest, RestoresTheLevelAndStopsCapturing) {
  const Level before = Logger::Global().level();
  std::string first;
  {
    ScopedCapture capture;
    Logger::Global().SetLevel(Level::kDebug);
    Debug("inner");
    first = capture.text();
  }
  EXPECT_EQ(Logger::Global().level(), before);
  EXPECT_NE(first.find("\"event\":\"inner\""), std::string::npos);
  // A nested capture hands records back to the outer one when it ends.
  ScopedCapture outer;
  {
    ScopedCapture inner;
    Info("to_inner");
  }
  Info("to_outer");
  EXPECT_EQ(outer.text().find("to_inner"), std::string::npos);
  EXPECT_NE(outer.text().find("to_outer"), std::string::npos);
}

}  // namespace
}  // namespace dwm::log
