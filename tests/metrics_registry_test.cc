// Tests for the process-wide metrics registry (common/metrics.h): counter
// and gauge semantics, histogram bucketing and nearest-rank percentiles
// (including the empty / single-sample / all-equal edge cases, mirrored
// against the trace layer's DurationStats), thread safety, both text
// exporters and the ScopedRegistry override.
#include "common/metrics.h"

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mr/cluster.h"
#include "mr/trace.h"

namespace dwm::metrics {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Registry registry;
  Counter* c = registry.GetCounter("test_total", "help");
  EXPECT_EQ(c->value(), 0);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42);
  // Same name + labels resolves to the same instrument.
  EXPECT_EQ(registry.GetCounter("test_total", "help"), c);
}

TEST(CounterTest, LabelsNameDistinctChildren) {
  Registry registry;
  Counter* a = registry.GetCounter("runs_total", "help", {{"algo", "a"}});
  Counter* b = registry.GetCounter("runs_total", "help", {{"algo", "b"}});
  EXPECT_NE(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 0);
  // Label order does not matter: sorted at registration.
  Counter* ab = registry.GetCounter("pair_total", "help",
                                    {{"x", "1"}, {"a", "2"}});
  Counter* ba = registry.GetCounter("pair_total", "help",
                                    {{"a", "2"}, {"x", "1"}});
  EXPECT_EQ(ab, ba);
}

TEST(GaugeTest, SetAndAdd) {
  Registry registry;
  Gauge* g = registry.GetGauge("depth", "help");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  g->Set(0.0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(HistogramBucketsTest, FixedAndExponential) {
  const std::vector<double> fixed = HistogramBuckets::Fixed({1.0, 2.0, 4.0});
  EXPECT_EQ(fixed, (std::vector<double>{1.0, 2.0, 4.0}));
  const std::vector<double> exp = HistogramBuckets::Exponential(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[1], 2.0);
  EXPECT_DOUBLE_EQ(exp[2], 4.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
}

TEST(HistogramTest, BucketsAndSums) {
  Histogram h(HistogramBuckets::Fixed({1.0, 10.0}));
  h.Observe(0.5);   // bucket le=1
  h.Observe(1.0);   // inclusive upper bound: still le=1
  h.Observe(5.0);   // bucket le=10
  h.Observe(100.0); // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  EXPECT_EQ(h.bucket_counts(), (std::vector<int64_t>{2, 1, 1}));
}

// ---------------------------------------------------------------------------
// Percentile edge cases — empty, single sample, all-equal — for the
// registry histogram and the trace layer's duration stats alike.
// ---------------------------------------------------------------------------

TEST(HistogramPercentileTest, EmptyHistogramReportsZero) {
  Histogram h(HistogramBuckets::Fixed({1.0, 2.0}));
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 0.0);
}

TEST(HistogramPercentileTest, SingleSampleDominatesEveryPercentile) {
  Histogram h(HistogramBuckets::Fixed({1.0, 2.0, 4.0}));
  h.Observe(1.5);
  for (double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(q), 2.0) << "q=" << q;
  }
}

TEST(HistogramPercentileTest, AllEqualSamplesShareOneBucket) {
  Histogram h(HistogramBuckets::Exponential(0.001, 2.0, 20));
  for (int i = 0; i < 100; ++i) h.Observe(0.25);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), h.Percentile(0.99));
  EXPECT_DOUBLE_EQ(h.Percentile(0.01), h.Percentile(1.0));
}

TEST(HistogramPercentileTest, OverflowBucketReportsMaxObserved) {
  Histogram h(HistogramBuckets::Fixed({1.0}));
  h.Observe(50.0);
  h.Observe(75.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 75.0);
}

TEST(HistogramPercentileTest, NearestRankIsOrdered) {
  Histogram h(HistogramBuckets::Fixed({1.0, 2.0, 3.0, 4.0, 5.0}));
  for (int i = 1; i <= 10; ++i) h.Observe(i / 2.0);  // 0.5 .. 5.0
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.9));
  EXPECT_LE(h.Percentile(0.9), h.Percentile(0.99));
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 3.0);  // 5th of 10 samples is 2.5
}

TEST(DurationStatsEdgeCaseTest, EmptyInput) {
  const mr::DurationStats stats = mr::TaskDurationStats({});
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.p50_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.total_seconds, 0.0);
}

TEST(DurationStatsEdgeCaseTest, SingleSample) {
  const mr::DurationStats stats = mr::TaskDurationStats({2.5});
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.p50_seconds, 2.5);
  EXPECT_DOUBLE_EQ(stats.p90_seconds, 2.5);
  EXPECT_DOUBLE_EQ(stats.p99_seconds, 2.5);
  EXPECT_DOUBLE_EQ(stats.max_seconds, 2.5);
  EXPECT_DOUBLE_EQ(stats.total_seconds, 2.5);
}

TEST(DurationStatsEdgeCaseTest, AllEqualSamples) {
  const mr::DurationStats stats =
      mr::TaskDurationStats(std::vector<double>(64, 1.25));
  EXPECT_EQ(stats.count, 64);
  EXPECT_DOUBLE_EQ(stats.p50_seconds, 1.25);
  EXPECT_DOUBLE_EQ(stats.p99_seconds, 1.25);
  EXPECT_DOUBLE_EQ(stats.max_seconds, 1.25);
  EXPECT_DOUBLE_EQ(stats.total_seconds, 80.0);
}

TEST(DurationStatsEdgeCaseTest, PhaseStatsOnFabricatedJob) {
  mr::JobStats job;
  // Empty phase.
  EXPECT_EQ(mr::TaskDurationStats(
                mr::CommittedTaskSeconds(job, mr::TaskPhase::kMap))
                .count,
            0);
  // Single-sample phase.
  job.reduce_attempts.resize(1);
  job.reduce_attempts[0].attempts.push_back({0.75, 1.0, false, false});
  const mr::DurationStats one = mr::TaskDurationStats(
      mr::CommittedTaskSeconds(job, mr::TaskPhase::kReduce));
  EXPECT_EQ(one.count, 1);
  EXPECT_DOUBLE_EQ(one.p50_seconds, 0.75);
  EXPECT_DOUBLE_EQ(one.p99_seconds, 0.75);
  // All-equal phase.
  mr::TaskExecution task;
  task.attempts.push_back({3.0, 1.0, false, false});
  job.map_attempts.assign(16, task);
  const mr::DurationStats eq = mr::TaskDurationStats(
      mr::CommittedTaskSeconds(job, mr::TaskPhase::kMap));
  EXPECT_EQ(eq.count, 16);
  EXPECT_DOUBLE_EQ(eq.p50_seconds, eq.p99_seconds);
  EXPECT_DOUBLE_EQ(eq.max_seconds, 3.0);
}

// ---------------------------------------------------------------------------
// Thread safety.
// ---------------------------------------------------------------------------

TEST(RegistryThreadSafetyTest, ConcurrentRegistrationAndPublication) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIters; ++i) {
        registry.GetCounter("shared_total", "help")->Increment();
        registry.GetGauge("per_thread", "help",
                          {{"t", std::to_string(t)}})
            ->Set(static_cast<double>(i));
        registry
            .GetHistogram("obs", "help", HistogramBuckets::Fixed({1.0, 2.0}))
            ->Observe(1.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared_total", "help")->value(),
            kThreads * kIters);
  EXPECT_EQ(registry
                .GetHistogram("obs", "help",
                              HistogramBuckets::Fixed({1.0, 2.0}))
                ->count(),
            kThreads * kIters);
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(PrometheusExportTest, TextExpositionShape) {
  Registry registry;
  registry.GetCounter("dwm_runs_total", "Completed runs", {{"algo", "x"}})
      ->Increment(2);
  registry.GetGauge("dwm_error", "Achieved error")->Set(1.5);
  Histogram* h = registry.GetHistogram(
      "dwm_seconds", "Durations", HistogramBuckets::Fixed({1.0, 2.0}));
  h->Observe(0.5);
  h->Observe(5.0);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP dwm_runs_total Completed runs"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dwm_runs_total counter"), std::string::npos);
  EXPECT_NE(text.find("dwm_runs_total{algo=\"x\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dwm_error gauge"), std::string::npos);
  EXPECT_NE(text.find("dwm_error 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dwm_seconds histogram"), std::string::npos);
  // Cumulative buckets plus the +Inf catch-all, _sum and _count.
  EXPECT_NE(text.find("dwm_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dwm_seconds_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dwm_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dwm_seconds_sum 5.5"), std::string::npos);
  EXPECT_NE(text.find("dwm_seconds_count 2"), std::string::npos);
}

TEST(PrometheusExportTest, StableOnlyFiltersMeasuredFamilies) {
  Registry registry;
  registry.GetCounter("b_stable_total", "help")->Increment();
  registry.GetGauge("a_measured", "help", {}, Stability::kMeasured)->Set(7.0);
  const std::string full = registry.PrometheusText();
  EXPECT_NE(full.find("\na_measured 7\n"), std::string::npos);
  EXPECT_NE(full.find("\nb_stable_total 1\n"), std::string::npos);
  const std::string stable = registry.PrometheusText(/*stable_only=*/true);
  EXPECT_EQ(stable.find("a_measured"), std::string::npos);
  EXPECT_EQ(stable, "# HELP b_stable_total help\n"
                    "# TYPE b_stable_total counter\n"
                    "b_stable_total 1\n");
}

TEST(PrometheusExportTest, FamiliesAndLabelsAreSorted) {
  Registry registry;
  registry.GetCounter("zz_total", "help")->Increment();
  registry.GetCounter("aa_total", "help")->Increment();
  registry.GetGauge("mid", "help", {{"b", "2"}})->Set(1.0);
  registry.GetGauge("mid", "help", {{"a", "1"}})->Set(2.0);
  // Label keys are sorted within a set, whatever the registration order.
  registry.GetGauge("multi", "help", {{"z", "1"}, {"a", "2"}})->Set(3.0);
  const std::string text = registry.PrometheusText();
  EXPECT_LT(text.find("# HELP aa_total"), text.find("# HELP mid"));
  EXPECT_LT(text.find("# HELP mid"), text.find("# HELP zz_total"));
  EXPECT_LT(text.find("mid{a=\"1\"} 2"), text.find("mid{b=\"2\"} 1"));
  EXPECT_NE(text.find("multi{a=\"2\",z=\"1\"} 3"), std::string::npos);
  // Exporting twice is byte-identical (no timestamps, no iteration-order
  // dependence), and so is the stable-only text.
  EXPECT_EQ(text, registry.PrometheusText());
  EXPECT_EQ(registry.PrometheusText(true), registry.PrometheusText(true));
}

TEST(PrometheusExportTest, LabelValuesEscapeOnlyBackslashQuoteAndNewline) {
  Registry registry;
  registry.GetCounter("esc_total", "help",
                      {{"dataset", "a\tb\x01-c\\d\"e\nf"}})
      ->Increment();
  // The text format escapes \\, \" and \n; a tab and other control bytes
  // stay raw (JSON's \t and \u0001 are not exposition-format escapes).
  EXPECT_NE(registry.PrometheusText().find(
                "esc_total{dataset=\"a\tb\x01-c\\\\d\\\"e\\nf\"} 1\n"),
            std::string::npos);
}

TEST(PrometheusExportTest, NonFiniteValuesAreNotClampedToZero) {
  Registry registry;
  registry.GetGauge("nan_value", "help")->Set(std::nan(""));
  registry.GetGauge("pos_inf", "help")
      ->Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("neg_inf", "help")
      ->Set(-std::numeric_limits<double>::infinity());
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("\nnan_value NaN\n"), std::string::npos);
  EXPECT_NE(text.find("\npos_inf +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("\nneg_inf -Inf\n"), std::string::npos);
}

TEST(ScopedRegistryTest, OverridesAndRestoresDefault) {
  Registry* global = &Default();
  {
    Registry isolated;
    ScopedRegistry scoped(&isolated);
    EXPECT_EQ(&Default(), &isolated);
    Default().GetCounter("scoped_total", "help")->Increment();
    EXPECT_EQ(isolated.GetCounter("scoped_total", "help")->value(), 1);
    {
      Registry inner;
      ScopedRegistry nested(&inner);
      EXPECT_EQ(&Default(), &inner);
    }
    EXPECT_EQ(&Default(), &isolated);
  }
  EXPECT_EQ(&Default(), global);
}

}  // namespace
}  // namespace dwm::metrics
