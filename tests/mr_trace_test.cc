// Tests for the structured tracing & metrics layer (mr/trace.h): span
// coverage of every job/phase/task-attempt in a SimReport, timeline
// consistency, the stable Chrome-trace export's byte-identity across
// worker_threads and under fault injection, the metrics helpers, and the
// engine's corrupt-shuffle Status path. Stragglers run out on their slots,
// so the span set is a pure function of the attempt histories and the
// byte-identity contract covers fault plans that inject them.
#include "mr/trace.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/audit.h"
#include "common/bytes.h"
#include "data/generators.h"
#include "dist/dgreedy.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "mr/job.h"

namespace dwm::mr {

// Deliberately asymmetric Serde (test-only): Put writes four bytes, Get
// reads eight, so a shuffle stream of these always deserializes corrupt.
struct EvilValue {
  uint64_t v = 0;
};

}  // namespace dwm::mr

template <>
struct dwm::Serde<dwm::mr::EvilValue> {
  static void Put(ByteBuffer& b, const mr::EvilValue& e) {
    b.PutScalar<uint32_t>(static_cast<uint32_t>(e.v));
  }
  static mr::EvilValue Get(ByteReader& r) {
    mr::EvilValue e;
    e.v = r.GetScalar<uint64_t>();
    return e;
  }
};

namespace dwm::mr {
namespace {

ClusterConfig TraceCluster(int worker_threads, const FaultPlan& plan) {
  ClusterConfig config;
  config.worker_threads = worker_threads;
  config.faults = plan;
  return config;
}

DGreedyResult RunDGreedy(const std::vector<double>& data,
                         const ClusterConfig& config) {
  DGreedyOptions options;
  options.budget = static_cast<int64_t>(data.size()) / 8;
  options.base_leaves = 512;
  DGreedyResult r = DGreedyAbs(data, options, config);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  return r;
}

int64_t CountAttempts(const std::vector<TaskExecution>& tasks) {
  int64_t n = 0;
  for (const TaskExecution& t : tasks) {
    n += static_cast<int64_t>(t.attempts.size());
  }
  return n;
}

// ---------------------------------------------------------------------------
// Span coverage and timeline consistency.
// ---------------------------------------------------------------------------

TEST(TraceBuildTest, CoversEveryJobPhaseAndAttempt) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/5);
  const ClusterConfig config = TraceCluster(0, FaultPlan::Disabled());
  const DGreedyResult r = RunDGreedy(data, config);
  const Trace trace = BuildTrace(r.report, config);

  int64_t job_spans = 0;
  int64_t phase_spans = 0;
  std::vector<int64_t> map_attempt_spans(r.report.jobs.size(), 0);
  std::vector<int64_t> reduce_attempt_spans(r.report.jobs.size(), 0);
  int64_t driver_spans = 0;
  for (const TraceSpan& s : trace.spans) {
    switch (s.kind) {
      case SpanKind::kJob:
        ++job_spans;
        EXPECT_EQ(s.name, r.report.jobs[static_cast<size_t>(s.job)].name);
        break;
      case SpanKind::kPhase:
        ++phase_spans;
        break;
      case SpanKind::kAttempt: {
        ASSERT_GE(s.job, 0);
        ASSERT_LT(s.job, static_cast<int64_t>(r.report.jobs.size()));
        if (s.cat == "map") {
          ++map_attempt_spans[static_cast<size_t>(s.job)];
        } else {
          EXPECT_EQ(s.cat, "reduce");
          ++reduce_attempt_spans[static_cast<size_t>(s.job)];
        }
        EXPECT_GE(s.attempt, 1);
        break;
      }
      case SpanKind::kDriver:
        ++driver_spans;
        break;
      case SpanKind::kServe:
        ADD_FAILURE() << "build trace carries a serve span: " << s.name;
        break;
    }
  }
  EXPECT_EQ(job_spans, static_cast<int64_t>(r.report.jobs.size()));
  // overhead + map + shuffle + reduce per job.
  EXPECT_EQ(phase_spans, 4 * static_cast<int64_t>(r.report.jobs.size()));
  EXPECT_EQ(driver_spans, static_cast<int64_t>(r.report.driver_spans.size()));
  for (size_t j = 0; j < r.report.jobs.size(); ++j) {
    EXPECT_EQ(map_attempt_spans[j], CountAttempts(r.report.jobs[j].map_attempts))
        << "job " << j;
    EXPECT_EQ(reduce_attempt_spans[j],
              CountAttempts(r.report.jobs[j].reduce_attempts))
        << "job " << j;
  }
}

TEST(TraceBuildTest, TimelineMatchesSimReportTotals) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/6);
  const ClusterConfig config = TraceCluster(0, FaultPlan::Disabled());
  const DGreedyResult r = RunDGreedy(data, config);
  const Trace trace = BuildTrace(r.report, config);
  EXPECT_NEAR(trace.total_seconds, r.report.total_sim_seconds(),
              1e-9 * (1.0 + r.report.total_sim_seconds()));
  for (const TraceSpan& s : trace.spans) {
    EXPECT_LE(s.start_seconds, s.end_seconds) << s.name;
    EXPECT_GE(s.start_seconds, 0.0) << s.name;
    EXPECT_LE(s.end_seconds, trace.total_seconds + 1e-9) << s.name;
  }
}

// ---------------------------------------------------------------------------
// Determinism: the stable Chrome export is byte-identical across
// worker_threads, with and without a fault plan.
// ---------------------------------------------------------------------------

TEST(TraceDeterminismTest, StableJsonIdenticalAcrossWorkerThreads) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/7);
  ChromeTraceOptions stable;
  stable.stable = true;
  const ClusterConfig c1 = TraceCluster(1, FaultPlan::Disabled());
  const ClusterConfig c8 = TraceCluster(8, FaultPlan::Disabled());
  const DGreedyResult r1 = RunDGreedy(data, c1);
  const DGreedyResult r8 = RunDGreedy(data, c8);
  const std::string j1 = ChromeTraceJson(BuildTrace(r1.report, c1), stable);
  const std::string j8 = ChromeTraceJson(BuildTrace(r8.report, c8), stable);
  EXPECT_EQ(j1, j8);
}

TEST(TraceDeterminismTest, StableJsonIdenticalUnderFaults) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/8);
  FaultSpec spec;
  spec.map_failure_rate = 0.1;
  spec.reduce_failure_rate = 0.05;
  spec.straggler_rate = 0.1;
  spec.straggler_slowdown = 4.0;
  const FaultPlan plan(/*seed=*/3, spec);
  ChromeTraceOptions stable;
  stable.stable = true;
  const ClusterConfig c1 = TraceCluster(1, plan);
  const ClusterConfig c8 = TraceCluster(8, plan);
  const DGreedyResult r1 = RunDGreedy(data, c1);
  const DGreedyResult r8 = RunDGreedy(data, c8);
  const std::string j1 = ChromeTraceJson(BuildTrace(r1.report, c1), stable);
  const std::string j8 = ChromeTraceJson(BuildTrace(r8.report, c8), stable);
  EXPECT_EQ(j1, j8);

  // The plan injects for real: failed/straggler attempt spans must appear
  // and agree with the engine's accounting.
  int64_t failed_spans = 0;
  int64_t straggler_spans = 0;
  int64_t failed_attempts = 0;
  int64_t straggler_attempts = 0;
  const Trace trace = BuildTrace(r1.report, c1);
  for (const TraceSpan& s : trace.spans) {
    if (s.kind != SpanKind::kAttempt) continue;
    if (s.failed) ++failed_spans;
    if (s.slowdown > 1.0) ++straggler_spans;
  }
  for (const JobStats& job : r1.report.jobs) {
    failed_attempts += job.failed_attempts;
    straggler_attempts += job.straggler_attempts;
  }
  EXPECT_GT(failed_spans, 0);
  EXPECT_EQ(failed_spans, failed_attempts);
  EXPECT_GT(straggler_spans, 0);
  EXPECT_EQ(straggler_spans, straggler_attempts);
}

TEST(TraceDeterminismTest, FullJsonParsesStructurally) {
  const auto data = MakeUniform(1 << 12, 1000.0, /*seed=*/9);
  const ClusterConfig config = TraceCluster(0, FaultPlan::Disabled());
  const DGreedyResult r = RunDGreedy(data, config);
  const std::string json = ChromeTraceJson(BuildTrace(r.report, config));
  // Cheap structural sanity (CI's validate_trace.py does a full parse).
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics and text exporters.
// ---------------------------------------------------------------------------

TEST(TraceMetricsTest, DurationStatsArePercentileOrdered) {
  const std::vector<double> seconds = {5.0, 1.0, 3.0, 2.0, 4.0,
                                       6.0, 9.0, 8.0, 7.0, 10.0};
  const DurationStats stats = TaskDurationStats(seconds);
  EXPECT_EQ(stats.count, 10);
  EXPECT_DOUBLE_EQ(stats.p50_seconds, 5.0);
  EXPECT_DOUBLE_EQ(stats.p90_seconds, 9.0);
  EXPECT_DOUBLE_EQ(stats.p99_seconds, 10.0);
  EXPECT_DOUBLE_EQ(stats.max_seconds, 10.0);
  EXPECT_DOUBLE_EQ(stats.total_seconds, 55.0);
  EXPECT_EQ(TaskDurationStats({}).count, 0);
}

TEST(TraceMetricsTest, ReducerSkewFromPerTaskBytes) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/10);
  const ClusterConfig config = TraceCluster(0, FaultPlan::Disabled());
  const DGreedyResult r = RunDGreedy(data, config);
  bool saw_multi_reducer_job = false;
  for (const JobStats& job : r.report.jobs) {
    const ReducerSkewStats skew = ReducerSkew(job);
    EXPECT_GE(skew.ratio, 1.0) << job.name;
    if (job.reduce_tasks > 1 && job.shuffle_bytes > 0) {
      saw_multi_reducer_job = true;
      EXPECT_GT(skew.max_bytes, 0) << job.name;
      EXPECT_GT(skew.mean_bytes, 0.0) << job.name;
    }
    const DurationStats map_stats =
        TaskDurationStats(CommittedTaskSeconds(job, TaskPhase::kMap));
    EXPECT_EQ(map_stats.count, job.map_tasks);
    EXPECT_LE(map_stats.p50_seconds, map_stats.p90_seconds);
    EXPECT_LE(map_stats.p90_seconds, map_stats.p99_seconds);
    EXPECT_LE(map_stats.p99_seconds, map_stats.max_seconds);
    const DurationStats red_stats =
        TaskDurationStats(CommittedTaskSeconds(job, TaskPhase::kReduce));
    EXPECT_EQ(red_stats.count, job.reduce_tasks);
  }
  EXPECT_TRUE(saw_multi_reducer_job);
}

TEST(TraceMetricsTest, PhaseTableListsJobsAndDriverSpans) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/11);
  const ClusterConfig config = TraceCluster(0, FaultPlan::Disabled());
  const DGreedyResult r = RunDGreedy(data, config);
  const std::string table = PhaseTableText(r.report);
  for (const JobStats& job : r.report.jobs) {
    EXPECT_NE(table.find(job.name), std::string::npos) << job.name;
  }
  EXPECT_NE(table.find("driver:genRootSets"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(TraceMetricsTest, TaskPhaseNamesAndFaultSummary) {
  EXPECT_STREQ(TaskPhaseName(TaskPhase::kMap), "map");
  EXPECT_STREQ(TaskPhaseName(TaskPhase::kReduce), "reduce");
  EXPECT_EQ(FaultPlan().Summary(), "inert");
  EXPECT_EQ(FaultPlan::Disabled().Summary(), "disabled");
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("7", &plan).ok());
  const std::string summary = plan.Summary();
  EXPECT_NE(summary.find("seed 7"), std::string::npos);
  EXPECT_NE(summary.find("map_fail=0.02"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Corrupt-shuffle hardening: a reducer that cannot deserialize its stream
// fails the job with a Status instead of aborting the process.
// ---------------------------------------------------------------------------

TEST(ShuffleHardeningTest, CorruptStreamAbortsJobWithStatus) {
  if constexpr (audit::kEnabled) {
    // DWM_AUDIT's per-record round-trip check (intentionally) aborts on
    // the asymmetric Serde before the shuffle is even built.
    GTEST_SKIP() << "asymmetric test Serde trips DWM_AUDIT first";
  }
  // The reducer's one write is the flag its Ctx points at.
  struct RanCtx {
    std::atomic<bool>* reduce_ran;
  };
  JobSpec<RanCtx, int64_t, int64_t, EvilValue, int64_t> spec;
  spec.name = "corrupt_shuffle";
  spec.num_reducers = 2;
  spec.map = [](const RanCtx&, int64_t task, const int64_t&, const auto& emit) {
    emit(task, EvilValue{static_cast<uint64_t>(task)});
  };
  spec.reduce = [](const RanCtx& ctx, const int64_t&, std::vector<EvilValue>&,
                   std::vector<int64_t>*) {
    *ctx.reduce_ran = true;
  };
  std::atomic<bool> reduce_ran{false};
  ClusterConfig config = TraceCluster(1, FaultPlan::Disabled());
  std::vector<int64_t> splits = {0, 1, 2, 3};
  std::vector<int64_t> output;
  JobStats stats;
  const Status status =
      RunJobOr(spec, RanCtx{&reduce_ran}, splits, config, output, stats);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("corrupt shuffle stream"),
            std::string::npos)
      << status.ToString();
  EXPECT_TRUE(output.empty());
  EXPECT_FALSE(reduce_ran.load());
}

}  // namespace
}  // namespace dwm::mr
