// Tests for the algorithm-level telemetry of the distributed drivers:
// every one of the eight src/dist/ drivers must publish non-empty
// synopsis-quality metrics (retained coefficients + achieved error) via
// PublishSynopsisQuality, every job they run must return its reducers'
// results as output records, DMinHaarSpace's per-stage communication must
// reach dwm_mr_shuffle_bytes_total, and the registry's stable-only
// Prometheus export must be byte-identical across engine thread counts,
// fault-free and under an active fault plan that injects failures and
// stragglers alike (the metrics determinism contract, common/metrics.h).
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/generators.h"
#include "dist/dcon.h"
#include "dist/dgreedy.h"
#include "dist/dindirect_haar.h"
#include "dist/dmin_haar_space.h"
#include "dist/dmin_max_var.h"
#include "dist/hwtopk.h"
#include "dist/send_coef.h"
#include "dist/send_v.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "test_util.h"

namespace dwm {
namespace {

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

// What a driver run leaves for the tests: its Status and job report.
struct DriverRun {
  Status status;
  mr::SimReport report;
};

template <typename Result>
DriverRun Ran(Result result) {
  return {result.status, std::move(result.report)};
}

// One driver under test: `run` executes it end to end; `algo` is the label
// PublishSynopsisQuality tags its metrics with.
struct DriverCase {
  const char* algo;
  std::function<DriverRun(const std::vector<double>&,
                          const mr::ClusterConfig&)>
      run;
};

std::vector<DriverCase> AllDrivers() {
  return {
      {"dcon",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return Ran(RunCon(data, 256, 128, c));
       }},
      {"send_v",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return Ran(RunSendV(data, 256, 128, c));
       }},
      {"send_coef",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return Ran(RunSendCoef(data, 256, 128, c));
       }},
      {"hwtopk",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return Ran(RunHWTopk(data, 256, 5, c));
       }},
      {"dgreedy_abs",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         DGreedyOptions options;
         options.budget = 256;
         options.base_leaves = 128;
         return Ran(DGreedyAbs(data, options, c));
       }},
      {"dgreedy_rel",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         DGreedyOptions options;
         options.budget = 256;
         options.base_leaves = 128;
         return Ran(DGreedyRel(data, options, /*sanity=*/1.0, c));
       }},
      {"dindirect_haar",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         DIndirectHaarOptions options;
         options.budget = 256;
         options.quantum = 50.0;
         options.subtree_inputs = 64;
         return Ran(DIndirectHaar(data, options, c));
       }},
      {"dmin_haar_space",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return Ran(DMinHaarSpace(data,
                                  {/*error_bound=*/10.0, /*quantum=*/1.0,
                                   /*subtree_inputs=*/8},
                                  c));
       }},
      {"dmin_max_var",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         const MinMaxVarOptions options{/*budget=*/256, /*resolution=*/4,
                                        /*seed=*/42};
         return Ran(DMinMaxVar(data, options, 128, c));
       }},
  };
}

// GreedyRel (centralized and distributed alike) retains nothing on uniform
// data at these sizes — the all-dropped synopsis already achieves max-rel
// 1.0 — so the rel variant gets wavelet-friendly piecewise data.
std::vector<double> DriverData(const DriverCase& driver) {
  return std::string(driver.algo) == "dgreedy_rel"
             ? testing::PiecewiseData(1 << 11, /*seed=*/26, 100.0)
             : MakeUniform(1 << 11, 1000.0, /*seed=*/21);
}

class DistQualityMetricsTest : public ::testing::TestWithParam<DriverCase> {};

TEST_P(DistQualityMetricsTest, PublishesRetainedCoefficientsAndError) {
  const DriverCase& driver = GetParam();
  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  const Status status = driver.run(DriverData(driver), FastCluster()).status;
  ASSERT_TRUE(status.ok()) << status.ToString();

  const metrics::Labels labels = {{"algo", driver.algo}};
  EXPECT_GT(registry
                .GetGauge("dwm_synopsis_retained_coefficients", "", labels)
                ->value(),
            0.0)
      << driver.algo;
  EXPECT_GE(
      registry.GetGauge("dwm_synopsis_achieved_error", "", labels)->value(),
      0.0)
      << driver.algo;
  EXPECT_EQ(registry.GetCounter("dwm_dist_runs_total", "", labels)->value(),
            1)
      << driver.algo;

  // The labeled samples really are in the export (a GetGauge typo above
  // would silently create a fresh zero-valued child).
  const std::string text = registry.PrometheusText();
  const std::string sample = "dwm_synopsis_retained_coefficients{algo=\"" +
                             std::string(driver.algo) + "\"}";
  EXPECT_NE(text.find(sample), std::string::npos) << driver.algo;
}

// Reducers hand their results to the driver only through the job output,
// so every job of a successful run returns records (JobStats and the
// trace's reduce records_out count them).
TEST_P(DistQualityMetricsTest, EveryJobReturnsOutputRecords) {
  const DriverCase& driver = GetParam();
  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  const DriverRun run = driver.run(DriverData(driver), FastCluster());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_GT(run.report.total_jobs(), 0) << driver.algo;
  for (const mr::JobStats& job : run.report.jobs) {
    EXPECT_GT(job.output_records, 0) << driver.algo << " job " << job.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, DistQualityMetricsTest, ::testing::ValuesIn(AllDrivers()),
    [](const ::testing::TestParamInfo<DriverCase>& param_info) {
      return std::string(param_info.param.algo);
    });

// dwm_dgreedy_frontier_points counts the bucketed frontier points the
// histogram job shipped, each record once, not its records (one per base,
// incoming-error group and level-2 worker). Cross-checked against the
// engine's byte accounting: a record is at least the 8-byte key, a byte
// each for the base, size count, one size and the point count, e_b's 8
// bytes, and two bytes per point.
TEST(DGreedyFrontierGaugeTest, CountsShippedPointsNotRecords) {
  const auto data = testing::PiecewiseData(1 << 11, /*seed=*/26, 100.0);
  for (const bool relative : {false, true}) {
    metrics::Registry registry;
    metrics::ScopedRegistry scoped(&registry);
    DGreedyOptions options;
    options.budget = 256;
    options.base_leaves = 256;
    const DGreedyResult r =
        relative ? DGreedyRel(data, options, /*sanity=*/1.0, FastCluster())
                 : DGreedyAbs(data, options, FastCluster());
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    const mr::JobStats& hist = r.report.jobs[1];
    ASSERT_NE(hist.name.find("_hist"), std::string::npos);
    const auto points = static_cast<int64_t>(
        registry
            .GetGauge("dwm_dgreedy_frontier_points", "",
                      {{"algo", relative ? "dgreedy_rel" : "dgreedy_abs"}})
            ->value());
    EXPECT_GE(hist.shuffle_bytes, 20 * hist.shuffle_records + 2 * points)
        << "relative=" << relative;
    EXPECT_GT(points, hist.shuffle_records) << "relative=" << relative;
  }
}

// DMinHaarSpace's per-level DP communication is read from the MR engine's
// dwm_mr_shuffle_bytes_total{job}: every up/down stage is its own job, and
// the engine publishes each live job's JobStats::shuffle_bytes under the
// job's name.
TEST(DmhsShuffleMetricsTest, JobCounterCarriesEachStageShuffle) {
  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  const DmhsResult r =
      DMinHaarSpace(MakeUniform(1 << 11, 1000.0, /*seed=*/21),
                    {/*error_bound=*/10.0, /*quantum=*/1.0,
                     /*subtree_inputs=*/8},
                    FastCluster());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  std::map<std::string, int64_t> by_job;
  for (const mr::JobStats& job : r.report.jobs) {
    EXPECT_EQ(job.name.rfind("dmhs_", 0), 0u) << job.name;
    by_job[job.name] += job.shuffle_bytes;
  }
  ASSERT_GT(by_job.size(), 2u);  // several up and down stages
  for (const auto& [name, bytes] : by_job) {
    EXPECT_GT(bytes, 0) << name;
    EXPECT_EQ(registry
                  .GetCounter("dwm_mr_shuffle_bytes_total", "",
                              {{"job", name}})
                  ->value(),
              bytes)
        << name;
  }
}

// ---------------------------------------------------------------------------
// Determinism: the stable-only Prometheus export is byte-identical across
// engine thread counts, with and without an active fault plan.
// ---------------------------------------------------------------------------

std::string StableMetricsText(const std::vector<double>& data,
                              int worker_threads, const mr::FaultPlan& plan) {
  mr::ClusterConfig config = FastCluster();
  config.worker_threads = worker_threads;
  config.faults = plan;

  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  DGreedyOptions options;
  options.budget = static_cast<int64_t>(data.size()) / 8;
  options.base_leaves = 512;
  const DGreedyResult r = DGreedyAbs(data, options, config);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  return registry.PrometheusText(/*stable_only=*/true);
}

TEST(MetricsDeterminismTest, StableTextIdenticalAcrossWorkerThreads) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/22);
  const std::string j1 = StableMetricsText(data, 1, mr::FaultPlan::Disabled());
  const std::string j8 = StableMetricsText(data, 8, mr::FaultPlan::Disabled());
  EXPECT_EQ(j1, j8);
  // The stable export is non-trivial and free of measured families.
  EXPECT_NE(j1.find("dwm_synopsis_retained_coefficients"), std::string::npos);
  EXPECT_NE(j1.find("dwm_mr_shuffle_bytes_total"), std::string::npos);
  EXPECT_EQ(j1.find("dwm_mr_phase_seconds_total"), std::string::npos);
  EXPECT_EQ(j1.find("dwm_mr_task_seconds"), std::string::npos);
}

TEST(MetricsDeterminismTest, StableTextIdenticalUnderFaults) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/23);
  mr::FaultSpec spec;
  spec.map_failure_rate = 0.1;
  spec.reduce_failure_rate = 0.05;
  spec.straggler_rate = 0.1;
  spec.straggler_slowdown = 4.0;
  const mr::FaultPlan plan(/*seed=*/3, spec);
  const std::string j1 = StableMetricsText(data, 1, plan);
  const std::string j8 = StableMetricsText(data, 8, plan);
  EXPECT_EQ(j1, j8);
  // The plan injected for real: the fault tallies made it into the stable
  // export and differ from the fault-free document.
  EXPECT_NE(j1.find("dwm_faults_failed_attempts_total"), std::string::npos);
  EXPECT_NE(j1, StableMetricsText(data, 1, mr::FaultPlan::Disabled()));
}

}  // namespace
}  // namespace dwm
