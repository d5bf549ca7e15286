// Tests for the algorithm-level telemetry of the distributed drivers:
// every one of the eight src/dist/ drivers must publish non-empty
// synopsis-quality metrics (retained coefficients + achieved error) via
// PublishSynopsisQuality, and the registry's stable JSON export must be
// byte-identical across engine thread counts, fault-free and under an
// active fault plan (the metrics determinism contract, common/metrics.h).
//
// Determinism runs pin speculative_slowness_threshold = 0, mirroring the
// stable-trace tests: speculative backups race *measured* times, so they
// are excluded from every byte-identity contract.
#include <cstdint>
#include <functional>
#include <string>
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

// One driver under test: `run` executes it end to end and returns its
// Status; `algo` is the label PublishSynopsisQuality tags its metrics with.
struct DriverCase {
  const char* algo;
  std::function<Status(const std::vector<double>&, const mr::ClusterConfig&)>
      run;
};

std::vector<DriverCase> AllDrivers() {
  return {
      {"dcon",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return RunCon(data, 256, 128, c).status;
       }},
      {"send_v",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return RunSendV(data, 256, 128, c).status;
       }},
      {"send_coef",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return RunSendCoef(data, 256, 128, c).status;
       }},
      {"hwtopk",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return RunHWTopk(data, 256, 5, c).status;
       }},
      {"dgreedy_abs",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         DGreedyOptions options;
         options.budget = 256;
         options.base_leaves = 128;
         return DGreedyAbs(data, options, c).status;
       }},
      {"dgreedy_rel",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         DGreedyOptions options;
         options.budget = 256;
         options.base_leaves = 128;
         return DGreedyRel(data, options, /*sanity=*/1.0, c).status;
       }},
      {"dindirect_haar",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         DIndirectHaarOptions options;
         options.budget = 256;
         options.quantum = 50.0;
         options.subtree_inputs = 64;
         return DIndirectHaar(data, options, c).status;
       }},
      {"dmin_haar_space",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         return DMinHaarSpace(data, {/*error_bound=*/10.0, /*quantum=*/1.0,
                                     /*subtree_inputs=*/8},
                              c)
             .status;
       }},
      {"dmin_max_var",
       [](const std::vector<double>& data, const mr::ClusterConfig& c) {
         const MinMaxVarOptions options{/*budget=*/256, /*resolution=*/4,
                                        /*seed=*/42};
         return DMinMaxVar(data, options, 128, c).status;
       }},
  };
}

class DistQualityMetricsTest : public ::testing::TestWithParam<DriverCase> {};

TEST_P(DistQualityMetricsTest, PublishesRetainedCoefficientsAndError) {
  const DriverCase& driver = GetParam();
  // GreedyRel (centralized and distributed alike) retains nothing on
  // uniform data at these sizes — the all-dropped synopsis already achieves
  // max-rel 1.0 — so the rel variant gets wavelet-friendly piecewise data.
  const auto data =
      std::string(driver.algo) == "dgreedy_rel"
          ? testing::PiecewiseData(1 << 11, /*seed=*/26, 100.0)
          : MakeUniform(1 << 11, 1000.0, /*seed=*/21);

  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  const Status status = driver.run(data, FastCluster());
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

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, DistQualityMetricsTest, ::testing::ValuesIn(AllDrivers()),
    [](const ::testing::TestParamInfo<DriverCase>& param_info) {
      return std::string(param_info.param.algo);
    });

// dwm_dgreedy_frontier_points counts the bucketed frontier points the
// histogram job shipped, not its records (one per candidate and base).
// Cross-checked against the engine's byte accounting: each record is the
// key s, the base id and a u64 point count (8 bytes each) plus 16 bytes
// per point.
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
    const int64_t points =
        (hist.shuffle_bytes - 24 * hist.shuffle_records) / 16;
    const double gauge =
        registry
            .GetGauge("dwm_dgreedy_frontier_points", "",
                      {{"algo", relative ? "dgreedy_rel" : "dgreedy_abs"}})
            ->value();
    EXPECT_EQ(gauge, static_cast<double>(points)) << "relative=" << relative;
    EXPECT_GT(points, hist.shuffle_records) << "relative=" << relative;
  }
}

// ---------------------------------------------------------------------------
// Determinism: the stable JSON export is byte-identical across engine
// thread counts, with and without an active fault plan.
// ---------------------------------------------------------------------------

std::string StableMetricsJson(const std::vector<double>& data,
                              int worker_threads, const mr::FaultPlan& plan) {
  mr::ClusterConfig config = FastCluster();
  config.worker_threads = worker_threads;
  config.speculative_slowness_threshold = 0.0;  // see the header note
  config.faults = plan;

  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  DGreedyOptions options;
  options.budget = static_cast<int64_t>(data.size()) / 8;
  options.base_leaves = 512;
  const DGreedyResult r = DGreedyAbs(data, options, config);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  return registry.JsonText({.stable = true});
}

TEST(MetricsDeterminismTest, StableJsonIdenticalAcrossWorkerThreads) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/22);
  const std::string j1 = StableMetricsJson(data, 1, mr::FaultPlan::Disabled());
  const std::string j8 = StableMetricsJson(data, 8, mr::FaultPlan::Disabled());
  EXPECT_EQ(j1, j8);
  // The stable export is non-trivial and free of measured families.
  EXPECT_NE(j1.find("dwm_synopsis_retained_coefficients"), std::string::npos);
  EXPECT_NE(j1.find("dwm_mr_shuffle_bytes_total"), std::string::npos);
  EXPECT_EQ(j1.find("dwm_mr_phase_seconds_total"), std::string::npos);
  EXPECT_EQ(j1.find("dwm_mr_task_seconds"), std::string::npos);
}

TEST(MetricsDeterminismTest, StableJsonIdenticalUnderFaults) {
  const auto data = MakeUniform(1 << 13, 1000.0, /*seed=*/23);
  mr::FaultSpec spec;
  spec.map_failure_rate = 0.1;
  spec.reduce_failure_rate = 0.05;
  spec.straggler_rate = 0.1;
  spec.straggler_slowdown = 4.0;
  const mr::FaultPlan plan(/*seed=*/3, spec);
  const std::string j1 = StableMetricsJson(data, 1, plan);
  const std::string j8 = StableMetricsJson(data, 8, plan);
  EXPECT_EQ(j1, j8);
  // The plan injected for real: the fault tallies made it into the stable
  // export and differ from the fault-free document.
  EXPECT_NE(j1.find("dwm_faults_failed_attempts_total"), std::string::npos);
  EXPECT_NE(j1, StableMetricsJson(data, 1, mr::FaultPlan::Disabled()));
}

}  // namespace
}  // namespace dwm
