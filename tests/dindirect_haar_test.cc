#include "dist/dindirect_haar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/indirect_haar.h"
#include "dist/dcon.h"
#include "dist/dmin_haar_space.h"
#include "mr/faults.h"
#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

class DIndirectHaarTest : public ::testing::TestWithParam<int> {};

TEST_P(DIndirectHaarTest, MatchesCentralizedIndirectHaar) {
  const int64_t n = int64_t{1} << GetParam();
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n), 50.0);
  const int64_t b = n / 8;
  const IndirectHaarResult central = IndirectHaar(data, {b, 0.5, 40});
  const DIndirectHaarResult dist =
      DIndirectHaar(data, {b, 0.5, 16, 40}, FastCluster());
  ASSERT_EQ(central.converged, dist.search.converged);
  if (!central.converged) return;
  // Same deterministic search over the same Problem-2 DP; the bound jobs may
  // differ by floating-point ulps, so allow a one-grid-step divergence.
  EXPECT_NEAR(central.max_abs_error, dist.search.max_abs_error, 0.5);
  EXPECT_LE(dist.search.synopsis.size(), b);
  EXPECT_NEAR(MaxAbsError(data, dist.search.synopsis),
              dist.search.max_abs_error, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DIndirectHaarTest,
                         ::testing::Values(4, 6, 9, 11));

// The search as it ran when every probe built its synopsis: a full
// DMinHaarSpace per probe, over DIndirectHaar's bounds (the CON synopsis's
// max_abs and the (B+1)-largest coefficient). `winner` indexes the probe
// the search returned, `winning_eps` is its bound.
struct EagerSearch {
  IndirectHaarResult result;
  std::vector<DmhsResult> probes;
  size_t winner = 0;
  double winning_eps = -1.0;
};

EagerSearch RunEagerSearch(const std::vector<double>& data,
                           const DIndirectHaarOptions& options) {
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t base_leaves =
      std::clamp<int64_t>(2 * options.subtree_inputs, 2, n / 2);
  const DistSynopsisResult con =
      RunCon(data, options.budget, base_leaves, FastCluster());
  EXPECT_TRUE(con.status.ok());
  const double e_u = MaxAbsError(data, con.synopsis);
  const double e_l = BudgetPlusOneLargestAbs(ForwardHaar(data), options.budget);
  EagerSearch eager;
  Problem2Solver solver = [&](double eps) {
    eager.probes.push_back(DMinHaarSpace(
        data, {eps, options.quantum, options.subtree_inputs}, FastCluster()));
    const DmhsResult& run = eager.probes.back();
    EXPECT_TRUE(run.status.ok());
    const size_t k = eager.probes.size() - 1;
    return Problem2Probe{run.result.feasible, run.result.count,
                         run.result.max_abs_error, [&eager, k, eps] {
                           eager.winner = k;
                           eager.winning_eps = eps;
                           return eager.probes[k].result.synopsis;
                         }};
  };
  eager.result = IndirectHaarSearch(solver, std::min(e_l, e_u), e_u,
                                    options.budget, options.quantum,
                                    options.max_iterations);
  return eager;
}

TEST(DIndirectHaarDeferredTest, MatchesEagerDMinHaarSpaceByteForByte) {
  bool over_budget_first = false;
  bool winner_not_last = false;
  for (const int log_n : {7, 9}) {
    for (const double quantum : {0.5, 2.0}) {
      for (uint64_t seed = 0; seed < 3; ++seed) {
        const int64_t n = int64_t{1} << log_n;
        const auto data = testing::RandomData(n, 70 + seed, 50.0);
        const DIndirectHaarOptions options{n / 8, quantum, 16, 40};
        metrics::Registry registry;
        metrics::ScopedRegistry scoped(&registry);
        const DIndirectHaarResult lazy =
            DIndirectHaar(data, options, FastCluster());
        ASSERT_TRUE(lazy.status.ok()) << lazy.status.ToString();
        // Only the winner materialized, so the DMinHaarSpace bound gauge
        // names the winning probe's bound. (Read it before the eager
        // reference below publishes its own probes.)
        const double lazy_bound =
            registry
                .GetGauge("dwm_synopsis_error_bound", "",
                          {{"algo", "dmin_haar_space"}})
                ->value();
        const EagerSearch eager = RunEagerSearch(data, options);
        const std::string label = "n=" + std::to_string(n) +
                                  " quantum=" + std::to_string(quantum) +
                                  " seed=" + std::to_string(seed);
        ASSERT_EQ(lazy.search.converged, eager.result.converged) << label;
        EXPECT_EQ(lazy.search.solver_runs, eager.result.solver_runs) << label;
        EXPECT_EQ(lazy.search.lower_bound, eager.result.lower_bound) << label;
        EXPECT_EQ(lazy.search.upper_bound, eager.result.upper_bound) << label;
        if (!lazy.search.converged) continue;
        EXPECT_EQ(lazy.search.max_abs_error, eager.result.max_abs_error)
            << label;
        EXPECT_EQ(testing::SynopsisBytes(lazy.search.synopsis),
                  testing::SynopsisBytes(eager.result.synopsis))
            << label;
        EXPECT_EQ(lazy_bound, eager.winning_eps) << label;
        for (size_t k = 0; k < eager.winner; ++k) {
          const MhsResult& probe = eager.probes[k].result;
          over_budget_first |= probe.feasible && probe.count > options.budget;
        }
        winner_not_last |= eager.winner + 1 < eager.probes.size();
      }
    }
  }
  EXPECT_TRUE(over_budget_first);
  EXPECT_TRUE(winner_not_last);
}

// Splits a DIndirectHaar report at its marker spans: the jobs of probe k
// run from the "dih_probe<k>" marker to the next marker.
struct JobShape {
  std::vector<std::vector<std::string>> probe_jobs;  // per probe, in order
  int materialized_probe = 0;  // from the "dih_materialize_probe<k>" marker
  std::vector<std::string> materialize_jobs;
};

JobShape ShapeOf(const mr::SimReport& report) {
  JobShape shape;
  std::vector<std::string>* current = nullptr;
  size_t next_job = 0;
  const auto take_until = [&](size_t end) {
    for (; next_job < end; ++next_job) {
      if (current != nullptr) current->push_back(report.jobs[next_job].name);
    }
  };
  const std::string probe_marker = "dih_probe";
  const std::string materialize_marker = "dih_materialize_probe";
  for (const mr::DriverSpan& span : report.driver_spans) {
    if (span.name.rfind(materialize_marker, 0) == 0) {
      take_until(static_cast<size_t>(span.after_job));
      shape.materialized_probe =
          std::stoi(span.name.substr(materialize_marker.size()));
      current = &shape.materialize_jobs;
    } else if (span.name.rfind(probe_marker, 0) == 0) {
      take_until(static_cast<size_t>(span.after_job));
      shape.probe_jobs.emplace_back();
      current = &shape.probe_jobs.back();
    }
  }
  take_until(report.jobs.size());
  return shape;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(DIndirectHaarJobsTest, MultipleDistributedJobsPerRun) {
  const auto data = testing::RandomData(1 << 9, 3, 60.0);
  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  const DIndirectHaarResult r =
      DIndirectHaar(data, {64, 0.5, 16, 40}, FastCluster());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.search.converged);
  const JobShape shape = ShapeOf(r.report);
  const int probes = static_cast<int>(shape.probe_jobs.size());
  ASSERT_EQ(probes, r.search.solver_runs);
  EXPECT_EQ(registry
                .GetCounter("dwm_dih_probes_total", "",
                            {{"algo", "dindirect_haar"}})
                ->value(),
            r.search.solver_runs);
  // 512 leaves over 16-row sub-trees: 16 bottom workers, then one top.
  constexpr int kUpStages = 2;
  // A probe is its up sweep only; no down job runs inside one.
  for (const std::vector<std::string>& jobs : shape.probe_jobs) {
    ASSERT_EQ(jobs.size(), static_cast<size_t>(kUpStages));
    for (const std::string& job : jobs) EXPECT_TRUE(StartsWith(job, "dmhs_up_"));
  }
  // Every down job belongs to the one materialized probe, and they are the
  // same layers a standalone DMinHaarSpace run walks down.
  ASSERT_GE(shape.materialized_probe, 1);
  ASSERT_LE(shape.materialized_probe, probes);
  ASSERT_FALSE(shape.materialize_jobs.empty());
  for (const std::string& job : shape.materialize_jobs) {
    EXPECT_TRUE(StartsWith(job, "dmhs_down_")) << job;
  }
  const int down_stages = static_cast<int>(shape.materialize_jobs.size());
  EXPECT_EQ(down_stages, kUpStages);
  int down_jobs = 0;
  for (const mr::JobStats& job : r.report.jobs) {
    down_jobs += StartsWith(job.name, "dmhs_down_") ? 1 : 0;
  }
  EXPECT_EQ(down_jobs, down_stages);
  // Three bound jobs (CON, its evaluation, the lower bound), then the
  // probes' up sweeps and one down sweep.
  EXPECT_EQ(r.report.total_jobs(), 3 + probes * kUpStages + down_stages);
  // Every job's shape and the synopsis, pinned.
  const std::vector<testing::JobPin> jobs = {
      {"con", 16, 1, 8192, 512},
      {"dih_upper_bound", 16, 1, 256, 16},
      {"dih_lower_bound", 16, 1, 8192, 512},
      {"dmhs_up_0", 16, 1, 48332, 16},
      {"dmhs_up_1", 1, 1, 3008, 1},
      {"dmhs_up_0", 16, 1, 34556, 16},
      {"dmhs_up_1", 1, 1, 2144, 1},
      {"dmhs_up_0", 16, 1, 40832, 16},
      {"dmhs_up_1", 1, 1, 2528, 1},
      {"dmhs_up_0", 16, 1, 36992, 16},
      {"dmhs_up_1", 1, 1, 2288, 1},
      {"dmhs_up_0", 16, 1, 38264, 16},
      {"dmhs_up_1", 1, 1, 2360, 1},
      {"dmhs_up_0", 16, 1, 38876, 16},
      {"dmhs_up_1", 1, 1, 2408, 1},
      {"dmhs_up_0", 16, 1, 39200, 16},
      {"dmhs_up_1", 1, 1, 2432, 1},
      {"dmhs_up_0", 16, 1, 38948, 16},
      {"dmhs_up_1", 1, 1, 2408, 1},
      {"dmhs_down_1", 1, 1, 360, 15},
      {"dmhs_down_0", 13, 1, 1464, 61},
  };
  testing::ExpectJobPins(r.report, jobs);
  EXPECT_EQ(testing::SynopsisHash(r.search.synopsis), 0xd0afa3516a43ff72u);
}

TEST(DIndirectHaarJobsTest, ProbeDeathSkipsTheDeferredSweep) {
  // Once a probe has died the run fails, so the best probe found before it
  // must not run its down jobs: the surfaced failure stays the probe's.
  const auto data = testing::RandomData(1 << 9, 3, 60.0);
  const DIndirectHaarOptions options{64, 0.5, 16, 40};
  const EagerSearch eager = RunEagerSearch(data, options);
  // The first probe that follows an accepted one.
  size_t victim = 0;
  for (size_t k = 0; k + 1 < eager.probes.size() && victim == 0; ++k) {
    const MhsResult& probe = eager.probes[k].result;
    if (probe.feasible && probe.count <= options.budget) victim = k + 1;
  }
  ASSERT_GT(victim, 0u);

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "dwm_dih_probe_death";
  fs::remove_all(dir);
  mr::ClusterConfig config = FastCluster();
  config.faults = mr::FaultPlan::Disabled();
  config.checkpoint_dir = dir.string();
  ASSERT_TRUE(DIndirectHaar(data, options, config).status.ok());
  // Probes are numbered from 1: drop the victim's frames so it runs live.
  const std::string chain = "dih_probe" + std::to_string(victim + 1) + "_dmhs";
  int dropped = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (StartsWith(entry.path().filename().string(), chain + "-")) {
      fs::remove(entry.path());
      ++dropped;
    }
  }
  ASSERT_GT(dropped, 0);

  mr::FaultSpec lethal;
  lethal.map_failure_rate = 1.0;
  config.faults = mr::FaultPlan(11, lethal);
  config.max_task_attempts = 1;
  const DIndirectHaarResult killed = DIndirectHaar(data, options, config);
  ASSERT_FALSE(killed.status.ok());
  EXPECT_NE(killed.status.ToString().find("'dmhs_up_0'"), std::string::npos)
      << killed.status.ToString();
  for (const mr::JobStats& job : killed.report.jobs) {
    EXPECT_FALSE(StartsWith(job.name, "dmhs_down_")) << job.name;
  }
  EXPECT_EQ(ShapeOf(killed.report).materialized_probe, 0);
  fs::remove_all(dir);
}

TEST(DIndirectHaarJobsTest, CoarseQuantumFails) {
  const auto data = testing::RandomData(1 << 8, 4, 1.0);
  const DIndirectHaarResult r =
      DIndirectHaar(data, {16, 1e6, 8, 10}, FastCluster());
  EXPECT_FALSE(r.search.converged);
  // Nothing fit, so nothing was materialized.
  for (const mr::JobStats& job : r.report.jobs) {
    EXPECT_FALSE(StartsWith(job.name, "dmhs_down_")) << job.name;
  }
  EXPECT_EQ(ShapeOf(r.report).materialized_probe, 0);
}

}  // namespace
}  // namespace dwm
