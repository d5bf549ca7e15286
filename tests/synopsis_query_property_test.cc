// Randomized property test for the synopsis query path: for every one of
// the distributed builders, the synopsis it produces must answer
// PointEstimate, RangeSum and ReconstructRange consistently with the exact
// full reconstruction (Reconstruct()). This pins the indexed point query,
// the two-path range walk and the per-level subtree runs of
// ReconstructRange against the ground truth for both restricted
// (Haar-valued) and unrestricted (arbitrary-valued) synopses.
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist/dcon.h"
#include "dist/dgreedy.h"
#include "dist/dindirect_haar.h"
#include "dist/dmin_haar_space.h"
#include "dist/dmin_max_var.h"
#include "dist/hwtopk.h"
#include "dist/send_coef.h"
#include "dist/send_v.h"
#include "mr/cluster.h"
#include "test_util.h"
#include "wavelet/synopsis.h"

namespace dwm {
namespace {

constexpr int64_t kN = 1 << 10;
constexpr int64_t kBudget = 128;
constexpr int64_t kBaseLeaves = 128;

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

// One synopsis builder under test: runs end to end on `data` and returns
// the synopsis it would ship to the serving layer.
struct BuilderCase {
  const char* name;
  std::function<Synopsis(const std::vector<double>&)> build;
};

std::vector<BuilderCase> AllBuilders() {
  return {
      {"dcon",
       [](const std::vector<double>& data) {
         auto r = RunCon(data, kBudget, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"send_v",
       [](const std::vector<double>& data) {
         auto r = RunSendV(data, kBudget, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"send_coef",
       [](const std::vector<double>& data) {
         auto r = RunSendCoef(data, kBudget, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"hwtopk",
       [](const std::vector<double>& data) {
         auto r = RunHWTopk(data, kBudget, /*levels=*/5, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"dgreedy_abs",
       [](const std::vector<double>& data) {
         DGreedyOptions options;
         options.budget = kBudget;
         options.base_leaves = kBaseLeaves;
         auto r = DGreedyAbs(data, options, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"dgreedy_rel",
       [](const std::vector<double>& data) {
         DGreedyOptions options;
         options.budget = kBudget;
         options.base_leaves = kBaseLeaves;
         auto r = DGreedyRel(data, options, /*sanity=*/1.0, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"dindirect_haar",
       [](const std::vector<double>& data) {
         DIndirectHaarOptions options;
         options.budget = kBudget;
         options.quantum = 0.5;
         options.subtree_inputs = 64;
         auto r = DIndirectHaar(data, options, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         EXPECT_TRUE(r.search.converged);
         return r.search.synopsis;
       }},
      {"dmin_haar_space",
       [](const std::vector<double>& data) {
         auto r = DMinHaarSpace(data,
                                {/*error_bound=*/10.0, /*quantum=*/1.0,
                                 /*subtree_inputs=*/8},
                                FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         EXPECT_TRUE(r.result.feasible);
         return r.result.synopsis;
       }},
      {"dmin_max_var",
       [](const std::vector<double>& data) {
         const MinMaxVarOptions options{/*budget=*/kBudget, /*resolution=*/4,
                                        /*seed=*/42};
         auto r = DMinMaxVar(data, options, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.result.synopsis;
       }},
  };
}

class SynopsisQueryPropertyTest : public ::testing::TestWithParam<BuilderCase> {
 protected:
  Synopsis BuildSynopsis() {
    const auto data = testing::PiecewiseData(kN, /*seed=*/43, 100.0);
    return GetParam().build(data);
  }
};

TEST_P(SynopsisQueryPropertyTest, PointEstimateMatchesReconstruct) {
  const Synopsis s = BuildSynopsis();
  ASSERT_EQ(s.domain_size(), kN);
  const std::vector<double> exact = s.Reconstruct();
  for (int64_t j = 0; j < kN; ++j) {
    ASSERT_NEAR(s.PointEstimate(j), exact[static_cast<size_t>(j)], 1e-9)
        << GetParam().name << " leaf " << j;
  }
}

TEST_P(SynopsisQueryPropertyTest, RangeSumMatchesReconstruct) {
  const Synopsis s = BuildSynopsis();
  const std::vector<double> exact = s.Reconstruct();
  Rng rng(/*seed=*/7);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.NextBounded(kN));
    int64_t hi = static_cast<int64_t>(rng.NextBounded(kN));
    if (lo > hi) std::swap(lo, hi);
    double expected = 0.0;
    for (int64_t j = lo; j <= hi; ++j) expected += exact[static_cast<size_t>(j)];
    ASSERT_NEAR(s.RangeSum(lo, hi), expected,
                1e-6 * (1.0 + std::abs(expected)))
        << GetParam().name << " [" << lo << ", " << hi << "]";
  }
  // The two boundary ranges every serving shard must answer: a single leaf
  // and the full domain.
  ASSERT_NEAR(s.RangeSum(0, 0), exact[0], 1e-9) << GetParam().name;
  double total = 0.0;
  for (double v : exact) total += v;
  ASSERT_NEAR(s.RangeSum(0, kN - 1), total, 1e-6 * (1.0 + std::abs(total)))
      << GetParam().name;
}

TEST_P(SynopsisQueryPropertyTest, ReconstructRangeMatchesReconstruct) {
  const Synopsis s = BuildSynopsis();
  const std::vector<double> exact = s.Reconstruct();
  // Every aligned power-of-two slice of the domain, single leaves included.
  for (int64_t count = 1; count <= kN; count *= 2) {
    for (int64_t first = 0; first < kN; first += count) {
      const std::vector<double> slice = s.ReconstructRange(first, count);
      ASSERT_EQ(static_cast<int64_t>(slice.size()), count);
      for (int64_t i = 0; i < count; ++i) {
        ASSERT_NEAR(slice[static_cast<size_t>(i)],
                    exact[static_cast<size_t>(first + i)], 1e-9)
            << GetParam().name << " count=" << count << " first=" << first;
      }
    }
  }
  EXPECT_TRUE(s.ReconstructRange(0, 0).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, SynopsisQueryPropertyTest,
    ::testing::ValuesIn(AllBuilders()),
    [](const ::testing::TestParamInfo<BuilderCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace dwm
