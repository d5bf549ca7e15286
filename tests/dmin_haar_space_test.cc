#include "dist/dmin_haar_space.h"

#include <gtest/gtest.h>

#include "core/min_haar_space.h"
#include "test_util.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

class DmhsEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(DmhsEquivalenceTest, MatchesCentralizedCountAndError) {
  const int64_t n = int64_t{1} << std::get<0>(GetParam());
  const int64_t fan = int64_t{1} << std::get<1>(GetParam());
  const double eps = std::get<2>(GetParam());
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n) + 17, 40.0);
  const MhsOptions opts{eps, 0.5};
  const MhsResult central = MinHaarSpace(data, opts);
  const DmhsResult dist =
      DMinHaarSpace(data, {eps, 0.5, fan}, FastCluster());
  ASSERT_EQ(central.feasible, dist.result.feasible);
  if (!central.feasible) return;
  // The DP is deterministic and the combine tree is associative: identical
  // counts and identical tracked errors regardless of the partitioning.
  EXPECT_EQ(central.count, dist.result.count);
  EXPECT_DOUBLE_EQ(central.max_abs_error, dist.result.max_abs_error);
  // And the distributed synopsis honors the bound exactly.
  EXPECT_LE(MaxAbsError(data, dist.result.synopsis), eps + 1e-9);
  EXPECT_NEAR(MaxAbsError(data, dist.result.synopsis),
              dist.result.max_abs_error, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DmhsEquivalenceTest,
    ::testing::Combine(::testing::Values(4, 6, 9, 12),
                       ::testing::Values(1, 3, 6),
                       ::testing::Values(2.0, 8.0, 30.0)));

TEST(DmhsTest, InfeasibleGridPropagates) {
  const auto data = testing::RandomData(64, 5, 10.0);
  const DmhsResult r = DMinHaarSpace(data, {0.01, 1000.0, 4}, FastCluster());
  EXPECT_FALSE(r.result.feasible);
}

TEST(DmhsTest, JobCountGrowsWithDepth) {
  const auto data = testing::RandomData(1 << 12, 6, 20.0);
  // fan 2 -> many layers; fan 1024 -> 1 bottom-up + 1 top-down job.
  const DmhsResult deep = DMinHaarSpace(data, {10.0, 0.5, 2}, FastCluster());
  const DmhsResult shallow =
      DMinHaarSpace(data, {10.0, 0.5, 1 << 11}, FastCluster());
  EXPECT_GT(deep.report.total_jobs(), shallow.report.total_jobs());
  EXPECT_EQ(deep.result.count, shallow.result.count);
  // fan 16 -> layers of 128, 8 and 1 sub-trees: three up jobs keyed by
  // their consumer, then three down jobs. Every job's shape and the
  // synopsis are pinned.
  const DmhsResult mid = DMinHaarSpace(data, {10.0, 0.5, 16}, FastCluster());
  ASSERT_TRUE(mid.status.ok());
  EXPECT_EQ(mid.result.count, shallow.result.count);
  const std::vector<testing::JobPin> jobs = {
      {"dmhs_up_0", 128, 8, 62344, 128},
      {"dmhs_up_1", 8, 1, 3712, 8},
      {"dmhs_up_2", 1, 1, 440, 1},
      {"dmhs_down_2", 1, 1, 216, 9},
      {"dmhs_down_1", 8, 1, 4056, 169},
      {"dmhs_down_0", 104, 1, 14928, 622},
  };
  testing::ExpectJobPins(mid.report, jobs);
  EXPECT_EQ(testing::SynopsisHash(mid.result.synopsis), 0x3450b151efbe0ae6u);
}

TEST(DmhsTest, CommunicationShrinksWithLargerSubtrees) {
  // Equation 6: boundary rows halve as the sub-tree height grows.
  const auto data = testing::RandomData(1 << 12, 7, 20.0);
  const DmhsResult small_fan =
      DMinHaarSpace(data, {8.0, 0.5, 4}, FastCluster());
  const DmhsResult large_fan =
      DMinHaarSpace(data, {8.0, 0.5, 64}, FastCluster());
  EXPECT_GT(small_fan.report.total_shuffle_bytes(),
            large_fan.report.total_shuffle_bytes());
}

TEST(DmhsTest, HugeEpsilonNeedsNoCoefficients) {
  const auto data = testing::RandomData(256, 8, 10.0);
  const DmhsResult r = DMinHaarSpace(data, {1000.0, 1.0, 8}, FastCluster());
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.result.count, 0);
  EXPECT_EQ(r.result.synopsis.size(), 0);
}

}  // namespace
}  // namespace dwm
