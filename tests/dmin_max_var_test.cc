#include "dist/dmin_max_var.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "core/min_max_var.h"
#include "test_util.h"

namespace dwm {
namespace {

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

class DMinMaxVarTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DMinMaxVarTest, BitIdenticalToCentralized) {
  const int64_t n = int64_t{1} << std::get<0>(GetParam());
  const int64_t base_leaves = int64_t{1} << std::get<1>(GetParam());
  const int32_t q = std::get<2>(GetParam());
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n) + 3, 30.0);
  const MinMaxVarOptions options{n / 8, q, /*seed=*/42};
  const MinMaxVarResult central = MinMaxVar(data, options);
  const DMinMaxVarResult dist =
      DMinMaxVar(data, options, base_leaves, FastCluster());
  // Identical DP tables, identical decisions, identical coin flips (global
  // node ids seed the coins) => identical synopses.
  EXPECT_DOUBLE_EQ(central.max_path_penalty, dist.result.max_path_penalty);
  EXPECT_EQ(central.expected_space_units, dist.result.expected_space_units);
  EXPECT_EQ(central.synopsis.coefficients(),
            dist.result.synopsis.coefficients());
  // Allocation multisets match (ordering differs between the driver walk
  // and the per-base jobs).
  auto sorted = [](std::vector<std::pair<int64_t, int32_t>> a) {
    std::sort(a.begin(), a.end());
    return a;
  };
  EXPECT_EQ(sorted(central.allocations), sorted(dist.result.allocations));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DMinMaxVarTest,
    ::testing::Combine(::testing::Values(5, 7, 9),
                       ::testing::Values(2, 4),
                       ::testing::Values(1, 2, 4)));

TEST(DMinMaxVarJobsTest, TwoJobsAndRowTraffic) {
  const auto data = testing::RandomData(1 << 8, 4, 30.0);
  const MinMaxVarOptions options{16, 2, 1};
  const DMinMaxVarResult r = DMinMaxVar(data, options, 32, FastCluster());
  ASSERT_TRUE(r.status.ok());
  // 8 base sub-trees. The up job ships each base's root M-row, whose
  // O(B delta) cells (Section 4's analysis) dominate its bytes; the down
  // job ships one record per coefficient a base keeps.
  const std::vector<testing::JobPin> jobs = {
      {"dmmv_up_0", 8, 1, 4480, 8},
      {"dmmv_down_0", 6, 1, 360, 15},
  };
  testing::ExpectJobPins(r.report, jobs);
  EXPECT_EQ(testing::SynopsisHash(r.result.synopsis), 0xe6c043e4d0652aacu);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.result.max_path_penalty),
            0x40acd4ffd0c94c4au);
  EXPECT_EQ(r.result.expected_space_units, 32);
}

TEST(DMinMaxVarJobsTest, ZeroBudget) {
  const auto data = testing::RandomData(1 << 6, 5, 30.0);
  const DMinMaxVarResult r =
      DMinMaxVar(data, {0, 2, 1}, 8, FastCluster());
  EXPECT_EQ(r.result.synopsis.size(), 0);
}

}  // namespace
}  // namespace dwm
