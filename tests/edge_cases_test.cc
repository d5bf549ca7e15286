// Failure-injection and boundary-condition tests across the whole public
// API: degenerate domains, extreme values, signs, and pathological budgets.
#include <gtest/gtest.h>

#include <cmath>

#include "core/conventional.h"
#include "core/greedy_abs.h"
#include "core/greedy_rel.h"
#include "core/indirect_haar.h"
#include "core/min_haar_space.h"
#include "core/min_max_var.h"
#include "data/generators.h"
#include "dist/dgreedy.h"
#include "mr/job.h"
#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

struct NoCtx {};

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

TEST(EdgeCaseTest, ConstantDataNeedsOneCoefficient) {
  const std::vector<double> data(64, 42.0);
  EXPECT_NEAR(GreedyAbs(data, 1).max_abs_error, 0.0, 1e-12);
  EXPECT_NEAR(MaxAbsError(data, ConventionalSynopsis(data, 1)), 0.0, 1e-12);
  const MhsResult mhs = MinHaarSpace(data, {0.0, 1.0});
  ASSERT_TRUE(mhs.feasible);
  EXPECT_EQ(mhs.count, 1);
  EXPECT_NEAR(GreedyRel(data, 1, 1.0).max_rel_error, 0.0, 1e-12);
}

TEST(EdgeCaseTest, AllZeroData) {
  const std::vector<double> data(32, 0.0);
  EXPECT_EQ(GreedyAbs(data, 4).synopsis.size(), 0);
  EXPECT_NEAR(GreedyAbs(data, 4).max_abs_error, 0.0, 1e-12);
  EXPECT_EQ(ConventionalSynopsis(data, 4).size(), 0);
  EXPECT_NEAR(GreedyRel(data, 0, 1.0).max_rel_error, 0.0, 1e-12);
  const MhsResult mhs = MinHaarSpace(data, {0.0, 1.0});
  ASSERT_TRUE(mhs.feasible);
  EXPECT_EQ(mhs.count, 0);
}

TEST(EdgeCaseTest, MixedSignData) {
  std::vector<double> data = testing::RandomData(128, 5, 60.0);
  for (size_t i = 0; i < data.size(); i += 2) data[i] = -data[i];
  for (int64_t b : {8, 32}) {
    const GreedyAbsResult g = GreedyAbs(data, b);
    EXPECT_NEAR(g.max_abs_error, MaxAbsError(data, g.synopsis), 1e-7);
    const IndirectHaarResult r = IndirectHaar(data, {b, 0.5, 40});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.max_abs_error, MaxAbsError(data, r.synopsis), 1e-9);
  }
}

TEST(EdgeCaseTest, HugeMagnitudes) {
  std::vector<double> data = testing::RandomData(64, 6, 1e12);
  const GreedyAbsResult g = GreedyAbs(data, 16);
  EXPECT_NEAR(g.max_abs_error, MaxAbsError(data, g.synopsis),
              1e-3);  // relative 1e-15
  const MhsResult mhs = MinHaarSpace(data, {1e10, 1e8});
  ASSERT_TRUE(mhs.feasible);
  EXPECT_LE(MaxAbsError(data, mhs.synopsis), 1e10 * (1.0 + 1e-9));
}

TEST(EdgeCaseTest, SmallestDomains) {
  const std::vector<double> two = {3.0, 9.0};
  EXPECT_NEAR(GreedyAbs(two, 2).max_abs_error, 0.0, 1e-12);
  EXPECT_NEAR(GreedyAbs(two, 1).max_abs_error, 3.0, 1e-12);  // keep avg 6
  EXPECT_NEAR(GreedyRel(two, 2, 1.0).max_rel_error, 0.0, 1e-12);
  const MinMaxVarResult mmv = MinMaxVar(two, {2, 1, 1});
  EXPECT_NEAR(mmv.max_path_penalty, 0.0, 1e-12);
}

TEST(EdgeCaseTest, BudgetOne) {
  const auto data = testing::RandomData(256, 7, 50.0);
  const GreedyAbsResult g = GreedyAbs(data, 1);
  EXPECT_LE(g.synopsis.size(), 1);
  EXPECT_NEAR(g.max_abs_error, MaxAbsError(data, g.synopsis), 1e-7);
  EXPECT_LE(ConventionalSynopsis(data, 1).size(), 1);
}

TEST(EdgeCaseTest, BudgetExceedsDomain) {
  const auto data = testing::RandomData(32, 8, 50.0);
  EXPECT_NEAR(GreedyAbs(data, 1000).max_abs_error, 0.0, 1e-9);
  EXPECT_LE(ConventionalSynopsis(data, 1000).size(), 32);
}

TEST(EdgeCaseTest, MhsEpsZeroFeasibilityDependsOnGrid) {
  // At eps = 0 the incoming value must hit each pair's average exactly:
  // off-grid averages (1.125, 3.025) make a unit grid infeasible, while a
  // grid dividing them reconstructs exactly (coefficient values are
  // unrestricted, so only the averages matter).
  // Averages: 1.125, 3.0, top 2.0625 — all multiples of the binary-exact
  // 0.0625 grid but not of the unit grid.
  const std::vector<double> data = {0.5, 1.75, 2.25, 3.75};
  EXPECT_FALSE(MinHaarSpace(data, {0.0, 1.0}).feasible);
  const MhsResult fine = MinHaarSpace(data, {0.0, 0.0625});
  ASSERT_TRUE(fine.feasible);
  EXPECT_NEAR(MaxAbsError(data, fine.synopsis), 0.0, 1e-9);
}

TEST(EdgeCaseTest, RangeSumSingleElementEqualsPoint) {
  const auto data = testing::RandomData(64, 9, 30.0);
  const Synopsis s = ConventionalSynopsis(data, 16);
  for (int64_t i : {int64_t{0}, int64_t{17}, int64_t{63}}) {
    EXPECT_NEAR(s.RangeSum(i, i), s.PointEstimate(i), 1e-9);
  }
}

TEST(EdgeCaseTest, DGreedyMinimalPartition) {
  // Exactly two base sub-trees: the smallest legal root sub-tree.
  const auto data = testing::RandomData(64, 10, 40.0);
  DGreedyOptions options;
  options.budget = 16;
  options.base_leaves = 32;
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  EXPECT_LE(r.synopsis.size(), 16);
  EXPECT_LE(MaxAbsError(data, r.synopsis),
            1.5 * GreedyAbs(data, 16).max_abs_error + 1e-6);
}

TEST(EdgeCaseTest, JobWithNoSplits) {
  mr::JobSpec<NoCtx, int64_t, int64_t, int64_t, int64_t> spec;
  spec.name = "empty";
  spec.num_reducers = 2;
  spec.map = [](const NoCtx&, int64_t, const int64_t&, const auto&) {};
  spec.reduce = [](const NoCtx&, const int64_t&, std::vector<int64_t>&,
                   std::vector<int64_t>*) {};
  mr::JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(mr::RunJobOr(spec, NoCtx{}, std::vector<int64_t>{}, FastCluster(),
                           out, stats).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.map_tasks, 0);
  EXPECT_EQ(stats.shuffle_bytes, 0);
}

TEST(EdgeCaseTest, MoreReducersThanKeys) {
  mr::JobSpec<NoCtx, int64_t, int64_t, int64_t, int64_t> spec;
  spec.name = "sparse";
  spec.num_reducers = 16;
  spec.map = [](const NoCtx&, int64_t, const int64_t& s, const auto& emit) {
    emit(s, s);
  };
  spec.reduce = [](const NoCtx&, const int64_t& k, std::vector<int64_t>&,
                   std::vector<int64_t>* out) {
    out->push_back(k);
  };
  mr::JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(mr::RunJobOr(spec, NoCtx{}, std::vector<int64_t>{1, 2},
                           FastCluster(), out, stats).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(EdgeCaseTest, GeneratorsHandleTinySizes) {
  EXPECT_EQ(MakeUniform(1, 10.0, 1).size(), 1u);
  EXPECT_EQ(MakeZipf(1, 1.0, 5, 1).size(), 1u);
  EXPECT_EQ(MakeNyctLike(2, 1).size(), 2u);
  EXPECT_EQ(MakeWdLike(2, 1).size(), 2u);
}

TEST(EdgeCaseTest, SpikyDeltaFunctionData) {
  // A single spike: one path of coefficients carries everything.
  std::vector<double> data(128, 0.0);
  data[77] = 1000.0;
  // log2(128) + 1 = 8 coefficients reconstruct the spike exactly.
  EXPECT_NEAR(GreedyAbs(data, 8).max_abs_error, 0.0, 1e-9);
  const GreedyAbsResult tight = GreedyAbs(data, 4);
  EXPECT_GT(tight.max_abs_error, 0.0);
  EXPECT_NEAR(tight.max_abs_error, MaxAbsError(data, tight.synopsis), 1e-7);
}

}  // namespace
}  // namespace dwm
