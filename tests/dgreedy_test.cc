#include "dist/dgreedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "core/conventional.h"
#include "core/greedy_abs.h"
#include "core/greedy_rel.h"
#include "dist/tree_partition.h"
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

class DGreedyAbsTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DGreedyAbsTest, QualityMatchesCentralizedGreedy) {
  const int64_t n = int64_t{1} << std::get<0>(GetParam());
  const int64_t base_leaves = int64_t{1} << std::get<1>(GetParam());
  const int64_t b = n / 8;
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n) + 5, 60.0);
  DGreedyOptions options;
  options.budget = b;
  options.base_leaves = base_leaves;
  const DGreedyResult dist = DGreedyAbs(data, options, FastCluster());
  EXPECT_LE(dist.synopsis.size(), b);
  const double dist_err = MaxAbsError(data, dist.synopsis);
  const double central_err = GreedyAbs(data, b).max_abs_error;
  // Section 6: "DGreedyAbs achieves the same maximum absolute error with its
  // centralized counterpart". The speculative decomposition is a heuristic,
  // so allow a modest slack rather than exact equality.
  EXPECT_LE(dist_err, 1.5 * central_err + 1e-6)
      << "n=" << n << " L=" << base_leaves;
  // The histogram-stage estimate is a bucket floor of the achieved error.
  EXPECT_LE(dist.estimated_error, dist_err + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DGreedyAbsTest,
    ::testing::Combine(::testing::Values(6, 8, 10, 12),
                       ::testing::Values(3, 5, 7)));

TEST(DGreedyAbsBasicTest, BeatsConventionalOnMaxAbs) {
  const auto data = testing::RandomData(1 << 10, 21, 100.0);
  DGreedyOptions options;
  options.budget = 128;
  options.base_leaves = 128;
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  const double conv = MaxAbsError(data, ConventionalSynopsis(data, 128));
  EXPECT_LE(MaxAbsError(data, r.synopsis), conv + 1e-9);
}

TEST(DGreedyAbsBasicTest, FullBudgetLossless) {
  const auto data = testing::RandomData(1 << 8, 22, 50.0);
  DGreedyOptions options;
  options.budget = 1 << 8;
  options.base_leaves = 32;
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  EXPECT_NEAR(MaxAbsError(data, r.synopsis), 0.0, 1e-9);
  EXPECT_NEAR(r.estimated_error, 0.0, 1e-9);
}

TEST(DGreedyAbsBasicTest, ZeroBudget) {
  const auto data = testing::RandomData(1 << 8, 23, 50.0);
  DGreedyOptions options;
  options.budget = 0;
  options.base_leaves = 32;
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  EXPECT_EQ(r.synopsis.size(), 0);
  double max_abs = 0.0;
  for (double v : data) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_NEAR(MaxAbsError(data, r.synopsis), max_abs, 1e-9);
}

TEST(DGreedyAbsBasicTest, RunsThreeJobs) {
  const auto data = testing::RandomData(1 << 8, 24, 50.0);
  DGreedyOptions options;
  options.budget = 32;
  options.base_leaves = 32;
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  EXPECT_EQ(r.report.total_jobs(), 3);  // transform, histogram, construct
  EXPECT_GT(r.report.driver_seconds, 0.0);
}

TEST(DGreedyAbsBucketTest, WiderBucketsShrinkTraffic) {
  // Algorithm 3: a wider e_b compacts more discards per emitted key-value.
  const auto data = testing::RandomData(1 << 11, 25, 100.0);
  DGreedyOptions tight;
  tight.budget = 256;
  tight.base_leaves = 256;
  tight.bucket_width = 1e-9;
  DGreedyOptions wide = tight;
  wide.bucket_width = 10.0;
  const DGreedyResult r_tight = DGreedyAbs(data, tight, FastCluster());
  const DGreedyResult r_wide = DGreedyAbs(data, wide, FastCluster());
  // Each (candidate, base) record carries the whole bucketed frontier, so
  // the compaction shows in the bytes, not the record count.
  EXPECT_LT(r_wide.report.jobs[1].shuffle_bytes,
            r_tight.report.jobs[1].shuffle_bytes);
  // Quality degrades at most ~e_b relative to the tight run.
  EXPECT_LE(MaxAbsError(data, r_wide.synopsis),
            MaxAbsError(data, r_tight.synopsis) + 3 * 10.0);
}

TEST(DGreedyAbsBucketTest, PiecewiseDataIsCompacted) {
  // On piecewise-constant data most coefficients die at the same (zero-ish)
  // error, so whole sub-trees compact into single key-values (Section 6.2's
  // I/O-efficiency discussion).
  const auto data = testing::PiecewiseData(1 << 11, 26, 100.0);
  DGreedyOptions options;
  options.budget = 256;
  options.base_leaves = 256;
  options.bucket_width = 1.0;
  metrics::Registry registry;
  metrics::ScopedRegistry scoped(&registry);
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  // Without compaction the histogram job would ship one frontier point per
  // coefficient per candidate C_root (~ (kmax+1) * n points).
  EXPECT_LT(registry
                .GetGauge("dwm_dgreedy_frontier_points", "",
                          {{"algo", "dgreedy_abs"}})
                ->value(),
            2 * (1 << 11));
}

// Level 1 ships one histogram record per (candidate |C_root| = s, base t)
// and one construct record per base, whatever the frontiers' lengths.
TEST(DGreedyRecordShapeTest, OneRecordPerCandidateAndBase) {
  const int64_t n = int64_t{1} << 10;
  const auto data = testing::PiecewiseData(n, /*seed=*/27, 100.0);
  for (const bool relative : {false, true}) {
    for (const int64_t budget : {8, 64}) {  // kmax = budget, then kmax = R
      DGreedyOptions options;
      options.budget = budget;
      options.base_leaves = 64;
      const int64_t num_base = n / options.base_leaves;
      const int64_t kmax = std::min(num_base, budget);
      const DGreedyResult r =
          relative ? DGreedyRel(data, options, /*sanity=*/1.0, FastCluster())
                   : DGreedyAbs(data, options, FastCluster());
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_EQ(r.report.jobs.size(), 3u);
      EXPECT_EQ(r.report.jobs[1].shuffle_records, num_base * (kmax + 1))
          << "relative=" << relative << " budget=" << budget;
      EXPECT_EQ(r.report.jobs[2].shuffle_records, num_base)
          << "relative=" << relative << " budget=" << budget;
    }
  }
}

// Once C_s holds every root ancestor of base t (at the latest at s = kmax
// = R) the incoming error is exactly 0.0, not the rounding residue of the
// running subtraction; before that it is the running sum, bit for bit.
TEST(DGreedyIncomingErrorTest, ZeroOnceEveryAncestorIsRetained) {
  const TreePartition partition = MakeTreePartition(1 << 8, 16);
  const int64_t r = partition.num_base;  // 16 root nodes, kmax = R below
  const std::vector<double> root_coeffs =
      ForwardHaar(testing::RandomData(r, /*seed=*/31, 1000.0));
  std::vector<int64_t> discard_order;
  for (int64_t i = 0; i < r; ++i) discard_order.push_back((5 * i + 3) % r);
  bool residue_seen = false;
  for (int64_t t = 0; t < r; ++t) {
    const std::vector<double> e_in = dgreedy_internal::IncomingErrors(
        partition, t, root_coeffs, discard_order, /*kmax=*/r);
    ASSERT_EQ(e_in.size(), static_cast<size_t>(r + 1));
    std::set<int64_t> discarded_ancestors = {0};
    for (int64_t v = (r + t) / 2; v >= 1; v /= 2) discarded_ancestors.insert(v);
    double running = 0.0;
    for (int64_t a = 0; a < r; ++a) {
      running += IncomingErrorContribution(partition, t, a,
                                           root_coeffs[static_cast<size_t>(a)]);
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(e_in[0]),
              std::bit_cast<uint64_t>(running));
    for (int64_t s = 1; s <= r; ++s) {
      const int64_t retained = discard_order[static_cast<size_t>(r - s)];
      running -= IncomingErrorContribution(
          partition, t, retained, root_coeffs[static_cast<size_t>(retained)]);
      discarded_ancestors.erase(retained);
      const double got = e_in[static_cast<size_t>(s)];
      if (discarded_ancestors.empty()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got), uint64_t{0})
            << "t=" << t << " s=" << s << " e_in=" << got;
        residue_seen = residue_seen || running != 0.0;
      } else {
        EXPECT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(running))
            << "t=" << t << " s=" << s;
      }
    }
  }
  // The data must leave a residue somewhere, or the test proves nothing.
  EXPECT_TRUE(residue_seen);
}

class DGreedyRelTest : public ::testing::TestWithParam<int> {};

TEST_P(DGreedyRelTest, QualityTracksCentralizedGreedyRel) {
  const int64_t n = int64_t{1} << GetParam();
  const int64_t b = n / 8;
  const double sanity = 1.0;
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n) + 9, 80.0);
  DGreedyOptions options;
  options.budget = b;
  options.base_leaves = std::max<int64_t>(8, n / 16);
  const DGreedyResult dist = DGreedyRel(data, options, sanity, FastCluster());
  EXPECT_LE(dist.synopsis.size(), b);
  const double dist_err = MaxRelError(data, dist.synopsis, sanity);
  const double central_err = GreedyRel(data, b, sanity).max_rel_error;
  EXPECT_LE(dist_err, 2.0 * central_err + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DGreedyRelTest, ::testing::Values(6, 8, 10));

class DGreedyEstimateTest : public ::testing::TestWithParam<int> {};

TEST_P(DGreedyEstimateTest, HistogramEstimateTracksMeasuredError) {
  // The level-2 estimate is a bucket floor of the error the construct job
  // realizes: measured is within [estimate, estimate + e_b] up to fp noise.
  const int64_t n = int64_t{1} << GetParam();
  const double eb = 0.5;
  const auto data = testing::RandomData(n, static_cast<uint64_t>(7 * n), 90.0);
  DGreedyOptions options;
  options.budget = n / 8;
  options.base_leaves = n / 8;
  options.bucket_width = eb;
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  const double measured = MaxAbsError(data, r.synopsis);
  EXPECT_GE(measured, r.estimated_error - 1e-9);
  EXPECT_LE(measured, r.estimated_error + eb + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DGreedyEstimateTest,
                         ::testing::Values(6, 8, 10, 12));

TEST(DGreedyAbsPartitionInvariance, QualityStableAcrossBaseSizes) {
  // Different base sub-tree sizes change the work partitioning, not the
  // data; the achieved error should stay in a narrow band.
  const int64_t n = 1 << 10;
  const auto data = testing::RandomData(n, 99, 70.0);
  DGreedyOptions options;
  options.budget = n / 8;
  double best = std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (int64_t base : {8, 32, 128, 512}) {
    options.base_leaves = base;
    const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
    const double err = MaxAbsError(data, r.synopsis);
    best = std::min(best, err);
    worst = std::max(worst, err);
  }
  EXPECT_LE(worst, 2.0 * best + 1e-9);
}

}  // namespace
}  // namespace dwm
