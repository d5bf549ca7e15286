#include "dist/dgreedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/conventional.h"
#include "core/greedy_abs.h"
#include "core/greedy_rel.h"
#include "data/generators.h"
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

// Level-2 worker w owns the contiguous candidate sizes
// [CandidateBlockBegin(w), CandidateBlockBegin(w + 1)); block lengths
// differ by at most one, the longer blocks first.
TEST(DGreedyCandidateBlockTest, ContiguousBlocksDifferByAtMostOne) {
  std::vector<int64_t> begins;
  for (int64_t w = 0; w <= 4; ++w) {
    begins.push_back(dgreedy_internal::CandidateBlockBegin(w, 9, 4));
  }
  EXPECT_EQ(begins, (std::vector<int64_t>{0, 3, 5, 7, 9}));
  for (int64_t candidates = 1; candidates <= 70; ++candidates) {
    for (int64_t workers = 1; workers <= candidates; ++workers) {
      EXPECT_EQ(dgreedy_internal::CandidateBlockBegin(0, candidates, workers),
                0);
      EXPECT_EQ(
          dgreedy_internal::CandidateBlockBegin(workers, candidates, workers),
          candidates);
      int64_t previous = candidates;
      for (int64_t w = 0; w < workers; ++w) {
        const int64_t length =
            dgreedy_internal::CandidateBlockBegin(w + 1, candidates, workers) -
            dgreedy_internal::CandidateBlockBegin(w, candidates, workers);
        EXPECT_GE(length, candidates / workers);
        EXPECT_LE(length, (candidates + workers - 1) / workers);
        EXPECT_LE(length, previous);
        previous = length;
      }
    }
  }
}

// The driver's root pass, restated: every base's incoming error for each
// candidate size s = 0..kmax.
std::vector<std::vector<double>> IncomingErrorsByBase(
    const std::vector<double>& data, int64_t base_leaves, int64_t kmax,
    bool relative, double sanity) {
  const TreePartition partition =
      MakeTreePartition(static_cast<int64_t>(data.size()), base_leaves);
  std::vector<double> averages;
  std::vector<double> min_weights;
  for (int64_t t = 0; t < partition.num_base; ++t) {
    averages.push_back(partition.LocalTransform(data, t)[0]);
    double min_weight = std::numeric_limits<double>::infinity();
    for (int64_t i = 0; i < base_leaves; ++i) {
      const double x =
          data[static_cast<size_t>(partition.SliceBegin(t) + i)];
      min_weight = std::min(min_weight, std::max(std::abs(x), sanity));
    }
    min_weights.push_back(relative ? min_weight : 1.0);
  }
  const std::vector<double> root_coeffs = ForwardHaar(averages);
  const std::vector<HeapDiscardEvent> events =
      relative ? testing::AllDiscards(
                     GreedyRelTree(root_coeffs, true, 0.0, min_weights))
               : testing::AllDiscards(GreedyAbsTree(root_coeffs, true, 0.0));
  std::vector<int64_t> discard_order;
  for (const HeapDiscardEvent& e : events) discard_order.push_back(e.slot);
  std::vector<std::vector<double>> by_base;
  for (int64_t t = 0; t < partition.num_base; ++t) {
    by_base.push_back(dgreedy_internal::IncomingErrors(
        partition, t, root_coeffs, discard_order, kmax));
  }
  return by_base;
}

// Histogram records: one per (base, incoming-error group, level-2 worker
// whose block holds a size of the group).
int64_t ExpectedHistRecords(const std::vector<std::vector<double>>& by_base,
                            int64_t workers) {
  int64_t records = 0;
  for (const std::vector<double>& e_in : by_base) {
    const auto candidates = static_cast<int64_t>(e_in.size());
    std::map<double, std::set<int64_t>> group_workers;
    for (int64_t s = 0; s < candidates; ++s) {
      int64_t w = 0;
      while (dgreedy_internal::CandidateBlockBegin(w + 1, candidates,
                                                   workers) <= s) {
        ++w;
      }
      group_workers[e_in[static_cast<size_t>(s)]].insert(w);
    }
    for (const auto& [incoming, ws] : group_workers) {
      records += static_cast<int64_t>(ws.size());
    }
  }
  return records;
}

// Level 1 ships one histogram record per (base, incoming-error group,
// level-2 worker) and one construct record per base, whatever the
// frontiers' lengths.
TEST(DGreedyRecordShapeTest, OneRecordPerBaseGroupAndWorker) {
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
      const int64_t expected = ExpectedHistRecords(
          IncomingErrorsByBase(data, options.base_leaves, kmax, relative,
                               /*sanity=*/1.0),
          options.level2_workers);
      EXPECT_EQ(r.report.jobs[1].shuffle_records, expected)
          << "relative=" << relative << " budget=" << budget;
      // Fewer than one record per (candidate, base).
      EXPECT_LT(expected, num_base * (kmax + 1));
      EXPECT_EQ(r.report.jobs[2].shuffle_records, num_base)
          << "relative=" << relative << " budget=" << budget;
    }
  }
}

// Whether there are fewer candidates than level-2 workers, as many or more,
// each candidate size is combined exactly once, and the synopsis does not
// depend on how the candidates are split among the workers.
TEST(DGreedyRecordShapeTest, EveryCandidateCombinedOnce) {
  const int64_t n = int64_t{1} << 10;
  const auto data = testing::RandomData(n, /*seed=*/28, 100.0);
  for (const int64_t budget : {0, 3, 8, 64}) {  // 1, 4, 9, 65 candidates
    std::vector<uint8_t> one_worker;
    for (const int workers : {1, 4, 9, 100}) {
      metrics::Registry registry;
      metrics::ScopedRegistry scoped(&registry);
      DGreedyOptions options;
      options.budget = budget;
      options.base_leaves = 16;  // R = 64
      options.level2_workers = workers;
      const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(registry
                    .GetGauge("dwm_dgreedy_croot_candidates", "",
                              {{"algo", "dgreedy_abs"}})
                    ->value(),
                static_cast<double>(budget + 1))
          << "budget=" << budget << " workers=" << workers;
      const std::vector<uint8_t> bytes = testing::SynopsisBytes(r.synopsis);
      if (workers == 1) one_worker = bytes;
      EXPECT_EQ(bytes, one_worker)
          << "budget=" << budget << " workers=" << workers;
    }
  }
}

// Equal incoming errors can recur at non-adjacent s: retaining root
// ancestors whose contributions cancel (+c, then -c) brings e_in back. The
// group's record then carries sizes with a gap, which must not be read as
// a range. Hand-built: base averages {0, 0, 4, 0, 0, 0, 0, 0}, each slice
// alternating average +- d_t, so every coefficient and every e_in is
// exact. One size per worker (9 workers for 9 candidates) cannot have a
// gap; one worker holds every gap.
TEST(DGreedyRecordShapeTest, RecurringIncomingErrorMatchesOneWorker) {
  const int64_t base_leaves = 16;
  const std::vector<double> averages = {0, 0, 4, 0, 0, 0, 0, 0};
  std::vector<double> data;
  for (size_t t = 0; t < averages.size(); ++t) {
    const auto detail = static_cast<double>(t * 3 % 5);
    for (int64_t i = 0; i < base_leaves; i += 2) {
      data.push_back(averages[t] + detail);
      data.push_back(averages[t] - detail);
    }
  }
  const auto num_base = static_cast<int64_t>(averages.size());
  bool recurs = false;
  for (const std::vector<double>& e_in : IncomingErrorsByBase(
           data, base_leaves, /*kmax=*/num_base, /*relative=*/false, 1.0)) {
    for (size_t s = 2; s < e_in.size(); ++s) {
      const auto before = e_in.begin() + static_cast<std::ptrdiff_t>(s - 1);
      if (e_in[s] != e_in[s - 1] &&
          std::find(e_in.begin(), before, e_in[s]) != before) {
        recurs = true;
      }
    }
  }
  ASSERT_TRUE(recurs) << "no e_in recurs at a non-adjacent s";
  for (const int64_t budget : {10, 26}) {  // winners s = 1 and s = 2
    DGreedyResult one_worker;
    for (const int workers : {1, 2, 4, 9}) {
      DGreedyOptions options;
      options.budget = budget;
      options.base_leaves = base_leaves;
      options.level2_workers = workers;
      DGreedyResult r = DGreedyAbs(data, options, FastCluster());
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      if (workers == 1) {
        one_worker = std::move(r);
        continue;
      }
      EXPECT_EQ(testing::SynopsisBytes(r.synopsis),
                testing::SynopsisBytes(one_worker.synopsis))
          << "budget=" << budget << " workers=" << workers;
      EXPECT_EQ(r.best_croot_size, one_worker.best_croot_size)
          << "budget=" << budget << " workers=" << workers;
      EXPECT_EQ(r.estimated_error, one_worker.estimated_error)
          << "budget=" << budget << " workers=" << workers;
    }
    EXPECT_GT(one_worker.best_croot_size, 0) << "budget=" << budget;
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

// The online frontier equals the batch walk over the whole event log, point
// for point and bit for bit.
void ExpectFrontierMatchesBatch(const std::vector<HeapDiscardEvent>& events,
                                double baseline, double bucket_width) {
  dgreedy_internal::OnlineFrontier online(baseline, bucket_width);
  for (const HeapDiscardEvent& e : events) online(e);
  const std::vector<dgreedy_internal::FrontierPoint> got =
      std::move(online).Take();
  const std::vector<dgreedy_internal::FrontierPoint> want =
      testing::BatchStateFrontier(events, baseline, bucket_width);
  ASSERT_EQ(got.size(), want.size())
      << events.size() << " events, baseline " << baseline;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i].bucket),
              std::bit_cast<uint64_t>(want[i].bucket))
        << "point " << i;
    ASSERT_EQ(got[i].kept, want[i].kept) << "point " << i;
  }
}

TEST(DGreedyFrontierTest, OnlineMatchesBatchOnRandomEvents) {
  // Errors drawn from a few bucket multiples plus sub-bucket offsets, so
  // many states share a bucketed error; the baseline sits below, among and
  // above the events' errors; the widths include the default 1e-9.
  std::mt19937_64 rng(26);
  for (const double bucket_width : {1e-9, 0.01, 0.5}) {
    for (int round = 0; round < 300; ++round) {
      const auto total = static_cast<int64_t>(rng() % 48);
      std::vector<HeapDiscardEvent> events;
      double lowest = 8.0 * bucket_width;
      double highest = 0.0;
      for (int64_t i = 0; i < total; ++i) {
        const double error =
            (static_cast<double>(rng() % 8) +
             0.25 * static_cast<double>(rng() % 4)) *
            bucket_width;
        lowest = std::min(lowest, error);
        highest = std::max(highest, error);
        events.push_back({i, error});
      }
      for (const double baseline :
           {0.0, lowest, 3.0 * bucket_width, highest,
            highest + 2.0 * bucket_width}) {
        ExpectFrontierMatchesBatch(events, baseline, bucket_width);
      }
    }
  }
}

TEST(DGreedyFrontierTest, OnlineMatchesBatchOnGreedyRuns) {
  // Base-style runs (no average node) under incoming errors, at the
  // default width and at DGreedyAbs's benchmark width.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const auto coeffs = ForwardHaar(testing::RandomData(256, 500 + seed));
    for (const double e_in : {0.0, -40.0, 7.5}) {
      const auto events = testing::AllDiscards(
          GreedyAbsTree(coeffs, /*has_average=*/false, e_in));
      for (const double bucket_width : {1e-9, 0.01}) {
        ExpectFrontierMatchesBatch(events, std::abs(e_in), bucket_width);
      }
    }
  }
}

// dwm_bench's build_dgreedy input at seed 1: uniform N = 2^19, B = N/8,
// L = 2^16, e_b = 0.01. The estimate, the winning |C_root| and the
// synopsis are pinned bit for bit; a change to the discard loop, the
// frontier or the combine step that moves any of them changes what
// DGreedyAbs ships.
TEST(DGreedyPinnedTest, BuildDgreedySeedOne) {
  const int64_t n = int64_t{1} << 19;
  const std::vector<double> data = MakeUniform(n, 1000.0, 1);
  DGreedyOptions options;
  options.budget = n / 8;
  options.base_leaves = int64_t{1} << 16;
  options.bucket_width = 0.01;
  const DGreedyResult r = DGreedyAbs(data, options, FastCluster());
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(r.estimated_error),
            std::bit_cast<uint64_t>(0x1.abb851eb851ecp+8));  // 427.72
  EXPECT_EQ(r.best_croot_size, 1);
  EXPECT_EQ(r.synopsis.size(), 65529);
  EXPECT_EQ(testing::SynopsisHash(r.synopsis), 0x6e2daceb9d05eba5u);
}

// The input on which GreedyRel keys round below zero (−7.3e-12):
// `dwm_cli gen --dataset nyct --n 65536 --seed 3`, built as `dwm_cli
// build --algo greedy-rel` and `dbuild --algo dgreedy-rel` (base leaves
// 256, default e_b) do. Synopses and reported errors are pinned bit for
// bit. Each reported error is also checked against MaxRelError of its
// synopsis. GreedyRel reports an envelope evaluation, which rounds: within
// 1e-12 (it reads 1 + 7.1e-15 against an exact 1 at B = 8192). DGreedyRel
// reports a bucket floor: at most 1e-12 above the measured error and at
// most e_b = 1e-9 (plus 1e-12) below it. At B = 8192, sanity 0.01, both
// keep no coefficient: the empty synopsis's error of 1 wins.
struct RelPin {
  int64_t budget;
  double sanity;
  int64_t size;
  uint64_t hash;
  double error;
};

TEST(GreedyRelPinnedTest, NyctSeedThree) {
  const std::vector<double> data = MakeNyctLike(65536, 3);
  const RelPin greedy[] = {
      {8192, 0.01, 0, 0xa1aca6503d4324eau, 0x1.000000000002p+0},
      {32768, 1.0, 32768, 0xdbb88e4790f44c47u, 0x1.ff67600e2fe5p-1}};
  for (const RelPin& pin : greedy) {
    const GreedyRelResult r = GreedyRel(data, pin.budget, pin.sanity);
    EXPECT_EQ(r.synopsis.size(), pin.size) << pin.budget;
    EXPECT_EQ(testing::SynopsisHash(r.synopsis), pin.hash) << pin.budget;
    EXPECT_EQ(std::bit_cast<uint64_t>(r.max_rel_error),
              std::bit_cast<uint64_t>(pin.error))
        << pin.budget;
    EXPECT_NEAR(r.max_rel_error, MaxRelError(data, r.synopsis, pin.sanity),
                1e-12)
        << pin.budget;
  }
  const RelPin dist[] = {
      {8192, 0.01, 0, 0xa1aca6503d4324eau, 0x1p+0},
      {32768, 1.0, 32768, 0x59a9bc3254171c10u, 0x1.ff0571c01cf75p-1}};
  for (const RelPin& pin : dist) {
    DGreedyOptions options;
    options.budget = pin.budget;
    options.base_leaves = 256;
    const DGreedyResult r =
        DGreedyRel(data, options, pin.sanity, FastCluster());
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.synopsis.size(), pin.size) << pin.budget;
    EXPECT_EQ(testing::SynopsisHash(r.synopsis), pin.hash) << pin.budget;
    EXPECT_EQ(std::bit_cast<uint64_t>(r.estimated_error),
              std::bit_cast<uint64_t>(pin.error))
        << pin.budget;
    const double measured = MaxRelError(data, r.synopsis, pin.sanity);
    EXPECT_LE(r.estimated_error, measured + 1e-12) << pin.budget;
    EXPECT_LE(measured, r.estimated_error + 1e-9 + 1e-12) << pin.budget;
  }
}

}  // namespace
}  // namespace dwm
