#include "core/min_haar_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/exact_small.h"
#include "data/generators.h"
#include "test_util.h"
#include "wavelet/error_tree.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

TEST(MhsRowTest, PairRowWindowAndCells) {
  // Pair (10, 14): avg 12. eps = 1, quantum = 1 -> window {11, 12, 13}.
  const mhs::Row row = mhs::PairRow(10, 14, 1.0, 1.0);
  ASSERT_TRUE(row.feasible());
  EXPECT_EQ(row.lo, 11);
  EXPECT_EQ(row.hi(), 13);
  // No v can satisfy both leaves directly (|10-14| > 2*eps): all count 1.
  for (int64_t g = 11; g <= 13; ++g) {
    const mhs::Cell* c = row.Find(g);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->count, 1);
    EXPECT_NEAR(c->err, std::abs(static_cast<double>(g) - 12.0), 1e-12);
  }
}

TEST(MhsRowTest, PairRowDirectFeasibility) {
  // Pair (10, 11) with eps = 2: v in [8.5+... ] many cells need 0 coeffs.
  const mhs::Row row = mhs::PairRow(10, 11, 2.0, 1.0);
  const mhs::Cell* at10 = row.Find(10);
  ASSERT_NE(at10, nullptr);
  EXPECT_EQ(at10->count, 0);
  EXPECT_NEAR(at10->err, 1.0, 1e-12);  // max(|10-10|, |10-11|)
}

TEST(MhsRowTest, PairRowInfeasibleWhenGridTooCoarse) {
  // eps = 0.3, quantum = 10: window around avg=12 of width 0.6 holds no
  // multiple of 10.
  const mhs::Row row = mhs::PairRow(10, 14, 0.3, 10.0);
  EXPECT_FALSE(row.feasible());
}

TEST(MhsRowTest, FindOutsideWindow) {
  const mhs::Row row = mhs::PairRow(10, 14, 1.0, 1.0);
  EXPECT_EQ(row.Find(10), nullptr);
  EXPECT_EQ(row.Find(14), nullptr);
}

TEST(MhsRowTest, CombinePreservesWindowAveraging) {
  const mhs::Row l = mhs::PairRow(0, 2, 2.0, 1.0);    // window centered 1
  const mhs::Row r = mhs::PairRow(10, 12, 2.0, 1.0);  // window centered 11
  const mhs::Row parent = mhs::CombineRows(l, r);
  ASSERT_TRUE(parent.feasible());
  // Parent window centered at (1+11)/2 = 6 with half-width ~2.
  EXPECT_GE(parent.lo, 4);
  EXPECT_LE(parent.hi(), 8);
  const mhs::Cell* mid = parent.Find(6);
  ASSERT_NE(mid, nullptr);
  // v=6: must retain the node (children incoming 6 is outside both pair
  // windows without correction) => the node plus possibly children.
  EXPECT_GE(mid->count, 1);
}

TEST(MinHaarSpaceTest, RespectsErrorBound) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const auto data = testing::RandomData(64, seed, 50.0);
    for (double eps : {2.0, 5.0, 20.0}) {
      const MhsResult r = MinHaarSpace(data, {eps, 0.25});
      ASSERT_TRUE(r.feasible);
      EXPECT_LE(MaxAbsError(data, r.synopsis), eps + 1e-9)
          << "seed=" << seed << " eps=" << eps;
      EXPECT_NEAR(r.max_abs_error, MaxAbsError(data, r.synopsis), 1e-9);
    }
  }
}

TEST(MinHaarSpaceTest, CountMonotoneInEps) {
  const auto data = testing::RandomData(128, 4, 100.0);
  int64_t prev = std::numeric_limits<int64_t>::max();
  for (double eps : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const MhsResult r = MinHaarSpace(data, {eps, 0.5});
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.count, prev);
    prev = r.count;
  }
}

TEST(MinHaarSpaceTest, HugeEpsNeedsNothing) {
  const auto data = testing::RandomData(32, 7, 10.0);
  const MhsResult r = MinHaarSpace(data, {1000.0, 1.0});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.count, 0);
}

TEST(MinHaarSpaceTest, EpsZeroReconstructsExactlyOnGridData) {
  // Integer data on an integer grid: eps=0 must reproduce the data exactly.
  const std::vector<double> data = {5, 5, 0, 26, 1, 3, 14, 2};
  const MhsResult r = MinHaarSpace(data, {0.0, 1.0});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(MaxAbsError(data, r.synopsis), 0.0, 1e-9);
}

TEST(MinHaarSpaceTest, InfeasibleWhenQuantumTooCoarse) {
  // Section 6.2: delta much larger than the space to quantize.
  const auto data = testing::RandomData(32, 9, 10.0);
  const MhsResult r = MinHaarSpace(data, {0.01, 1000.0});
  EXPECT_FALSE(r.feasible);
}

TEST(MinHaarSpaceTest, UnrestrictedBeatsRestrictedOptimum) {
  // For the error achieved by the exact restricted optimum with budget B,
  // MinHaarSpace (unrestricted, fine grid) needs at most B coefficients.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const auto data = testing::RandomData(16, 60 + seed, 20.0);
    for (int64_t b : {2, 4, 6}) {
      const ExactResult exact = ExactOptimalRestricted(data, b);
      const MhsResult r =
          MinHaarSpace(data, {exact.max_abs_error + 1e-6, 0.01});
      ASSERT_TRUE(r.feasible);
      EXPECT_LE(r.count, b) << "seed=" << seed << " b=" << b;
    }
  }
}

TEST(MinHaarSpaceTest, SmallestDomain) {
  const std::vector<double> data = {8.0, 2.0};
  const MhsResult tight = MinHaarSpace(data, {0.0, 1.0});
  ASSERT_TRUE(tight.feasible);
  EXPECT_EQ(tight.count, 2);  // needs average 5 and detail 3
  EXPECT_NEAR(MaxAbsError(data, tight.synopsis), 0.0, 1e-9);
  const MhsResult loose = MinHaarSpace(data, {3.0, 1.0});
  ASSERT_TRUE(loose.feasible);
  EXPECT_EQ(loose.count, 1);  // v=5 within 3 of both
  const MhsResult free = MinHaarSpace(data, {8.0, 1.0});
  ASSERT_TRUE(free.feasible);
  EXPECT_EQ(free.count, 0);
}

class MhsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MhsPropertyTest, BoundAndReportingHold) {
  const int64_t n = int64_t{1} << std::get<0>(GetParam());
  const double eps = std::get<1>(GetParam());
  const auto data = testing::PiecewiseData(n, static_cast<uint64_t>(n), 60.0);
  const MhsResult r = MinHaarSpace(data, {eps, 0.5});
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(MaxAbsError(data, r.synopsis), eps + 1e-9);
  EXPECT_NEAR(r.max_abs_error, MaxAbsError(data, r.synopsis), 1e-9);
  EXPECT_EQ(r.count, r.synopsis.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MhsPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 8, 10),
                       ::testing::Values(1.0, 4.0, 15.0)));

void ExpectRowsEqual(const mhs::Row& got, const mhs::Row& want,
                     const std::string& what) {
  ASSERT_EQ(got.cells.size(), want.cells.size()) << what;
  if (got.cells.empty()) return;  // both infeasible: lo is meaningless
  EXPECT_EQ(got.lo, want.lo) << what;
  for (size_t i = 0; i < got.cells.size(); ++i) {
    EXPECT_EQ(got.cells[i].count, want.cells[i].count)
        << what << " cell " << i;
    EXPECT_EQ(got.cells[i].err, want.cells[i].err) << what << " cell " << i;
  }
}

// Bottom-up fold of CombineRowsReference over the PairRows of a slice: the
// definition ComputeRowOverData and SelectOverData's arena must reproduce.
std::vector<std::vector<mhs::Row>> ReferenceLevels(
    const std::vector<double>& data, double eps, double quantum) {
  std::vector<std::vector<mhs::Row>> levels(1);
  for (size_t u = 0; u < data.size() / 2; ++u) {
    levels[0].push_back(
        mhs::PairRow(data[2 * u], data[2 * u + 1], eps, quantum));
  }
  while (levels.back().size() > 1) {
    const std::vector<mhs::Row>& below = levels.back();
    std::vector<mhs::Row> next(below.size() / 2);
    for (size_t i = 0; i < next.size(); ++i) {
      next[i] = mhs::CombineRowsReference(below[2 * i], below[2 * i + 1]);
    }
    levels.push_back(std::move(next));
  }
  return levels;
}

TEST(MhsArenaTest, RowHeapMatchesReferenceCombineOnFig5Family) {
  // The fig5c/5d input family (SYN uniform [0, 1K]) at the micro-suite
  // delta settings: every row of the arena build must equal — cell for
  // cell, bit for bit — the level-by-level fold of CombineRowsReference.
  for (const double quantum : {5.0, 0.5}) {
    const auto data = MakeUniform(256, 1000.0, /*seed=*/1);
    const auto levels = ReferenceLevels(data, 50.0, quantum);
    const mhs::RowHeap rows = mhs::BuildRowHeap(levels[0]);
    // Each level's slots [base, 2 * base) hold that level's rows in order.
    int64_t slot_base = rows.width();
    for (const std::vector<mhs::Row>& level : levels) {
      for (size_t i = 0; i < level.size(); ++i) {
        const int64_t slot = slot_base + static_cast<int64_t>(i);
        ExpectRowsEqual(rows.CopyRow(slot), level[i],
                        "quantum=" + std::to_string(quantum) +
                            " slot=" + std::to_string(slot));
      }
      slot_base /= 2;
    }
  }
}

TEST(MhsSliceTest, ComputeRowOverDataMatchesReferenceFold) {
  for (const int64_t len : {2, 4, 256, 4096}) {
    for (const double quantum : {5.0, 0.5}) {
      const auto data = MakeUniform(len, 1000.0, /*seed=*/3);
      const mhs::Row got =
          mhs::ComputeRowOverData(data.data(), len, 50.0, quantum);
      ASSERT_TRUE(got.feasible());
      ExpectRowsEqual(got, ReferenceLevels(data, 50.0, quantum).back()[0],
                      "len=" + std::to_string(len) +
                          " quantum=" + std::to_string(quantum));
    }
  }
  // Grid too coarse mid-tree: every pair row is feasible (0 and 1 are grid
  // points), but the parent of pairs (0, 0) and (1, 1) averages the windows
  // {0} and {1} to no grid point, so the slice root is infeasible.
  std::vector<double> data(256, 0.0);
  data[130] = data[131] = 1.0;
  const auto levels = ReferenceLevels(data, 0.3, 1.0);
  ASSERT_TRUE(levels[0][65].feasible());
  ASSERT_FALSE(levels[1][32].feasible());
  const mhs::Row got = mhs::ComputeRowOverData(data.data(), 256, 0.3, 1.0);
  EXPECT_FALSE(got.feasible());
  EXPECT_EQ(got.lo, 0);
  ExpectRowsEqual(got, levels.back()[0], "mid-tree infeasible");
}

TEST(MhsSliceTest, SelectOverDataMatchesHeapWalk) {
  // 4 and 8 are the smallest slices with a level-1 node and with a level
  // above it; 2 is the one-pair slice SelectOverData decides directly.
  for (const int64_t len : {2, 4, 8, 256, 4096}) {
    for (const double quantum : {5.0, 0.5}) {
      const auto data = MakeUniform(len, 1000.0, /*seed=*/4);
      const double eps = 50.0;
      const std::string what = "len=" + std::to_string(len) +
                               " quantum=" + std::to_string(quantum);
      const auto levels = ReferenceLevels(data, eps, quantum);
      const mhs::RowHeap rows = mhs::BuildRowHeap(levels[0]);
      if (len >= 4) {
        // The arena SelectOverData walks holds exactly the rows of levels
        // >= 1: level k's rows in slots [len / 2^(k+2), len / 2^(k+1)).
        const mhs::RowHeap direct =
            mhs::BuildRowHeapOverData(data.data(), len, eps, quantum);
        ASSERT_EQ(direct.width(), len / 4) << what;
        int64_t slot_base = direct.width();
        for (size_t k = 1; k < levels.size(); ++k, slot_base /= 2) {
          for (size_t i = 0; i < levels[k].size(); ++i) {
            const int64_t slot = slot_base + static_cast<int64_t>(i);
            ExpectRowsEqual(direct.CopyRow(slot), levels[k][i],
                            what + " slot=" + std::to_string(slot));
          }
        }
      }
      const mhs::Row root = rows.CopyRow(1);
      ASSERT_TRUE(root.feasible()) << what;
      const int64_t root_global = 5;
      // Every incoming value up to 256 leaves; about nine spread over the
      // root window at 4096, where each walk rebuilds the whole slice.
      const int64_t step =
          len > 256 ? std::max<int64_t>(1, (root.hi() - root.lo) / 8) : 1;
      for (int64_t v = root.lo; v <= root.hi(); v += step) {
        if (!root.Find(v)->feasible()) continue;
        std::vector<Coefficient> want;
        mhs::SelectInHeap(
            rows, root_global, quantum, /*slot=*/1, v, &want,
            [&](int64_t u, int64_t pv) {
              const mhs::Cell* cell = rows.Find(rows.width() + u, pv);
              ASSERT_NE(cell, nullptr);
              if (cell->count == 1) {
                want.push_back(
                    {LocalToGlobal(root_global, rows.width() + u),
                     (data[static_cast<size_t>(2 * u)] -
                      data[static_cast<size_t>(2 * u + 1)]) /
                         2.0});
              }
            });
        std::vector<Coefficient> got;
        mhs::SelectOverData(data.data(), len, root_global, eps, quantum, v,
                            &got);
        ASSERT_EQ(got.size(), want.size()) << what << " v=" << v;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].index, want[i].index) << what << " v=" << v;
          EXPECT_EQ(got[i].value, want[i].value) << what << " v=" << v;
        }
      }
    }
  }
}

TEST(MhsGridTest, PairRowAtExtremeValueToQuantumRatios) {
  // Regression for the grid conversion: with |avg/quantum| around 1e13 an
  // absolute 1e-9 slack is far below one ulp, so an exactly-on-grid window
  // endpoint must still land on its grid point (relative slack), and the
  // int64 conversion must be range-checked, not raw.
  {
    // avg = 12345678 * 5 sits exactly on the grid; eps = 0 keeps only it.
    const double avg = 61728390.0;
    const mhs::Row row = mhs::PairRow(avg, avg, 0.0, 5.0);
    ASSERT_TRUE(row.feasible());
    EXPECT_EQ(row.lo, 12345678);
    EXPECT_EQ(row.hi(), 12345678);
    EXPECT_EQ(row.cells[0].count, 0);  // both leaves equal the grid value
  }
  {
    // Same magnitude, off-grid bound: the window still spans ~2*eps/quantum
    // grid points around avg and every kept endpoint truly meets the bound.
    const double a = 61728391.25;
    const double b = 61728388.75;  // avg 61728390.0, eps covers both
    const mhs::Row row = mhs::PairRow(a, b, 2.0, 0.25);
    ASSERT_TRUE(row.feasible());
    const double avg = (a + b) / 2.0;
    EXPECT_GE(static_cast<double>(row.lo) * 0.25, avg - 2.0 - 1e-6);
    EXPECT_LE(static_cast<double>(row.hi()) * 0.25, avg + 2.0 + 1e-6);
    EXPECT_GT(row.cells.size(), 8u);  // ~17 grid points fit the window
  }
  {
    // Ratio far beyond int64: the conversion clamps (no UB) and the row
    // degrades to infeasible — "grid too coarse", never wrap-around.
    const mhs::Row row = mhs::PairRow(1e300, 1e300, 1.0, 1e-300);
    EXPECT_FALSE(row.feasible());
  }
  {
    // Same on the negative side (x/quantum overflows to -inf).
    const mhs::Row row = mhs::PairRow(-1e300, -1e300, 1.0, 1e-300);
    EXPECT_FALSE(row.feasible());
  }
  {
    // The arena builder's counting pass sees the same clamped windows: it
    // sizes the arena from them, never from eps/quantum, and the level-1
    // row over the two clamped pairs degrades to infeasible.
    const std::vector<double> data = {1e300, 1e300, -1e300, -1e300};
    const mhs::RowHeap rows =
        mhs::BuildRowHeapOverData(data.data(), 4, 1.0, 1e-300);
    ASSERT_EQ(rows.width(), 1);
    EXPECT_FALSE(rows.feasible(1));
  }
}

}  // namespace
}  // namespace dwm
