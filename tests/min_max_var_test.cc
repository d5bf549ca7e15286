#include "core/min_max_var.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "test_util.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

TEST(MmvPenaltyTest, Formula) {
  // c = 2, q = 4: y=0 -> c^2 = 4; y=1/2 -> 4*(1/2)/(1/2) = 4*(1-y)/y = 4;
  // y=1 -> 0; zero coefficient always free.
  EXPECT_DOUBLE_EQ(mmv::Penalty(2.0, 0, 4), 4.0);
  EXPECT_DOUBLE_EQ(mmv::Penalty(2.0, 2, 4), 4.0);
  EXPECT_DOUBLE_EQ(mmv::Penalty(2.0, 1, 4), 12.0);
  EXPECT_DOUBLE_EQ(mmv::Penalty(2.0, 3, 4), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(mmv::Penalty(2.0, 4, 4), 0.0);
  EXPECT_DOUBLE_EQ(mmv::Penalty(0.0, 0, 4), 0.0);
  EXPECT_DOUBLE_EQ(mmv::Penalty(-2.0, 0, 4), 4.0);
}

TEST(MmvRowTest, BottomRowSpendsOnItself) {
  const mmv::Row row = mmv::BottomRow(3.0, 2, 4);
  ASSERT_EQ(row.cap(), 4);
  EXPECT_DOUBLE_EQ(row.cells[0].v, 9.0);   // y = 0
  EXPECT_DOUBLE_EQ(row.cells[1].v, 9.0);   // y = 1/2
  EXPECT_DOUBLE_EQ(row.cells[2].v, 0.0);   // y = 1
  EXPECT_DOUBLE_EQ(row.cells[4].v, 0.0);
}

TEST(MmvRowTest, CombineSplitsBudgetOptimally) {
  // Node c = 0 with two bottom children c = 3 and c = 4, q = 1: pure 0/1
  // knapsack along paths. b=1 should protect the worse path (drop 3, keep 4
  // -> max(9, 0) = 9).
  const mmv::Row left = mmv::BottomRow(3.0, 1, 2);
  const mmv::Row right = mmv::BottomRow(4.0, 1, 2);
  const mmv::Row parent = mmv::CombineRows(0.0, left, right, 1, 2);
  EXPECT_DOUBLE_EQ(parent.cells[0].v, 16.0);  // both dropped
  EXPECT_DOUBLE_EQ(parent.cells[1].v, 9.0);   // keep the 4
  EXPECT_DOUBLE_EQ(parent.cells[2].v, 0.0);   // keep both
}

TEST(MinMaxVarTest, FullBudgetIsExact) {
  const auto data = testing::RandomData(32, 3, 20.0);
  const MinMaxVarResult r = MinMaxVar(data, {32, 4, 1});
  EXPECT_DOUBLE_EQ(r.max_path_penalty, 0.0);
  EXPECT_NEAR(MaxAbsError(data, r.synopsis), 0.0, 1e-9);
}

TEST(MinMaxVarTest, ZeroBudget) {
  const auto data = testing::RandomData(16, 4, 20.0);
  const MinMaxVarResult r = MinMaxVar(data, {0, 4, 1});
  EXPECT_EQ(r.synopsis.size(), 0);
  EXPECT_EQ(r.expected_space_units, 0);
}

TEST(MinMaxVarTest, PenaltyMonotoneInBudget) {
  const auto data = testing::RandomData(64, 5, 50.0);
  double prev = std::numeric_limits<double>::infinity();
  for (int64_t b : {0, 2, 4, 8, 16, 32, 64}) {
    const MinMaxVarResult r = MinMaxVar(data, {b, 2, 1});
    EXPECT_LE(r.max_path_penalty, prev + 1e-9);
    prev = r.max_path_penalty;
  }
}

TEST(MinMaxVarTest, ExpectedSpaceWithinBudget) {
  const auto data = testing::RandomData(64, 6, 50.0);
  for (int64_t b : {4, 8, 16}) {
    for (int32_t q : {1, 2, 4}) {
      const MinMaxVarResult r = MinMaxVar(data, {b, q, 1});
      EXPECT_LE(r.expected_space_units, b * q);
    }
  }
}

TEST(MinMaxVarTest, DeterministicGivenSeed) {
  const auto data = testing::RandomData(64, 7, 50.0);
  const MinMaxVarResult a = MinMaxVar(data, {8, 4, 99});
  const MinMaxVarResult b = MinMaxVar(data, {8, 4, 99});
  EXPECT_EQ(a.synopsis.coefficients(), b.synopsis.coefficients());
}

TEST(MinMaxVarTest, QEqualsOneIsDeterministicRestrictedThresholding) {
  // With q = 1 the coin never randomizes and coefficients keep their exact
  // values; penalty = worst path's sum of squared dropped coefficients,
  // which upper-bounds the squared max_abs error via Cauchy-Schwarz.
  const auto data = testing::RandomData(64, 8, 40.0);
  const int depth = 7;  // log2(64) + 1 path nodes
  for (int64_t b : {4, 8, 16}) {
    const MinMaxVarResult r = MinMaxVar(data, {b, 1, 1});
    for (const Coefficient& c : r.synopsis.coefficients()) {
      const auto coeffs = ForwardHaar(data);
      EXPECT_DOUBLE_EQ(c.value, coeffs[static_cast<size_t>(c.index)]);
    }
    const double max_abs = MaxAbsError(data, r.synopsis);
    EXPECT_LE(max_abs * max_abs, depth * r.max_path_penalty + 1e-6);
  }
}

TEST(MinMaxVarTest, UnbiasedRounding) {
  // For nodes with y > 0 the estimator stores c/y with probability y, so
  // E[reconstruction] equals the reconstruction from the *expected*
  // synopsis: exact values at allocated nodes, zero at dropped ones
  // (deterministic y = 0 drops are a bias by design, not by rounding).
  const std::vector<double> data = {8, 6, 7, 5, 3, 0, 9, 4};
  const auto coeffs = ForwardHaar(data);
  const MinMaxVarResult pilot = MinMaxVar(data, {4, 4, 1});
  std::vector<Coefficient> expected_coeffs;
  for (const auto& [node, y_units] : pilot.allocations) {
    if (coeffs[static_cast<size_t>(node)] != 0.0) {
      expected_coeffs.push_back({node, coeffs[static_cast<size_t>(node)]});
    }
  }
  const std::vector<double> expected =
      Synopsis(8, expected_coeffs).Reconstruct();

  const int trials = 4000;
  std::vector<double> mean(8, 0.0);
  for (int seed = 0; seed < trials; ++seed) {
    const MinMaxVarResult r =
        MinMaxVar(data, {4, 4, static_cast<uint64_t>(seed)});
    // The DP choices are seed-independent; only the coins differ.
    ASSERT_EQ(r.allocations, pilot.allocations);
    const std::vector<double> rec = r.synopsis.Reconstruct();
    for (int i = 0; i < 8; ++i) {
      mean[static_cast<size_t>(i)] += rec[static_cast<size_t>(i)];
    }
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(mean[static_cast<size_t>(i)] / trials,
                expected[static_cast<size_t>(i)], 0.6)
        << "i=" << i;
  }
}

TEST(MinMaxVarTest, FinerResolutionNeverHurtsThePenalty) {
  const auto data = testing::RandomData(32, 9, 30.0);
  const double q1 = MinMaxVar(data, {8, 1, 1}).max_path_penalty;
  const double q2 = MinMaxVar(data, {8, 2, 1}).max_path_penalty;
  const double q4 = MinMaxVar(data, {8, 4, 1}).max_path_penalty;
  EXPECT_LE(q2, q1 + 1e-9);
  EXPECT_LE(q4, q2 + 1e-9);
}

// The wall is n * (B q + 1) <= 2^26 cells: the returned budget fits and
// one more does not (65536 values: B = 255 at q = 4, so 256 is refused).
TEST(MinMaxVarTest, MaxBudgetIsTheMemoryWall) {
  constexpr int64_t kWall = int64_t{1} << 26;
  EXPECT_EQ(MinMaxVarMaxBudget(65536, 4), 255);
  EXPECT_EQ(MinMaxVarMaxBudget(kWall, 4), 0);
  EXPECT_EQ(MinMaxVarMaxBudget(2 * kWall, 1), -1);
  for (const int64_t n : {int64_t{2}, int64_t{1024}, int64_t{65536},
                          int64_t{1} << 20}) {
    for (const int32_t q : {1, 4, 7}) {
      const int64_t b = MinMaxVarMaxBudget(n, q);
      EXPECT_LE(n * (b * q + 1), kWall) << n << " " << q;
      EXPECT_GT(n * ((b + 1) * q + 1), kWall) << n << " " << q;
    }
  }
}

}  // namespace
}  // namespace dwm
