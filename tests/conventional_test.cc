#include "core/conventional.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

TEST(ConventionalTest, BudgetRespected) {
  const auto data = testing::RandomData(128, 1);
  for (int64_t b : {0, 1, 5, 64, 128, 1000}) {
    const Synopsis s = ConventionalSynopsis(data, b);
    EXPECT_LE(s.size(), std::min<int64_t>(b, 128));
  }
}

TEST(ConventionalTest, FullBudgetIsLossless) {
  const auto data = testing::RandomData(64, 2);
  const Synopsis s = ConventionalSynopsis(data, 64);
  EXPECT_NEAR(MaxAbsError(data, s), 0.0, 1e-9);
}

TEST(ConventionalTest, ZeroBudgetIsEmpty) {
  const auto data = testing::RandomData(64, 3);
  EXPECT_EQ(ConventionalSynopsis(data, 0).size(), 0);
}

TEST(ConventionalTest, DropsZeroCoefficients) {
  // Constant data: only the average is nonzero.
  const std::vector<double> data(32, 5.0);
  const Synopsis s = ConventionalSynopsis(data, 10);
  ASSERT_EQ(s.size(), 1);
  EXPECT_EQ(s.coefficients()[0].index, 0);
  EXPECT_DOUBLE_EQ(s.coefficients()[0].value, 5.0);
}

TEST(ConventionalTest, PicksLargestNormalizedCoefficients) {
  // Hand-built coefficient array where normalization decides the ranking:
  // c4 (level 2, |4|) has significance 4/2 = 2; c1 (level 0, |3|) has 3.
  const std::vector<double> coeffs = {0.0, 3.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0};
  const Synopsis s = ConventionalFromCoeffs(coeffs, 1);
  ASSERT_EQ(s.size(), 1);
  EXPECT_EQ(s.coefficients()[0].index, 1);
  const Synopsis s2 = ConventionalFromCoeffs(coeffs, 2);
  EXPECT_EQ(s2.size(), 2);
}

TEST(ConventionalTest, MinimizesL2AmongSameSizeSynopses) {
  // The conventional synopsis is L2-optimal: check against all single-drop
  // alternatives at budget n-1 and random subsets at small n.
  const auto data = testing::RandomData(16, 4);
  const auto coeffs = ForwardHaar(data);
  const Synopsis best = ConventionalFromCoeffs(coeffs, 8);
  const double best_l2 = L2Error(data, best);
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Coefficient> cs;
    std::vector<int64_t> index(16);
    for (int64_t i = 0; i < 16; ++i) index[static_cast<size_t>(i)] = i;
    // Random 8-subset.
    for (int64_t i = 0; i < 8; ++i) {
      const int64_t j = i + static_cast<int64_t>(
                                rng.NextBounded(static_cast<uint64_t>(16 - i)));
      std::swap(index[static_cast<size_t>(i)], index[static_cast<size_t>(j)]);
      const int64_t idx = index[static_cast<size_t>(i)];
      if (coeffs[static_cast<size_t>(idx)] != 0.0) {
        cs.push_back({idx, coeffs[static_cast<size_t>(idx)]});
      }
    }
    const Synopsis other(16, std::move(cs));
    EXPECT_LE(best_l2, L2Error(data, other) + 1e-9);
  }
}

TEST(ConventionalTest, ErrorMonotoneInBudget) {
  const auto data = testing::PiecewiseData(256, 6);
  double prev = std::numeric_limits<double>::infinity();
  for (int64_t b : {4, 8, 16, 32, 64, 128, 256}) {
    const double l2 = L2Error(data, ConventionalSynopsis(data, b));
    EXPECT_LE(l2, prev + 1e-9);
    prev = l2;
  }
}

TEST(ConventionalTest, TiesBreakTowardSmallerIndexLikeBruteForceSort) {
  // Small integer coefficients tie in significance on one level (equal
  // |c|) and across levels (2 at level 0 against 4 at level 2, 1 at level
  // 1 against 2 at level 3), so most budgets cut through a tie. The
  // reference sorts every non-zero coefficient by (significance
  // descending, index ascending) and keeps the first B.
  const std::vector<double> hand = {2.0, -2.0, 0.0, 1.0,
                                    4.0, -4.0, 4.0, 0.0};
  std::vector<std::vector<double>> cases = {hand};
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> coeffs(64);
    for (auto& c : coeffs) {
      c = static_cast<double>(static_cast<int64_t>(rng.NextBounded(9)) - 4);
    }
    cases.push_back(std::move(coeffs));
  }
  for (const auto& coeffs : cases) {
    const int64_t n = static_cast<int64_t>(coeffs.size());
    std::vector<int64_t> order;
    for (int64_t i = 0; i < n; ++i) {
      if (coeffs[static_cast<size_t>(i)] != 0.0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      const double sa = Significance(a, coeffs[static_cast<size_t>(a)]);
      const double sb = Significance(b, coeffs[static_cast<size_t>(b)]);
      return sa != sb ? sa > sb : a < b;
    });
    for (int64_t b = 0; b <= n + 1; ++b) {
      std::vector<Coefficient> want;
      for (int64_t t = 0;
           t < std::min<int64_t>(b, static_cast<int64_t>(order.size())); ++t) {
        const int64_t i = order[static_cast<size_t>(t)];
        want.push_back({i, coeffs[static_cast<size_t>(i)]});
      }
      const Synopsis got = ConventionalFromCoeffs(coeffs, b);
      EXPECT_EQ(got.coefficients(), Synopsis(n, std::move(want)).coefficients())
          << "n=" << n << " budget=" << b;
    }
  }
}

}  // namespace
}  // namespace dwm
