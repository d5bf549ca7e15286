#include "core/greedy_rel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <tuple>

#include "core/greedy_abs.h"
#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

TEST(GreedyRelTest, ReportedErrorMatchesMeasured) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const auto data = testing::RandomData(64, seed, 50.0);
    for (int64_t b : {4, 8, 16}) {
      const GreedyRelResult r = GreedyRel(data, b, /*sanity=*/1.0);
      EXPECT_NEAR(r.max_rel_error, MaxRelError(data, r.synopsis, 1.0), 1e-7)
          << "seed=" << seed << " b=" << b;
      EXPECT_LE(r.synopsis.size(), b);
    }
  }
}

TEST(GreedyRelTest, FullBudgetIsLossless) {
  const auto data = testing::RandomData(32, 3);
  EXPECT_NEAR(GreedyRel(data, 32, 1.0).max_rel_error, 0.0, 1e-9);
}

TEST(GreedyRelTest, ZeroBudget) {
  const std::vector<double> data = {2, 4, 8, 16};
  const GreedyRelResult r = GreedyRel(data, 0, 1.0);
  EXPECT_EQ(r.synopsis.size(), 0);
  // err/denom = 1 for every value (denom = |d|).
  EXPECT_NEAR(r.max_rel_error, 1.0, 1e-9);
}

TEST(GreedyRelTest, SanityBoundDampensSmallValues) {
  // One tiny and several large values: with a large sanity bound, the tiny
  // value's relative error cannot dominate.
  std::vector<double> data = {0.001, 100, 100, 100, 200, 200, 300, 300};
  const GreedyRelResult tight = GreedyRel(data, 2, /*sanity=*/0.001);
  const GreedyRelResult loose = GreedyRel(data, 2, /*sanity=*/10.0);
  EXPECT_LE(loose.max_rel_error, tight.max_rel_error + 1e-9);
}

TEST(GreedyRelTest, FavorsRelativeOverAbsoluteAccuracy) {
  // Region of small values + region of large values. GreedyRel should yield
  // a better max_rel than GreedyAbs with the same budget (that is its job).
  std::vector<double> data(64);
  for (int i = 0; i < 32; ++i) data[static_cast<size_t>(i)] = 1.0 + 0.3 * ((i * 7) % 5);
  for (int i = 32; i < 64; ++i) data[static_cast<size_t>(i)] = 1000.0 + 90.0 * ((i * 11) % 7);
  const double sanity = 0.5;
  const int64_t b = 8;
  const double rel_by_rel =
      MaxRelError(data, GreedyRel(data, b, sanity).synopsis, sanity);
  const double rel_by_abs =
      MaxRelError(data, GreedyAbs(data, b).synopsis, sanity);
  EXPECT_LE(rel_by_rel, rel_by_abs + 1e-9);
}

TEST(GreedyRelTest, DiscardOrderCoversAllSlots) {
  const auto data = testing::RandomData(32, 5, 20.0);
  std::vector<double> weights(32);
  for (int i = 0; i < 32; ++i) {
    weights[static_cast<size_t>(i)] =
        std::max(std::abs(data[static_cast<size_t>(i)]), 1.0);
  }
  const auto events = testing::AllDiscards(
      GreedyRelTree(ForwardHaar(data), true, 0.0, weights));
  ASSERT_EQ(events.size(), 32u);
  std::set<int64_t> slots;
  for (const auto& e : events) slots.insert(e.slot);
  EXPECT_EQ(slots.size(), 32u);
}

TEST(GreedyRelTest, DiscardOrderMatchesNaiveReference) {
  // A power-of-two sanity bound >= max |d_j| makes every weight that same
  // power of two, so on integer data every relative key is exact in double
  // and the tournament's picks must equal the from-scratch (key, slot)
  // minimum slot for slot and bit for bit.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (int64_t n : {2, 4, 16, 64}) {
      for (const auto& [lo, hi, sanity] :
           {std::tuple<int64_t, int64_t, double>{0, 3, 4.0},
            std::tuple<int64_t, int64_t, double>{-100, 100, 128.0}}) {
        const auto data = testing::IntegerData(n, seed, lo, hi);
        const auto coeffs = ForwardHaar(data);
        std::vector<double> weights(static_cast<size_t>(n));
        for (size_t j = 0; j < weights.size(); ++j) {
          weights[j] = std::max(std::abs(data[j]), sanity);
        }
        for (const bool has_average : {true, false}) {
          for (const double e_in : {0.0, -7.5, 2.25}) {
            const auto got = testing::AllDiscards(
                GreedyRelTree(coeffs, has_average, e_in, weights));
            const auto want = testing::NaiveGreedyDiscards(
                coeffs, has_average, e_in, weights);
            ASSERT_EQ(got.size(), want.size());
            for (size_t t = 0; t < got.size(); ++t) {
              ASSERT_EQ(got[t].slot, want[t].slot)
                  << "n=" << n << " seed=" << seed << " avg=" << has_average
                  << " e_in=" << e_in << " step " << t;
              ASSERT_EQ(std::bit_cast<uint64_t>(got[t].error),
                        std::bit_cast<uint64_t>(want[t].error))
                  << "n=" << n << " seed=" << seed << " step " << t;
            }
          }
        }
      }
    }
  }
}

TEST(GreedyRelTest, EventErrorsMatchPrefixSynopses) {
  const auto data = testing::RandomData(16, 8, 30.0);
  const auto coeffs = ForwardHaar(data);
  const double sanity = 1.0;
  std::vector<double> weights(16);
  for (int i = 0; i < 16; ++i) {
    weights[static_cast<size_t>(i)] =
        std::max(std::abs(data[static_cast<size_t>(i)]), sanity);
  }
  const auto events =
      testing::AllDiscards(GreedyRelTree(coeffs, true, 0.0, weights));
  std::set<int64_t> dropped;
  for (const auto& e : events) {
    dropped.insert(e.slot);
    std::vector<Coefficient> kept;
    for (int64_t i = 0; i < 16; ++i) {
      if (!dropped.count(i) && coeffs[static_cast<size_t>(i)] != 0.0) {
        kept.push_back({i, coeffs[static_cast<size_t>(i)]});
      }
    }
    EXPECT_NEAR(e.error, MaxRelError(data, Synopsis(16, kept), sanity), 1e-7);
  }
}

TEST(GreedyRelTest, TailPrefixMatchesFullEventPrefix) {
  // As GreedyAbsTest.TailPrefixMatchesFullEventPrefix, under two sanity
  // bounds: [0, 3] integer data gives zero coefficients and tied relative
  // errors, random data neither.
  int64_t zero_coeffs = 0;
  int64_t tied_errors = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    for (int64_t n = 2; n <= 64; n *= 2) {
      for (const bool integer : {true, false}) {
        for (const double sanity : {1.0, 4.0}) {
          const auto data = integer ? testing::IntegerData(n, seed, 0, 3)
                                    : testing::RandomData(n, 400 + seed);
          const auto coeffs = ForwardHaar(data);
          std::vector<double> weights(static_cast<size_t>(n));
          for (size_t j = 0; j < weights.size(); ++j) {
            weights[j] = std::max(std::abs(data[j]), sanity);
          }
          const auto events = testing::AllDiscards(
              GreedyRelTree(coeffs, /*has_average=*/true, 0.0, weights));
          zero_coeffs += std::count(coeffs.begin(), coeffs.end(), 0.0);
          for (size_t t = 1; t < events.size(); ++t) {
            tied_errors += events[t].error == events[t - 1].error ? 1 : 0;
          }
          for (int64_t b = 0; b <= n + 1; ++b) {
            const GreedyRelResult got = GreedyRel(data, b, sanity);
            const GreedyPrefix want =
                testing::FullEventBestGreedyPrefix(coeffs, events, b);
            ASSERT_EQ(testing::SynopsisBytes(got.synopsis),
                      testing::SynopsisBytes(want.synopsis))
                << "n=" << n << " seed=" << seed << " b=" << b;
            ASSERT_EQ(std::bit_cast<uint64_t>(got.max_rel_error),
                      std::bit_cast<uint64_t>(want.error))
                << "n=" << n << " seed=" << seed << " b=" << b;
          }
        }
      }
    }
  }
  EXPECT_GT(zero_coeffs, 0);
  EXPECT_GT(tied_errors, 0);
}

class GreedyRelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyRelPropertyTest, InvariantsHold) {
  const int64_t n = int64_t{1} << GetParam();
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n), 200.0);
  const int64_t b = n / 4;
  const GreedyRelResult r = GreedyRel(data, b, 1.0);
  EXPECT_LE(r.synopsis.size(), b);
  EXPECT_NEAR(r.max_rel_error, MaxRelError(data, r.synopsis, 1.0), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GreedyRelPropertyTest,
                         ::testing::Values(3, 5, 7, 9));

}  // namespace
}  // namespace dwm
