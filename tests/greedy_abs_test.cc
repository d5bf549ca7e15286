#include "core/greedy_abs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/sealed_file.h"
#include "core/conventional.h"
#include "core/exact_small.h"
#include "data/generators.h"
#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

TEST(GreedyAbsTest, ReportedErrorMatchesMeasured) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto data = testing::RandomData(64, seed);
    for (int64_t b : {1, 4, 8, 16, 32}) {
      const GreedyAbsResult r = GreedyAbs(data, b);
      EXPECT_NEAR(r.max_abs_error, MaxAbsError(data, r.synopsis), 1e-7)
          << "seed=" << seed << " b=" << b;
      EXPECT_LE(r.synopsis.size(), b);
    }
  }
}

TEST(GreedyAbsTest, FullBudgetIsLossless) {
  const auto data = testing::RandomData(32, 3);
  const GreedyAbsResult r = GreedyAbs(data, 32);
  EXPECT_NEAR(r.max_abs_error, 0.0, 1e-9);
}

TEST(GreedyAbsTest, ZeroBudget) {
  const std::vector<double> data = {1, 2, 3, 4};
  const GreedyAbsResult r = GreedyAbs(data, 0);
  EXPECT_EQ(r.synopsis.size(), 0);
  EXPECT_NEAR(r.max_abs_error, 4.0, 1e-9);
}

TEST(GreedyAbsTest, SizeOneDomain) {
  const GreedyAbsResult keep = GreedyAbs({5.0}, 1);
  EXPECT_EQ(keep.synopsis.size(), 1);
  EXPECT_NEAR(keep.max_abs_error, 0.0, 1e-12);
  const GreedyAbsResult drop = GreedyAbs({5.0}, 0);
  EXPECT_EQ(drop.synopsis.size(), 0);
  EXPECT_NEAR(drop.max_abs_error, 5.0, 1e-12);
}

TEST(GreedyAbsTest, AtLeastOptimalBoundOnTinyInputs) {
  // Greedy can't beat the exact optimum; and on these easy inputs it should
  // be within 3x of it.
  for (uint64_t seed = 0; seed < 15; ++seed) {
    const auto data = testing::RandomData(16, 40 + seed);
    for (int64_t b : {2, 4, 8}) {
      const double exact = ExactOptimalRestricted(data, b).max_abs_error;
      const double greedy = GreedyAbs(data, b).max_abs_error;
      EXPECT_GE(greedy, exact - 1e-9);
    }
  }
}

TEST(GreedyAbsTest, BeatsOrMatchesConventionalOnSpikyData) {
  // Max-error-targeted thresholding should usually beat L2 thresholding on
  // max_abs; assert an aggregate win (the paper reports 3-4.5x on NYCT).
  double greedy_total = 0.0;
  double conv_total = 0.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto data = testing::RandomData(256, 70 + seed);
    const int64_t b = 32;
    greedy_total += GreedyAbs(data, b).max_abs_error;
    conv_total += MaxAbsError(data, ConventionalSynopsis(data, b));
  }
  EXPECT_LE(greedy_total, conv_total + 1e-9);
}

TEST(GreedyAbsTest, PiecewiseConstantDataNeedsFewCoefficients) {
  // Data with k constant pieces is representable with ~k coefficients.
  std::vector<double> data(64, 10.0);
  for (int i = 32; i < 64; ++i) data[static_cast<size_t>(i)] = 20.0;
  const GreedyAbsResult r = GreedyAbs(data, 2);
  EXPECT_NEAR(r.max_abs_error, 0.0, 1e-9);
}

TEST(GreedyAbsTest, DiscardOrderCoversAllSlots) {
  const auto data = testing::RandomData(32, 5);
  const auto events = testing::AllDiscards(
      GreedyAbsTree(ForwardHaar(data), /*has_average=*/true, 0.0));
  ASSERT_EQ(events.size(), 32u);
  std::set<int64_t> slots;
  for (const auto& e : events) slots.insert(e.slot);
  EXPECT_EQ(slots.size(), 32u);
  // Last event: everything dropped; error equals max |d_i|.
  double max_abs = 0.0;
  for (double v : data) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_NEAR(events.back().error, max_abs, 1e-9);
}

TEST(GreedyAbsTest, DiscardOrderMatchesNaiveReference) {
  // Integer data keeps every key exact in double, so the tournament's
  // picks must equal the from-scratch (key, slot) minimum slot for slot
  // and bit for bit. The [0, 3] range makes zero coefficients and tied
  // keys common; the incoming errors are short dyadic fractions.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (int64_t n : {2, 4, 16, 64}) {
      for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{0, 3},
                                   std::pair<int64_t, int64_t>{-100, 100}}) {
        const auto coeffs =
            ForwardHaar(testing::IntegerData(n, seed, lo, hi));
        const std::vector<double> ones(static_cast<size_t>(n), 1.0);
        for (const bool has_average : {true, false}) {
          for (const double e_in : {0.0, -7.5, 2.25}) {
            const auto got = testing::AllDiscards(
                GreedyAbsTree(coeffs, has_average, e_in));
            const auto want =
                testing::NaiveGreedyDiscards(coeffs, has_average, e_in, ones);
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

// FNV-1a over every event of a run: its slot, then its error's bits.
uint64_t EventDigest(GreedyAbsTree tree) {
  uint64_t h = kFnv1aOffset;
  tree.Run([&h](const HeapDiscardEvent& e) {
    const uint64_t words[2] = {static_cast<uint64_t>(e.slot),
                               std::bit_cast<uint64_t>(e.error)};
    h = Fnv1a(h, words, sizeof(words));
  });
  return h;
}

TEST(GreedyAbsTest, EventStreamPinnedAcrossHugePageBlocks) {
  // The naive reference stops at 64 leaves; these runs' record blocks are
  // 1, 2 and 4 MB, on both sides of a 2 MB huge page. Every event's slot
  // and error bits are pinned (digests of the full-tree and sub-tree run
  // shapes on NYCT-like seed 3).
  struct Pin {
    int log_n;
    bool has_average;
    double e_in;
    uint64_t digest;
  };
  const Pin pins[] = {
      {14, true, 0.0, 0xa532a7f36465ff50u},
      {14, false, -7.5, 0xbde7205f3c922888u},
      {14, false, 2.25, 0x9adb2a61e2bfd337u},
      {15, true, 0.0, 0x6132a5095e7125c6u},
      {15, false, -7.5, 0xe329acd76b8d447bu},
      {15, false, 2.25, 0xf4f30a647fa202fbu},
      {16, true, 0.0, 0xdb06b71c7b8ff1b7u},
      {16, false, -7.5, 0x943989be2a0c2a2bu},
      {16, false, 2.25, 0x91abc95a20158fe2u},
  };
  for (const Pin& pin : pins) {
    const int64_t n = int64_t{1} << pin.log_n;
    EXPECT_EQ(EventDigest(GreedyAbsTree(ForwardHaar(MakeNyctLike(n, 3)),
                                        pin.has_average, pin.e_in)),
              pin.digest)
        << "n=2^" << pin.log_n << " avg=" << pin.has_average
        << " e_in=" << pin.e_in;
  }
}

TEST(GreedyAbsTest, EventErrorsMatchPrefixSynopses) {
  // The running error after t discards equals the measured max_abs of the
  // synopsis that drops exactly those t coefficients.
  const auto data = testing::RandomData(16, 8);
  const auto coeffs = ForwardHaar(data);
  const auto events = testing::AllDiscards(GreedyAbsTree(coeffs, true, 0.0));
  std::set<int64_t> dropped;
  for (const auto& e : events) {
    dropped.insert(e.slot);
    std::vector<Coefficient> kept;
    for (int64_t i = 0; i < 16; ++i) {
      if (!dropped.count(i) && coeffs[static_cast<size_t>(i)] != 0.0) {
        kept.push_back({i, coeffs[static_cast<size_t>(i)]});
      }
    }
    EXPECT_NEAR(e.error, MaxAbsError(data, Synopsis(16, kept)), 1e-7);
  }
}

TEST(GreedyAbsTest, SubtreeRunWithIncomingError) {
  // A detail subtree (no average node) with uniform incoming error e_in:
  // with nothing discarded the max error is |e_in|; events never go below.
  const auto data = testing::RandomData(16, 12);
  auto coeffs = ForwardHaar(data);
  const double e_in = -7.5;
  const auto events = testing::AllDiscards(
      GreedyAbsTree(coeffs, /*has_average=*/false, e_in));
  ASSERT_EQ(events.size(), 15u);  // slots 1..15
  for (const auto& e : events) EXPECT_GE(e.error, std::abs(e_in) - 1e-9);
}

TEST(GreedyAbsTest, RetainedCountFollowsSynopsisWithZeroCoefficients) {
  // Piecewise-constant data has many exactly-zero detail coefficients. The
  // greedy prefix may "keep" some of them, but they are pruned from the
  // materialized synopsis (they contribute nothing), so the reported
  // retained count must equal the synopsis size, not the kept-slot count.
  const auto data = testing::PiecewiseData(64, 3);
  const auto coeffs = ForwardHaar(data);
  int64_t zero_coeffs = 0;
  for (double c : coeffs) zero_coeffs += (c == 0.0) ? 1 : 0;
  ASSERT_GT(zero_coeffs, 0) << "fixture must contain zero coefficients";
  for (int64_t b : {4, 16, 48, 64}) {
    const GreedyAbsResult r = GreedyAbsFromCoeffs(coeffs, b);
    EXPECT_EQ(r.retained, r.synopsis.size()) << "b=" << b;
    EXPECT_LE(r.retained, b);
    for (const Coefficient& c : r.synopsis.coefficients()) {
      EXPECT_NE(c.value, 0.0) << "zero coefficient materialized at " << c.index;
    }
  }
  // Fully constant data: only the average survives, whatever the budget.
  const GreedyAbsResult constant =
      GreedyAbs(std::vector<double>(32, 4.25), 10);
  EXPECT_EQ(constant.retained, 1);
  EXPECT_EQ(constant.synopsis.size(), 1);
  EXPECT_EQ(constant.max_abs_error, 0.0);
}

TEST(GreedyAbsTest, BestPrefixNotWorseThanExactlyBudget) {
  // The best-of-last-B+1 rule can only improve on "exactly B kept".
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const auto data = testing::RandomData(64, 90 + seed);
    const auto coeffs = ForwardHaar(data);
    const auto events = testing::AllDiscards(GreedyAbsTree(coeffs, true, 0.0));
    const int64_t b = 16;
    const double exactly_b = events[64 - b - 1].error;
    EXPECT_LE(GreedyAbsFromCoeffs(coeffs, b).max_abs_error, exactly_b + 1e-9);
  }
}

TEST(GreedyAbsTest, TailPrefixMatchesFullEventPrefix) {
  // GreedyAbs picks its prefix from the last B+1 events of the run; the
  // reference picks from every event and replays the discards. Integer
  // data in [0, 3] gives zero coefficients and tied event errors, random
  // data gives neither; budgets run past n, where m = n keeps everything
  // at error 0.
  int64_t zero_coeffs = 0;
  int64_t tied_errors = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    for (int64_t n = 2; n <= 64; n *= 2) {
      for (const bool integer : {true, false}) {
        const auto data = integer ? testing::IntegerData(n, seed, 0, 3)
                                  : testing::RandomData(n, 300 + seed);
        const auto coeffs = ForwardHaar(data);
        const auto events = testing::AllDiscards(
            GreedyAbsTree(coeffs, /*has_average=*/true, 0.0));
        zero_coeffs += std::count(coeffs.begin(), coeffs.end(), 0.0);
        for (size_t t = 1; t < events.size(); ++t) {
          tied_errors += events[t].error == events[t - 1].error ? 1 : 0;
        }
        for (int64_t b = 0; b <= n + 1; ++b) {
          const GreedyAbsResult got = GreedyAbs(data, b);
          const GreedyPrefix want =
              testing::FullEventBestGreedyPrefix(coeffs, events, b);
          ASSERT_EQ(testing::SynopsisBytes(got.synopsis),
                    testing::SynopsisBytes(want.synopsis))
              << "n=" << n << " seed=" << seed << " b=" << b;
          ASSERT_EQ(std::bit_cast<uint64_t>(got.max_abs_error),
                    std::bit_cast<uint64_t>(want.error))
              << "n=" << n << " seed=" << seed << " b=" << b;
        }
      }
    }
  }
  EXPECT_GT(zero_coeffs, 0);
  EXPECT_GT(tied_errors, 0);
}

TEST(GreedyAbsTest, DiscardTailKeepsTheLastEvents) {
  // A ring of min(budget, n - 1) + 1 events; FromEnd(0) is the last.
  DiscardTail tail(/*num_events=*/10, /*budget=*/3);
  for (int64_t i = 0; i < 10; ++i) tail({i, static_cast<double>(i)});
  EXPECT_EQ(tail.count(), 10);
  for (int64_t back = 0; back < 4; ++back) {
    EXPECT_EQ(tail.FromEnd(back).slot, 9 - back);
  }
  DiscardTail whole(/*num_events=*/4, /*budget=*/100);
  for (int64_t i = 0; i < 4; ++i) whole({i, 0.0});
  EXPECT_EQ(whole.FromEnd(3).slot, 0);
}

class GreedyAbsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GreedyAbsPropertyTest, InvariantsHold) {
  const int64_t n = int64_t{1} << std::get<0>(GetParam());
  const int64_t b = n >> std::get<1>(GetParam());
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n + b));
  const GreedyAbsResult r = GreedyAbs(data, b);
  EXPECT_LE(r.synopsis.size(), b);
  EXPECT_NEAR(r.max_abs_error, MaxAbsError(data, r.synopsis), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyAbsPropertyTest,
    ::testing::Combine(::testing::Values(3, 5, 7, 9, 11),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace dwm
