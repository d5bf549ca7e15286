#include "core/indirect_haar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/conventional.h"
#include "core/greedy_abs.h"
#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

TEST(IndirectHaarTest, BudgetPlusOneLargestAbs) {
  const std::vector<double> coeffs = {7, 2, -4, -3, 0, -13, -1, 6};
  EXPECT_DOUBLE_EQ(BudgetPlusOneLargestAbs(coeffs, 0), 13.0);
  EXPECT_DOUBLE_EQ(BudgetPlusOneLargestAbs(coeffs, 1), 7.0);
  EXPECT_DOUBLE_EQ(BudgetPlusOneLargestAbs(coeffs, 2), 6.0);
  EXPECT_DOUBLE_EQ(BudgetPlusOneLargestAbs(coeffs, 7), 0.0);
  EXPECT_DOUBLE_EQ(BudgetPlusOneLargestAbs(coeffs, 8), 0.0);
}

TEST(IndirectHaarTest, WithinBudgetAndReportsTrueError) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const auto data = testing::RandomData(64, seed, 40.0);
    const IndirectHaarResult r = IndirectHaar(data, {16, 0.25, 60});
    ASSERT_TRUE(r.converged) << "seed=" << seed;
    EXPECT_LE(r.synopsis.size(), 16);
    EXPECT_NEAR(r.max_abs_error, MaxAbsError(data, r.synopsis), 1e-9);
  }
}

TEST(IndirectHaarTest, BeatsConventionalOnMaxAbs) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const auto data = testing::RandomData(128, 30 + seed, 80.0);
    const int64_t b = 24;
    const IndirectHaarResult r = IndirectHaar(data, {b, 0.25, 60});
    ASSERT_TRUE(r.converged);
    const double conv = MaxAbsError(data, ConventionalSynopsis(data, b));
    EXPECT_LE(r.max_abs_error, conv + 1e-9);
  }
}

TEST(IndirectHaarTest, UnrestrictedAtLeastMatchesGreedyWithFineGrid) {
  // With a fine grid, the DP's unrestricted optimum should not lose to the
  // restricted greedy heuristic.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const auto data = testing::RandomData(32, 50 + seed, 20.0);
    const int64_t b = 8;
    const double greedy = GreedyAbs(data, b).max_abs_error;
    const IndirectHaarResult r = IndirectHaar(data, {b, 0.01, 80});
    ASSERT_TRUE(r.converged);
    EXPECT_LE(r.max_abs_error, greedy + 0.02) << "seed=" << seed;
  }
}

TEST(IndirectHaarTest, FullBudgetIsLossless) {
  // Conventional with full budget is exact, so the search short-circuits.
  const auto data = testing::RandomData(32, 3, 10.0);
  const IndirectHaarResult r = IndirectHaar(data, {32, 0.5, 60});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.max_abs_error, 0.0, 1e-9);
}

TEST(IndirectHaarTest, ErrorNonIncreasingInBudget) {
  const auto data = testing::PiecewiseData(128, 77, 100.0);
  double prev = std::numeric_limits<double>::infinity();
  for (int64_t b : {8, 16, 32, 64}) {
    const IndirectHaarResult r = IndirectHaar(data, {b, 0.25, 60});
    ASSERT_TRUE(r.converged);
    // Small slack: quantization can wiggle by about one grid step.
    EXPECT_LE(r.max_abs_error, prev + 0.5) << "b=" << b;
    prev = r.max_abs_error;
  }
}

TEST(IndirectHaarTest, CoarseQuantumReportsFailure) {
  // quantum far larger than the data range: every Problem-2 run infeasible.
  const auto data = testing::RandomData(32, 5, 1.0);
  const IndirectHaarResult r = IndirectHaar(data, {4, 1e6, 10});
  EXPECT_FALSE(r.converged);
}

// Synthetic Problem-2 solver: count = ceil(10 - eps) for eps in [0, 10],
// achieved error == requested eps, and every probe's synopsis is tagged with
// its 1-based probe number. The log records each probe and how often its
// materialize ran.
struct ScriptedProbe {
  double eps = 0.0;
  int64_t count = 0;
  int materialized = 0;
};

Problem2Solver ScriptedSolver(std::vector<ScriptedProbe>* log,
                              bool feasible = true) {
  return [log, feasible](double eps) {
    const int64_t count =
        static_cast<int64_t>(std::max(0.0, std::ceil(10.0 - eps)));
    log->push_back({eps, count, 0});
    const size_t k = log->size();
    return Problem2Probe{feasible, count, eps, [log, k] {
                           ++(*log)[k - 1].materialized;
                           return Synopsis(
                               64, {{1, static_cast<double>(k)}});
                         }};
  };
}

TEST(IndirectHaarTest, SearchDriverHonorsSolverContract) {
  // Budget 6 => best error is 4.
  std::vector<ScriptedProbe> log;
  const IndirectHaarResult r =
      IndirectHaarSearch(ScriptedSolver(&log), 0.0, 10.0, 6, 0.01, 100);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.max_abs_error, 4.0, 0.05);
  EXPECT_EQ(r.solver_runs, static_cast<int>(log.size()));
}

TEST(IndirectHaarTest, SearchMaterializesOnlyTheBestProbeOnce) {
  std::vector<ScriptedProbe> log;
  const IndirectHaarResult r =
      IndirectHaarSearch(ScriptedSolver(&log), 0.0, 10.0, 6, 0.01, 100);
  ASSERT_TRUE(r.converged);
  // The best probe: within budget, least error, first on ties.
  size_t best = log.size();
  for (size_t k = 0; k < log.size(); ++k) {
    if (log[k].count <= 6 &&
        (best == log.size() || log[k].eps < log[best].eps)) {
      best = k;
    }
  }
  ASSERT_LT(best, log.size());
  // The script exercises both deferred cases: an over-budget probe before
  // the winner, and probes after it.
  bool over_budget_first = false;
  for (size_t k = 0; k < best; ++k) over_budget_first |= log[k].count > 6;
  EXPECT_TRUE(over_budget_first);
  EXPECT_LT(best + 1, log.size());
  for (size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].materialized, k == best ? 1 : 0) << "probe " << k + 1;
  }
  // The returned synopsis is the winner's, under the winner's error.
  ASSERT_EQ(r.synopsis.size(), 1);
  EXPECT_EQ(r.synopsis.coefficients()[0].value, static_cast<double>(best + 1));
  EXPECT_EQ(r.max_abs_error, log[best].eps);
}

TEST(IndirectHaarTest, SearchMaterializesNothingWithoutAFittingProbe) {
  // Grid-infeasible probes, as under a coarse quantum.
  std::vector<ScriptedProbe> infeasible;
  const IndirectHaarResult coarse = IndirectHaarSearch(
      ScriptedSolver(&infeasible, /*feasible=*/false), 0.0, 10.0, 6, 0.01, 100);
  EXPECT_FALSE(coarse.converged);
  EXPECT_FALSE(infeasible.empty());
  // Feasible but always over budget.
  std::vector<ScriptedProbe> over;
  const IndirectHaarResult tight =
      IndirectHaarSearch(ScriptedSolver(&over), 0.0, 10.0, 0, 0.01, 100);
  EXPECT_FALSE(tight.converged);
  EXPECT_FALSE(over.empty());
  for (const auto* log : {&infeasible, &over}) {
    for (const ScriptedProbe& probe : *log) EXPECT_EQ(probe.materialized, 0);
  }
}

// The search as it ran when every probe built its synopsis: a full
// MinHaarSpace per probe, over IndirectHaar's own bounds (Algorithm 2 lines
// 1-2). `winning_eps` is the bound of the probe the search returned.
struct EagerSearch {
  IndirectHaarResult result;
  double winning_eps = -1.0;
  // (count, error) of each probe within budget, in probe order, and the
  // index of the winner among all probes.
  std::vector<MhsResult> probes;
  size_t winner = 0;
};

EagerSearch RunEagerSearch(const std::vector<double>& data,
                           const IndirectHaarOptions& options) {
  EagerSearch eager;
  const std::vector<double> coeffs = ForwardHaar(data);
  const double e_l = BudgetPlusOneLargestAbs(coeffs, options.budget);
  const double e_u =
      MaxAbsError(data, ConventionalFromCoeffs(coeffs, options.budget));
  EXPECT_GT(e_u, options.quantum / 2.0);  // no short-circuit in IndirectHaar
  Problem2Solver solver = [&](double eps) {
    eager.probes.push_back(MinHaarSpace(data, {eps, options.quantum}));
    const MhsResult& r = eager.probes.back();
    const size_t k = eager.probes.size() - 1;
    return Problem2Probe{r.feasible, r.count, r.max_abs_error,
                         [&eager, k, eps] {
                           eager.winning_eps = eps;
                           eager.winner = k;
                           return eager.probes[k].synopsis;
                         }};
  };
  eager.result = IndirectHaarSearch(solver, std::min(e_l, e_u), e_u,
                                    options.budget, options.quantum,
                                    options.max_iterations);
  return eager;
}

TEST(IndirectHaarTest, DeferredSweepMatchesEagerMinHaarSpaceByteForByte) {
  bool over_budget_first = false;
  bool winner_not_last = false;
  for (const int64_t n : {64, 256}) {
    for (const double quantum : {0.5, 2.0}) {
      for (uint64_t seed = 0; seed < 3; ++seed) {
        const auto data = testing::RandomData(n, 90 + seed, 40.0);
        const IndirectHaarOptions options{n / 8, quantum, 60};
        const IndirectHaarResult lazy = IndirectHaar(data, options);
        const EagerSearch eager = RunEagerSearch(data, options);
        const std::string label = "n=" + std::to_string(n) +
                                  " quantum=" + std::to_string(quantum) +
                                  " seed=" + std::to_string(seed);
        ASSERT_EQ(lazy.converged, eager.result.converged) << label;
        EXPECT_EQ(lazy.solver_runs, eager.result.solver_runs) << label;
        EXPECT_EQ(lazy.lower_bound, eager.result.lower_bound) << label;
        EXPECT_EQ(lazy.upper_bound, eager.result.upper_bound) << label;
        if (!lazy.converged) continue;
        EXPECT_EQ(lazy.max_abs_error, eager.result.max_abs_error) << label;
        // The winner's synopsis is exactly what a direct MinHaarSpace run
        // at the winning bound builds.
        const MhsResult direct =
            MinHaarSpace(data, {eager.winning_eps, quantum});
        ASSERT_TRUE(direct.feasible) << label;
        EXPECT_EQ(testing::SynopsisBytes(lazy.synopsis),
                  testing::SynopsisBytes(direct.synopsis))
            << label;
        EXPECT_EQ(testing::SynopsisBytes(lazy.synopsis),
                  testing::SynopsisBytes(eager.result.synopsis))
            << label;
        for (size_t k = 0; k < eager.winner; ++k) {
          const MhsResult& probe = eager.probes[k];
          over_budget_first |= probe.feasible && probe.count > options.budget;
        }
        winner_not_last |= eager.winner + 1 < eager.probes.size();
      }
    }
  }
  EXPECT_TRUE(over_budget_first);
  EXPECT_TRUE(winner_not_last);
}

}  // namespace
}  // namespace dwm
