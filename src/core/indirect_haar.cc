#include "core/indirect_haar.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "core/conventional.h"
#include "wavelet/haar.h"
#include "wavelet/metrics.h"

namespace dwm {

double BudgetPlusOneLargestAbs(const std::vector<double>& coeffs,
                               int64_t budget) {
  if (budget >= static_cast<int64_t>(coeffs.size())) return 0.0;
  if (budget < 0) budget = 0;
  std::vector<double> mags(coeffs.size());
  for (size_t i = 0; i < coeffs.size(); ++i) mags[i] = std::abs(coeffs[i]);
  std::nth_element(mags.begin(), mags.begin() + budget, mags.end(),
                   std::greater<double>());
  return mags[static_cast<size_t>(budget)];
}

IndirectHaarResult IndirectHaarSearch(const Problem2Solver& solver,
                                      double e_low, double e_high,
                                      int64_t budget, double quantum,
                                      int max_iterations) {
  DWM_CHECK_GT(quantum, 0.0);
  IndirectHaarResult result;
  result.lower_bound = e_low;
  result.upper_bound = e_high;
  // Resolving the error finer than the quantization grid is meaningless.
  const double tolerance = quantum / 2.0;
  // Pure bisection: probing at e_high itself would cost O((e_u/delta)^2 N)
  // — the most expensive possible Problem-2 run — so the search starts at
  // the midpoint and only ever tightens. If no probe ever fits the budget,
  // the grid is too coarse for this dataset and the algorithm reports
  // failure (Section 6.2's "could not run for delta = 50, 100").
  Problem2Probe best;
  while (e_high - e_low > tolerance && result.solver_runs < max_iterations) {
    const double e_mid = (e_high + e_low) / 2.0;
    ++result.solver_runs;
    Problem2Probe probe = solver(e_mid);
    if (probe.feasible && probe.count <= budget) {
      if (!best.feasible || probe.max_abs_error < best.max_abs_error) {
        best = std::move(probe);
      }
      // Algorithm 2 line 11: tighten to the *achieved* error.
      e_high = std::min(e_mid, best.max_abs_error);
    } else {
      e_low = e_mid;
    }
  }
  result.converged = best.feasible;
  if (result.converged) {
    result.synopsis = best.materialize();
    result.max_abs_error = best.max_abs_error;
  }
  result.upper_bound = e_high;
  result.lower_bound = e_low;
  return result;
}

IndirectHaarResult IndirectHaar(const std::vector<double>& data,
                                const IndirectHaarOptions& options) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(n, 2);
  const std::vector<double> coeffs = ForwardHaar(data);

  // Line 2: the (B+1)-largest coefficient is the search lower bound.
  const double e_l = BudgetPlusOneLargestAbs(coeffs, options.budget);
  // Line 1: max_abs of the conventional B-largest-terms synopsis.
  const Synopsis conventional = ConventionalFromCoeffs(coeffs, options.budget);
  const double e_u = MaxAbsError(data, conventional);

  if (e_u <= 1e-12) {
    // The conventional synopsis is already (numerically) exact.
    IndirectHaarResult result;
    result.converged = true;
    result.synopsis = conventional;
    result.max_abs_error = e_u;
    result.upper_bound = e_u;
    return result;
  }
  if (e_u <= options.quantum / 2.0) {
    // delta is coarser than the entire error range to search: the quantized
    // DP cannot resolve anything here (Section 6.2's failure mode).
    IndirectHaarResult result;
    result.upper_bound = e_u;
    return result;
  }

  Problem2Solver solver = [&](double eps) {
    auto probe = std::make_shared<const MhsProbe>(
        ProbeMinHaarSpace(data, {eps, options.quantum}));
    return Problem2Probe{probe->feasible, probe->count, probe->max_abs_error,
                         [&data, probe] {
                           return MaterializeMinHaarSpace(data, *probe);
                         }};
  };
  return IndirectHaarSearch(solver, std::min(e_l, e_u), e_u, options.budget,
                            options.quantum, options.max_iterations);
}

}  // namespace dwm
