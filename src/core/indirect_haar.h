// IndirectHaar (Karras et al., KDD'07; Algorithm 2 of the paper): solves
// Problem 1 (best max_abs for a budget B) by binary search over the error
// bound of Problem 2, repeatedly probing MinHaarSpace.
//
// The search steers on each probe's retained count and achieved error
// alone (Algorithm 2 line 11), which the DP's bottom-up pass already
// yields. So a probe is only that pass; the top-down pass that extracts a
// synopsis is deferred, and runs once, for the probe the search returns.
// The driver is parameterized over the Problem-2 solver so that
// DIndirectHaar (dist/dindirect_haar) reuses it with the distributed one.
#ifndef DWMAXERR_CORE_INDIRECT_HAAR_H_
#define DWMAXERR_CORE_INDIRECT_HAAR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/min_haar_space.h"
#include "wavelet/synopsis.h"

namespace dwm {

struct IndirectHaarOptions {
  int64_t budget = 0;
  double quantum = 1.0;     // delta, the MinHaarSpace quantization step
  int max_iterations = 60;  // safety cap on Problem-2 runs
};

struct IndirectHaarResult {
  // False when no Problem-2 run with the given quantum produced a synopsis
  // within budget (the grid was too coarse; Section 6.2's "could not run").
  bool converged = false;
  Synopsis synopsis;
  double max_abs_error = 0.0;
  int solver_runs = 0;  // number of Problem-2 invocations (jobs)
  double lower_bound = 0.0;
  double upper_bound = 0.0;
};

// One Problem-2 probe at some error bound: the outcome the search ranks it
// by, plus `materialize`, the deferred top-down pass that returns the
// probe's synopsis (`count` coefficients, error `max_abs_error`). The
// closure owns whatever state that pass needs.
struct Problem2Probe {
  bool feasible = false;  // false: the grid is too coarse for the bound
  int64_t count = 0;
  double max_abs_error = 0.0;
  std::function<Synopsis()> materialize;
};

using Problem2Solver = std::function<Problem2Probe(double error_bound)>;

// Generic binary-search driver over [e_low, e_high]. e_high must be
// achievable in principle (it is the error of the conventional B-term
// synopsis); each accepted probe tightens e_high to its *actual* error
// (Algorithm 2 line 11), each over-budget or grid-infeasible probe raises
// e_low. Terminates when the bracket shrinks below ~quantum. Only the
// best probe so far (feasible, within budget, least error) is kept; after
// the loop its `materialize` runs exactly once. A search that never finds
// such a probe materializes nothing.
IndirectHaarResult IndirectHaarSearch(const Problem2Solver& solver,
                                      double e_low, double e_high,
                                      int64_t budget, double quantum,
                                      int max_iterations);

// The fewest values IndirectHaar takes.
inline constexpr int64_t kIndirectHaarMinValues = 2;

// Centralized IndirectHaar over `data` (size a power of two, at least
// kIndirectHaarMinValues). Bounds:
// e_l = the (B+1)-largest |coefficient|, e_u = max_abs of the conventional
// B-term synopsis (Algorithm 2 lines 1-2).
IndirectHaarResult IndirectHaar(const std::vector<double>& data,
                                const IndirectHaarOptions& options);

// Helper shared with the distributed version: the (budget+1)-largest
// absolute coefficient value of `coeffs` (0 if budget >= size).
double BudgetPlusOneLargestAbs(const std::vector<double>& coeffs,
                               int64_t budget);

}  // namespace dwm

#endif  // DWMAXERR_CORE_INDIRECT_HAAR_H_
