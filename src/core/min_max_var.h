// MinMaxVar: the probabilistic-thresholding dynamic program of Garofalakis
// & Gibbons (SIGMOD'02) that Section 4 of the paper uses as its running
// example of a parallelizable DP (Figure 2). Every coefficient c_j is
// assigned a retention probability y in {0, 1/q, ..., 1}; if retained (coin
// flip) it is stored as c_j / y, which makes the reconstruction unbiased.
// The DP minimizes the maximum, over root-to-leaf paths, of the accumulated
// penalty
//     y > 0 :  c^2 (1 - y) / y      (rounding variance)
//     y = 0 :  c^2                  (squared deterministic loss)
// subject to an expected-space budget sum(y) <= B. With q = 1 the choices
// degenerate to y in {0, 1} and the DP becomes a deterministic restricted
// thresholding that minimizes the worst path's sum of squared dropped
// coefficients (an upper bound on the squared max_abs error).
//
// The M-row of node j holds, per space allotment b (in units of 1/q),
// exactly the triple the paper describes: M[j,b].v (minimum penalty),
// M[j,b].y (retention probability) and M[j,b].l (left child's allotment).
// Unlike MinHaarSpace, the row size is O(B q) — this is the space/
// communication blowup that motivates the paper's switch to the dual
// Problem 2 (Section 4), and bench_ablation_dp_rows measures it.
#ifndef DWMAXERR_CORE_MIN_MAX_VAR_H_
#define DWMAXERR_CORE_MIN_MAX_VAR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "wavelet/synopsis.h"

namespace dwm {
namespace mmv {

struct Cell {
  double v = std::numeric_limits<double>::infinity();
  int32_t y_units = 0;     // retention probability in units of 1/q
  int32_t left_units = 0;  // allotment of the left child

  bool feasible() const { return v < std::numeric_limits<double>::infinity(); }
};

// M-row: cells[b] for allotments b = 0..cap units.
struct Row {
  std::vector<Cell> cells;

  int64_t cap() const { return static_cast<int64_t>(cells.size()) - 1; }
};

// Penalty of choosing y = y_units/q for a coefficient of value c.
double Penalty(double coefficient, int32_t y_units, int32_t resolution);

// Row of a bottom coefficient node (its children are data leaves).
Row BottomRow(double coefficient, int32_t resolution, int64_t cap);

// Row of an internal node with coefficient `coefficient` from its
// children's rows (the Figure 2 combine).
Row CombineRows(double coefficient, const Row& left, const Row& right,
                int32_t resolution, int64_t cap);

// All rows of the detail subtree stored in heap order `coeffs` (slot 1 =
// subtree root; slot 0 ignored), each clamped to `cap` units. Returns a
// heap-indexed vector of rows (slot 0 unused).
std::vector<Row> BuildSubtreeRows(const std::vector<double>& coeffs,
                                  int32_t resolution, int64_t cap);

// The unary top: splits `cap` units between the average c_0 (value
// `average`) and the detail tree under `row1`. Returns the best cell: v,
// c_0's y_units, and row1's allotment in left_units.
Cell ChooseAverage(double average, const Row& row1, int32_t resolution,
                   int64_t cap);

// Top-down replay of the stored (y, l) decisions of a heap of rows (slot 1
// = subtree root, children of slot s at 2s and 2s + 1), from `slot` with
// allotment b, in pre-order: take(slot, y_units) for every positive
// allotment. Slots >= rows.size() / 2 are bottom nodes; when `leaf` is set
// it receives their children, numbered 0 .. rows.size() - 1 left to right,
// with each child's allotment.
void SelectInRows(const std::vector<Row>& rows, int64_t slot, int64_t b,
                  const std::function<void(int64_t, int32_t)>& take,
                  const std::function<void(int64_t, int64_t)>& leaf = {});

// Deterministic retention coin flip for node (global error-tree index):
// true with probability y_units / resolution, always true at y == q. The
// centralized and distributed versions share this so their synopses are
// bit-identical for the same seed.
bool RetainCoin(uint64_t seed, int64_t node, int32_t y_units,
                int32_t resolution);

}  // namespace mmv

struct MinMaxVarOptions {
  int64_t budget = 0;     // B, in coefficients (expected space)
  int32_t resolution = 4; // q: probabilities quantized to multiples of 1/q
  uint64_t seed = 1;      // drives the retention coin flips
};

struct MinMaxVarResult {
  Synopsis synopsis;
  // The chosen (global node, y in 1/q units) allotments, y > 0 only; the
  // synopsis is the coin-flip realization of these.
  std::vector<std::pair<int64_t, int32_t>> allocations;
  // DP optimum: max over root-to-leaf paths of the accumulated penalty.
  double max_path_penalty = 0.0;
  // sum of chosen y (in 1/q units): expected space * q, <= budget * q.
  int64_t expected_space_units = 0;
};

namespace mmv {

// Realizes allotment y_units of global node `node` (coefficient c): adds
// y_units to result->expected_space_units, appends (node, y_units) to
// result->allocations and, when the node's RetainCoin comes up and c != 0,
// appends c * q / y to `kept`.
void Realize(const MinMaxVarOptions& options, int64_t node, double c,
             int32_t y_units, MinMaxVarResult* result,
             std::vector<Coefficient>* kept);

}  // namespace mmv

// Centralized MinMaxVar over `data` (size a power of two, >= 2). Keeps the
// whole DP table in memory — O(N B q) cells, the memory wall the paper's
// framework exists to break. Aborts via DWM_CHECK above ~2^26 cells.
MinMaxVarResult MinMaxVar(const std::vector<double>& data,
                          const MinMaxVarOptions& options);

}  // namespace dwm

#endif  // DWMAXERR_CORE_MIN_MAX_VAR_H_
