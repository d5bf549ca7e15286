#include "core/min_max_var.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"
#include "common/rng.h"
#include "wavelet/haar.h"

namespace dwm {
namespace mmv {

double Penalty(double coefficient, int32_t y_units, int32_t resolution) {
  if (coefficient == 0.0) return 0.0;
  const double c2 = coefficient * coefficient;
  if (y_units == 0) return c2;
  if (y_units >= resolution) return 0.0;
  const double y = static_cast<double>(y_units) / resolution;
  return c2 * (1.0 - y) / y;
}

Row BottomRow(double coefficient, int32_t resolution, int64_t cap) {
  Row row;
  row.cells.resize(static_cast<size_t>(cap + 1));
  // Children are data leaves (zero penalty); spend as much as useful on
  // this node alone.
  for (int64_t b = 0; b <= cap; ++b) {
    const int32_t y = static_cast<int32_t>(std::min<int64_t>(b, resolution));
    row.cells[static_cast<size_t>(b)] = {Penalty(coefficient, y, resolution),
                                         y, 0};
  }
  return row;
}

Row CombineRows(double coefficient, const Row& left, const Row& right,
                int32_t resolution, int64_t cap) {
  Row row;
  row.cells.resize(static_cast<size_t>(cap + 1));
  for (int64_t b = 0; b <= cap; ++b) {
    Cell best;
    const int32_t y_max =
        static_cast<int32_t>(std::min<int64_t>(b, resolution));
    for (int32_t y = 0; y <= y_max; ++y) {
      const double own = Penalty(coefficient, y, resolution);
      if (own >= best.v) continue;
      const int64_t remaining = b - y;
      for (int64_t bl = 0; bl <= remaining; ++bl) {
        const int64_t bl_c = std::min(bl, left.cap());
        const int64_t br_c = std::min(remaining - bl, right.cap());
        const double v =
            own + std::max(left.cells[static_cast<size_t>(bl_c)].v,
                           right.cells[static_cast<size_t>(br_c)].v);
        if (v < best.v) {
          best = {v, y, static_cast<int32_t>(bl_c)};
        }
      }
    }
    row.cells[static_cast<size_t>(b)] = best;
  }
  return row;
}

std::vector<Row> BuildSubtreeRows(const std::vector<double>& coeffs,
                                  int32_t resolution, int64_t cap) {
  const int64_t width = static_cast<int64_t>(coeffs.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(width)));
  DWM_CHECK_GE(width, 2);
  std::vector<Row> rows(static_cast<size_t>(width));
  for (int64_t slot = width - 1; slot >= 1; --slot) {
    // Useful space in this subtree is bounded by q per node.
    const int64_t nodes = (width >> Log2Floor(static_cast<uint64_t>(slot))) - 1;
    const int64_t slot_cap = std::min<int64_t>(cap, nodes * resolution);
    if (slot >= width / 2) {
      rows[static_cast<size_t>(slot)] =
          BottomRow(coeffs[static_cast<size_t>(slot)], resolution, slot_cap);
    } else {
      rows[static_cast<size_t>(slot)] = CombineRows(
          coeffs[static_cast<size_t>(slot)], rows[static_cast<size_t>(2 * slot)],
          rows[static_cast<size_t>(2 * slot + 1)], resolution, slot_cap);
    }
  }
  return rows;
}

Cell ChooseAverage(double average, const Row& row1, int32_t resolution,
                   int64_t cap) {
  Cell best;
  for (int32_t y = 0;
       y <= static_cast<int32_t>(std::min<int64_t>(cap, resolution)); ++y) {
    const double own = Penalty(average, y, resolution);
    const int64_t left = std::min<int64_t>(cap - y, row1.cap());
    const double v = own + row1.cells[static_cast<size_t>(left)].v;
    if (v < best.v) best = {v, y, static_cast<int32_t>(left)};
  }
  return best;
}

void SelectInRows(const std::vector<Row>& rows, int64_t slot, int64_t b,
                  const std::function<void(int64_t, int32_t)>& take,
                  const std::function<void(int64_t, int64_t)>& leaf) {
  const int64_t width = static_cast<int64_t>(rows.size());
  const Row& row = rows[static_cast<size_t>(slot)];
  const int64_t clamped = std::min(b, row.cap());
  const Cell& cell = row.cells[static_cast<size_t>(clamped)];
  if (cell.y_units > 0) take(slot, cell.y_units);
  const int64_t right = clamped - cell.y_units - cell.left_units;
  if (slot >= width / 2) {
    if (leaf) {
      leaf(2 * slot - width, cell.left_units);
      leaf(2 * slot + 1 - width, right);
    }
    return;
  }
  SelectInRows(rows, 2 * slot, cell.left_units, take, leaf);
  SelectInRows(rows, 2 * slot + 1, right, take, leaf);
}

bool RetainCoin(uint64_t seed, int64_t node, int32_t y_units,
                int32_t resolution) {
  if (y_units >= resolution) return true;
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(node + 1)));
  return rng.NextDouble() < static_cast<double>(y_units) / resolution;
}

void Realize(const MinMaxVarOptions& options, int64_t node, double c,
             int32_t y_units, MinMaxVarResult* result,
             std::vector<Coefficient>* kept) {
  result->expected_space_units += y_units;
  result->allocations.push_back({node, y_units});
  if (RetainCoin(options.seed, node, y_units, options.resolution) &&
      c != 0.0) {
    kept->push_back({node, c * options.resolution / y_units});
  }
}

}  // namespace mmv

int64_t MinMaxVarMaxBudget(int64_t n, int32_t resolution) {
  // n * (B q + 1) <= 2^26  <=>  B q + 1 <= floor(2^26 / n), overflow-free.
  const int64_t cells_per_row = (int64_t{1} << 26) / n;
  return cells_per_row == 0 ? -1 : (cells_per_row - 1) / resolution;
}

MinMaxVarResult MinMaxVar(const std::vector<double>& data,
                          const MinMaxVarOptions& options) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(n, kMinMaxVarMinValues);
  DWM_CHECK_GE(options.resolution, 1);
  const int32_t q = options.resolution;
  const int64_t budget = std::clamp<int64_t>(options.budget, 0, n);
  DWM_CHECK_LE(budget, MinMaxVarMaxBudget(n, q));  // the DP's memory wall
  const int64_t cap = budget * q;

  const std::vector<double> coeffs = ForwardHaar(data);
  const std::vector<mmv::Row> rows = mmv::BuildSubtreeRows(coeffs, q, cap);

  // Unary top: split the budget between c_0 and the detail tree, then
  // replay the stored (y, l) decisions top-down.
  const mmv::Cell best = mmv::ChooseAverage(coeffs[0], rows[1], q, cap);
  MinMaxVarResult result;
  result.max_path_penalty = best.v;
  std::vector<Coefficient> kept;
  const auto take = [&](int64_t node, int32_t y_units) {
    mmv::Realize(options, node, coeffs[static_cast<size_t>(node)], y_units,
                 &result, &kept);
  };
  if (best.y_units > 0) take(0, best.y_units);
  mmv::SelectInRows(rows, 1, best.left_units, take);

  result.synopsis = Synopsis(n, std::move(kept));
  return result;
}

}  // namespace dwm
