// MinHaarSpace (Karras, Sacharidis & Mamoulis, KDD'07; Section 4 of the
// paper): dynamic program for the dual Problem 2 — given an error bound
// eps, retain the minimum number of *unrestricted* coefficient values such
// that every reconstructed value is within eps of the data.
//
// The DP works bottom-up over the error tree. For node j, the M-row M[j]
// holds one cell per quantized *incoming value* v (the partial
// reconstruction contributed by j's ancestors): the minimum number of
// coefficients that must be retained inside T_j, and (as a tiebreak) the
// smallest achievable subtree max-error for that count. Key facts exploited:
//
//  * A bottom node over the data pair (a, b) is feasible for incoming v iff
//    |v - (a+b)/2| <= eps (retain the node with z = (a-b)/2), and needs no
//    coefficient iff both |v - a| <= eps and |v - b| <= eps. Its feasible
//    window therefore has real width exactly 2*eps.
//  * Retaining node j with value z sends v+z left and v-z right, so a
//    parent's feasible window is the average of its children's windows —
//    feasible windows have width <= 2*eps at *every* node, which bounds the
//    M-row size by O(eps/delta) (the paper's communication bound, Eq. 6).
//  * Incoming values are kept on the absolute grid {g * quantum}; grid
//    feasibility is checked exactly, so any returned synopsis truly meets
//    the bound — quantization only sacrifices optimality (the paper's delta
//    knob). Rows can become empty when quantum >> eps, reproducing the
//    "could not run for delta=50,100" behavior of Section 6.2.
//
// The row/combine primitives live in namespace mhs so the distributed
// version (dist/dmin_haar_space) can reuse them verbatim. `Row` (one
// std::vector<Cell> per node) is the serialization/shuffle unit; whole
// subtrees of rows are materialized in a flat `RowHeap` cell arena
// (DESIGN.md §12) so the DP inner loops stream over contiguous memory.
// The pair-row formula and the combine step each exist once, as in-place
// writers that append a trimmed row to a cell buffer; PairRow, CombineRows,
// the arena builders and the slice fold all call them, so no kernel
// allocates per node.
#ifndef DWMAXERR_CORE_MIN_HAAR_SPACE_H_
#define DWMAXERR_CORE_MIN_HAAR_SPACE_H_

#include <cstddef>
#include <functional>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "wavelet/synopsis.h"

namespace dwm {
namespace mhs {

// Cells are compared lexicographically on (count, err).
struct Cell {
  int32_t count = kInfCount;
  double err = std::numeric_limits<double>::infinity();

  static constexpr int32_t kInfCount = 1 << 29;
  bool feasible() const { return count < kInfCount; }
  bool Better(const Cell& other) const {
    if (count != other.count) return count < other.count;
    return err < other.err;
  }
};

// One M-row: cells for the contiguous grid-index window [lo, lo + size).
struct Row {
  int64_t lo = 0;
  std::vector<Cell> cells;

  bool feasible() const { return !cells.empty(); }
  int64_t hi() const { return lo + static_cast<int64_t>(cells.size()) - 1; }
  // Cell at grid index g, or nullptr if outside the window.
  const Cell* Find(int64_t g) const {
    if (!feasible() || g < lo || g > hi()) return nullptr;
    return &cells[static_cast<size_t>(g - lo)];
  }
  // Drops infeasible cells at both ends, in place; empties the row if all
  // infeasible.
  void Trim();
};

// M-row of a bottom coefficient node over the data pair (a, b).
Row PairRow(double a, double b, double eps, double quantum);

// M-row of an internal node from its children's rows (one level up). Runs
// on the branch-light clipped-window kernel; byte-identical to
// CombineRowsReference.
Row CombineRows(const Row& left, const Row& right);

// Scalar reference for CombineRows: the direct transcription of the DP
// recurrence via BestChoice. The optimized combine paths (CombineRows,
// BuildRowHeap) must reproduce it cell for cell; tests pin this.
Row CombineRowsReference(const Row& left, const Row& right);

// Best decision at an internal node for incoming grid value v: z_grid is the
// retained value in grid units (0 => the coefficient is dropped). This is
// the semantic definition (reference implementation) of the per-value
// decision; the arena kernel reproduces its exact candidate order and
// tie-breaks.
struct Choice {
  Cell cell;
  int64_t z_grid = 0;
};
Choice BestChoice(const Row& left, const Row& right, int64_t v);

// Every row of a complete subtree, stored as one flat Cell arena with
// per-slot (lo, offset, len) spans instead of one heap-allocated
// std::vector<Cell> per node. Heap layout: `width` inputs occupy slots
// [width, 2*width), slot 1 is the subtree root, slot 0 is unused; each
// level's cells are contiguous in the arena, so the up-sweep streams
// sequentially. An infeasible row is a zero-length span. Over a data
// slice the inputs are the level-1 rows (BuildRowHeapOverData): pair rows
// are never stored, only recomputed.
class RowHeap {
 public:
  RowHeap() = default;

  int64_t width() const { return width_; }
  bool feasible(int64_t slot) const { return span(slot).len > 0; }
  int64_t lo(int64_t slot) const { return span(slot).lo; }
  int64_t hi(int64_t slot) const {
    const Span& s = span(slot);
    return s.lo + s.len - 1;
  }
  // Cell at grid index g of `slot`'s row, or nullptr if outside the window.
  const Cell* Find(int64_t slot, int64_t g) const {
    const Span& s = span(slot);
    if (g < s.lo || g >= s.lo + s.len) return nullptr;
    return &cells_[static_cast<size_t>(s.offset + (g - s.lo))];
  }
  // Materializes one slot as a stand-alone Row (e.g. to ship the subtree
  // root across the shuffle boundary, which stays Row-typed).
  Row CopyRow(int64_t slot) const;
 private:
  struct Span {
    int64_t lo = 0;
    int64_t offset = 0;
    int64_t len = 0;
  };
  const Span& span(int64_t slot) const {
    DWM_CHECK_GE(slot, 1);
    DWM_CHECK_LT(slot, static_cast<int64_t>(spans_.size()));
    return spans_[static_cast<size_t>(slot)];
  }

  // The one up-sweep both builders share: fills every internal slot from
  // its children, one contiguous level at a time, appending to the arena.
  void SweepUp();

  friend RowHeap BuildRowHeap(const std::vector<Row>& inputs);
  friend RowHeap BuildRowHeapOverData(const double* data, int64_t len,
                                      double eps, double quantum);
  friend Choice BestChoiceAt(const RowHeap& rows, int64_t slot, int64_t v);

  int64_t width_ = 0;
  std::vector<Span> spans_;
  std::vector<Cell> cells_;
};

// Builds every row of a complete subtree whose inputs (the rows of its 2^h
// children — pair rows or lower-subtree roots) are `inputs`
// (inputs.size() must be a power of two). Equivalent to folding
// CombineRows bottom-up, but all cells land in one arena.
RowHeap BuildRowHeap(const std::vector<Row>& inputs);

// BuildRowHeap over the level-1 rows of a data slice (length a power of
// two, >= 4): every row of the slice except its pair rows. Each level-1
// row is combined from two pair rows held in a reused two-row scratch, so
// no per-pair Row is allocated and no pair cell lands in the arena. A
// counting pass over the pair windows sizes the arena once: each level
// above the pairs holds at most half the cells of the level below, so all
// of them fit in the pair-window total.
RowHeap BuildRowHeapOverData(const double* data, int64_t len, double eps,
                             double quantum);

// BestChoice evaluated against the arena rows of `slot`'s children
// (byte-identical to BestChoice on the materialized rows).
Choice BestChoiceAt(const RowHeap& rows, int64_t slot, int64_t v);

// Computes only the root row over a data slice (length a power of two,
// >= 2) in O(len * w^2) time and O(w log len) memory: a left-to-right fold
// keeping one reusable row buffer per level. Equal to folding CombineRows
// over the PairRows bottom-up; infeasible (Row{}) as soon as any subtree
// is.
Row ComputeRowOverData(const double* data, int64_t len, double eps,
                       double quantum);

// Chooses the average coefficient c_0 from the root row of c_1: the
// returned cell counts c_0 too, and z_grid is c_0 in grid units (it is
// also c_1's incoming value). Dropping c_0 (z_grid = 0) wins ties. An
// infeasible cell means no grid value works.
Choice ChooseAverage(const Row& row1);

// Top-down counterpart of ComputeRowOverData: re-enters the subtree over a
// data slice (length a power of two, >= 2; its root is global node
// `root_global`) with incoming grid value v, rebuilding the slice's rows,
// and appends the coefficients retained inside it in preorder. The rows of
// levels >= 1 come from BuildRowHeapOverData; the walk recomputes the two
// pair rows under each level-1 node it visits and decides that node and
// its pairs there. A one-pair slice decides its pair directly.
void SelectOverData(const double* data, int64_t len, int64_t root_global,
                    double eps, double quantum, int64_t v,
                    std::vector<Coefficient>* out);

// Walks the decisions of a subtree materialized in a RowHeap. For heap
// slots that are inputs, invokes input_cb(input_index, incoming_grid_value);
// for internal slots, appends any retained coefficient (global index
// LocalToGlobal(root_global, slot)). Start with slot = 1 and the chosen
// incoming grid value v. Iterative (explicit stack), but emits in exactly
// the preorder the recursive formulation would: node, left subtree, right
// subtree.
void SelectInHeap(const RowHeap& rows, int64_t root_global, double quantum,
                  int64_t slot, int64_t v, std::vector<Coefficient>* out,
                  const std::function<void(int64_t, int64_t)>& input_cb);

}  // namespace mhs

struct MhsOptions {
  double error_bound = 0.0;  // eps >= 0
  double quantum = 1.0;      // delta > 0, the quantization step
};

struct MhsResult {
  // False when the quantization grid is too coarse for the bound (no grid
  // point falls in some feasible window) — no synopsis is produced.
  bool feasible = false;
  Synopsis synopsis;
  int64_t count = 0;         // retained coefficients
  double max_abs_error = 0;  // DP-tracked error of the returned synopsis
};

// The bottom-up half of MinHaarSpace: the DP's rows up to c_1 and the
// choice of c_0. `count` and `max_abs_error` are final — they are what
// IndirectHaar's binary search ranks probes by — but no synopsis exists
// yet: MaterializeMinHaarSpace runs the top-down pass over `top`.
struct MhsProbe {
  bool feasible = false;
  int64_t count = 0;
  double max_abs_error = 0;
  MhsOptions options;
  int64_t z0 = 0;    // chosen c_0 in grid units, c_1's incoming value
  mhs::RowHeap top;  // rows over the chunk roots; slot 1 is c_1
};

// Problem 2 at options.error_bound over `data` (size a power of two, >= 2),
// bottom-up only. The tree is evaluated in two phases: chunks of
// ~sqrt(n) leaves reduce to their root rows (only O(sqrt(n)) rows are live
// at once), then `top` combines those up to c_1 — the same scheme the
// distributed version runs across workers.
MhsProbe ProbeMinHaarSpace(const std::vector<double>& data,
                           const MhsOptions& options);

// The top-down half: re-enters `top` with c_1's incoming value and each
// chunk with the value chosen above it, rebuilding the chunk's rows.
// `probe` must be feasible and come from ProbeMinHaarSpace over `data`.
// The synopsis has exactly probe.count coefficients and error
// probe.max_abs_error.
Synopsis MaterializeMinHaarSpace(const std::vector<double>& data,
                                 const MhsProbe& probe);

// Centralized MinHaarSpace: ProbeMinHaarSpace, then (when feasible)
// MaterializeMinHaarSpace.
MhsResult MinHaarSpace(const std::vector<double>& data,
                       const MhsOptions& options);

}  // namespace dwm

#endif  // DWMAXERR_CORE_MIN_HAAR_SPACE_H_
