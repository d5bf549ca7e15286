#include "core/min_haar_space.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/bits.h"
#include "common/check.h"
#include "wavelet/error_tree.h"

namespace dwm {
namespace mhs {
namespace {

// Largest grid magnitude the DP will address. Chosen so that every int64
// expression over clamped indices (l.lo + r.lo in CombineRows, 2*v - a in
// the choice scan) stays well inside the representable range:
// 3 * kGridLimit < 2^63.
constexpr int64_t kGridLimit = int64_t{1} << 61;

// Converts a rounded grid coordinate to an index, clamping out-of-range
// (and NaN) values instead of hitting the UB of a raw out-of-range
// static_cast. Clamped windows carry no feasible cells (per-cell
// feasibility is re-checked exactly against the real data), so an
// out-of-range window degrades to "grid too coarse", never to wrap-around.
int64_t ToGridIndex(double r) {
  constexpr double kLimit = 2305843009213693952.0;  // 2^61, exactly
  if (!(r > -kLimit)) return -kGridLimit;           // also catches NaN
  if (r >= kLimit) return kGridLimit;
  return static_cast<int64_t>(r);
}

// Tolerance for window endpoints landing (up to fp noise) on a grid point:
// absolute 1e-9 near the origin (the historical behavior), scaling
// relatively once 1e-9 would vanish below one ulp of x/quantum (at
// |x/quantum| ~ 1e7). 1e-15 is ~4.5 ulps, enough to absorb the one rounding
// each of x/quantum and the caller's endpoint arithmetic contribute.
// Per-cell feasibility is re-checked exactly, so slack only widens rows by
// dead (trimmed) cells, and by O(1) of them since it is O(ulp).
double GridSlack(double r) { return std::max(1e-9, std::abs(r) * 1e-15); }

// Grid index helpers: smallest / largest grid index whose point could be
// >= x (resp. <= x) up to fp noise.
int64_t GridCeil(double x, double quantum) {
  const double r = x / quantum;
  if (!std::isfinite(r)) return r > 0 ? kGridLimit : -kGridLimit;
  return ToGridIndex(std::ceil(r - GridSlack(r)));
}
int64_t GridFloor(double x, double quantum) {
  const double r = x / quantum;
  if (!std::isfinite(r)) return r > 0 ? kGridLimit : -kGridLimit;
  return ToGridIndex(std::floor(r + GridSlack(r)));
}

// floor/ceil of x/2 for possibly negative x.
int64_t FloorHalf(int64_t x) { return x >> 1; }
int64_t CeilHalf(int64_t x) { return -((-x) >> 1); }

// Branch-light core of BestChoice over raw cell windows [llo, lhi] and
// [rlo, rhi] (both non-empty). The z != 0 scan is clipped to the a-range
// where both children are in-window, so the inner loop carries no bounds
// checks or Find() calls; infeasible cells participate harmlessly because
// their count (>= kInfCount) can never beat a feasible candidate. This
// reproduces the reference BestChoice exactly: same candidate set, same
// z = 0 priority, same ascending-a order, same strict (count, err)
// tie-break.
Choice BestChoiceCells(const Cell* lc, int64_t llo, int64_t lhi,
                       const Cell* rc, int64_t rlo, int64_t rhi, int64_t v) {
  Choice best;
  // z = 0: the coefficient is dropped, both children inherit v.
  if (v >= llo && v <= lhi && v >= rlo && v <= rhi) {
    const Cell& cl = lc[v - llo];
    const Cell& cr = rc[v - rlo];
    if (cl.feasible() && cr.feasible()) {
      best.cell = {cl.count + cr.count, std::max(cl.err, cr.err)};
    }
  }
  // z != 0: retain the coefficient with value z = (a - v) * quantum; the
  // right child then receives b = v - z = 2v - a, so the left index walks
  // up while the right index walks down.
  const int64_t a_lo = std::max(llo, 2 * v - rhi);
  const int64_t a_hi = std::min(lhi, 2 * v - rlo);
  constexpr int64_t kNone = std::numeric_limits<int64_t>::min();
  int32_t best_count = best.cell.count;
  double best_err = best.cell.err;
  int64_t best_a = kNone;
  int64_t li = a_lo - llo;
  int64_t ri = 2 * v - a_lo - rlo;
  for (int64_t a = a_lo; a <= a_hi; ++a, ++li, --ri) {
    const int32_t count = 1 + lc[li].count + rc[ri].count;
    const double err = std::max(lc[li].err, rc[ri].err);
    const bool better =
        count < best_count || (count == best_count && err < best_err);
    best_a = better ? a : best_a;
    best_count = better ? count : best_count;
    best_err = better ? err : best_err;
  }
  if (best_a != kNone) {
    best.cell = {best_count, best_err};
    best.z_grid = best_a - v;
  }
  return best;
}

// Fills out[0 .. phi - plo] with the best-choice cells of the parent window
// [plo, phi] over the given child windows. `scratch` is caller-provided
// working memory so tight combine loops can reuse one allocation.
//
// Scatter formulation: the reference computes, per parent value v, the
// lexicographic (count, err) minimum over the z = 0 candidate and the
// z != 0 candidates (a, b = 2v - a). Scanning per v walks the same (a, b)
// anti-diagonals over and over; here the pair grid is walked once. For a
// fixed left index a every candidate's right index b shares a's parity
// (a + b = 2v is even), and those b land on consecutive parent values
// v = (a + b) / 2 — so with the right row pre-packed by parity the inner
// loop is a contiguous streaming min-fold of branch-free selects the
// compiler can vectorize. Counts are widened to doubles (exact: they stay
// far below 2^53) so count and error occupy same-width lanes.
//
// Equivalence with the per-v reference: the z = 0 candidate seeds each
// output slot before any scan candidate folds in, the outer loop ascends in
// a, and the "better" test is strict — identical candidate set, priority
// and tie-breaks. Infeasible candidates fold in harmlessly: their count is
// >= kInfCount so they never displace a feasible cell, and the final pass
// normalizes every still-infeasible slot to the exact reference cell
// Cell{} == {kInfCount, +inf}. (This assumes feasible counts stay below
// kInfCount, which holds for any addressable input: a count never exceeds
// the number of coefficient nodes under the row.)
void CombineCells(const Cell* lc, int64_t llo, int64_t lhi, const Cell* rc,
                  int64_t rlo, int64_t rhi, int64_t plo, int64_t phi,
                  Cell* out, std::vector<double>* scratch) {
  const int64_t wl = lhi - llo + 1;
  const int64_t wr = rhi - rlo + 1;
  const int64_t m = phi - plo + 1;
  constexpr double kInf = static_cast<double>(Cell::kInfCount);
  const double inf = std::numeric_limits<double>::infinity();
  // Layout: out counts [m] | out errs [m] | right row packed by index
  // parity, counts then errs, one half-size array per parity.
  const int64_t h = wr / 2 + 1;
  scratch->resize(static_cast<size_t>(2 * m + 4 * h));
  double* const ocnt = scratch->data();
  double* const oerr = ocnt + m;
  double* const rp_cnt[2] = {oerr + m, oerr + m + h};
  double* const rp_err[2] = {oerr + m + 2 * h, oerr + m + 3 * h};
  // b with b & 1 == p lands at rp_*[p][(b - b0[p]) >> 1].
  const int64_t b0[2] = {rlo + (rlo & 1), rlo + ((rlo ^ 1) & 1)};
  for (int64_t i = 0; i < wr; ++i) {
    const int p = static_cast<int>((rlo + i) & 1);
    rp_cnt[p][i >> 1] = static_cast<double>(rc[i].count);
    rp_err[p][i >> 1] = rc[i].err;
  }
  // Seed with the z = 0 candidates (both children inherit v, no +1).
  for (int64_t i = 0; i < m; ++i) {
    ocnt[i] = kInf;
    oerr[i] = inf;
  }
  const int64_t z_lo = std::max(plo, std::max(llo, rlo));
  const int64_t z_hi = std::min(phi, std::min(lhi, rhi));
  for (int64_t v = z_lo; v <= z_hi; ++v) {
    ocnt[v - plo] = static_cast<double>(lc[v - llo].count) +
                    static_cast<double>(rc[v - rlo].count);
    oerr[v - plo] = std::max(lc[v - llo].err, rc[v - rlo].err);
  }
  // Fold in the z != 0 candidates, one left index at a time. An infeasible
  // left cell only ever produces candidates with count >= kInfCount + 1,
  // none of which can survive the feasibility clamp below, so its whole
  // row is skipped without changing the output.
  for (int64_t ai = 0; ai < wl; ++ai) {
    if (lc[ai].count >= Cell::kInfCount) continue;
    const int64_t a = llo + ai;
    int64_t bs = std::max(rlo, 2 * plo - a);
    int64_t be = std::min(rhi, 2 * phi - a);
    bs += (bs ^ a) & 1;  // round up to a's parity
    be -= (be ^ a) & 1;  // round down to a's parity
    if (bs > be) continue;
    const int p = static_cast<int>(bs & 1);
    const double* const rcv = rp_cnt[p] + ((bs - b0[p]) >> 1);
    const double* const rev = rp_err[p] + ((bs - b0[p]) >> 1);
    double* const oc = ocnt + ((a + bs) / 2 - plo);
    double* const oe = oerr + ((a + bs) / 2 - plo);
    const double base_cnt = 1.0 + static_cast<double>(lc[ai].count);
    const double base_err = lc[ai].err;
    const int64_t k = ((be - bs) >> 1) + 1;
    int64_t j = 0;
#if defined(__SSE2__)
    // Two candidates per iteration; every lane computes exactly the scalar
    // expressions below (MAXPD is the `x > y ? x : y` select, the compare
    // masks implement the strict lexicographic test), so the fold is
    // byte-identical to the scalar tail.
    const __m128d vbc = _mm_set1_pd(base_cnt);
    const __m128d vbe = _mm_set1_pd(base_err);
    for (; j + 2 <= k; j += 2) {
      const __m128d c = _mm_add_pd(vbc, _mm_loadu_pd(rcv + j));
      const __m128d e = _mm_max_pd(vbe, _mm_loadu_pd(rev + j));
      const __m128d oc2 = _mm_loadu_pd(oc + j);
      const __m128d oe2 = _mm_loadu_pd(oe + j);
      const __m128d better =
          _mm_or_pd(_mm_cmplt_pd(c, oc2),
                    _mm_and_pd(_mm_cmpeq_pd(c, oc2), _mm_cmplt_pd(e, oe2)));
      _mm_storeu_pd(oc + j, _mm_or_pd(_mm_and_pd(better, c),
                                      _mm_andnot_pd(better, oc2)));
      _mm_storeu_pd(oe + j, _mm_or_pd(_mm_and_pd(better, e),
                                      _mm_andnot_pd(better, oe2)));
    }
#endif
    for (; j < k; ++j) {
      const double c = base_cnt + rcv[j];
      const double e = base_err > rev[j] ? base_err : rev[j];
      const bool better = (c < oc[j]) | ((c == oc[j]) & (e < oe[j]));
      oc[j] = better ? c : oc[j];
      oe[j] = better ? e : oe[j];
    }
  }
  for (int64_t i = 0; i < m; ++i) {
    out[i] = (ocnt[i] < kInf) ? Cell{static_cast<int32_t>(ocnt[i]), oerr[i]}
                              : Cell{};
  }
}

// A row placed in a cell buffer: its grid lo and length (lo = 0 and
// len = 0 when infeasible).
struct Window {
  int64_t lo = 0;
  int64_t len = 0;
};

// Shifts the feasible middle of the row [lo, lo + len) stored at `cells`
// to its front, in place, and returns the trimmed window.
Window TrimCells(Cell* cells, int64_t lo, int64_t len) {
  int64_t begin = 0;
  int64_t end = len;
  while (begin < end && !cells[begin].feasible()) ++begin;
  while (end > begin && !cells[end - 1].feasible()) --end;
  if (begin == end) return Window{};
  if (begin > 0) std::copy(cells + begin, cells + end, cells);
  return {lo + begin, end - begin};
}

// Resizes `cells` to n, growing its capacity at least geometrically, so a
// buffer reused for many rows of similar width reallocates O(log w) times
// rather than once per row.
void GrowCells(std::vector<Cell>* cells, size_t n) {
  if (n > cells->capacity()) {
    cells->reserve(std::max(n, 2 * cells->capacity()));
  }
  cells->resize(n);
}

// Grid window [*lo, *hi] of the bottom node over the data pair (a, b): the
// grid points within eps of the pair average, up to fp slack (per-cell
// feasibility is re-checked exactly). Empty when *lo > *hi.
void PairWindow(double a, double b, double eps, double quantum, int64_t* lo,
                int64_t* hi) {
  const double avg = (a + b) / 2.0;
  *lo = GridCeil(avg - eps, quantum);
  *hi = GridFloor(avg + eps, quantum);
}

// Appends the M-row of the bottom node over (a, b) to `out`, trimmed in
// place. The one transcription of the pair-row formula.
Window AppendPairRow(double a, double b, double eps, double quantum,
                     std::vector<Cell>* out) {
  int64_t lo = 0;
  int64_t hi = 0;
  PairWindow(a, b, eps, quantum, &lo, &hi);
  if (lo > hi) return Window{};
  const double avg = (a + b) / 2.0;
  const size_t offset = out->size();
  const int64_t len = hi - lo + 1;
  GrowCells(out, offset + static_cast<size_t>(len));
  Cell* const cells = out->data() + offset;
  for (int64_t g = lo; g <= hi; ++g) {
    const double v = static_cast<double>(g) * quantum;
    Cell& cell = cells[g - lo];
    const double direct = std::max(std::abs(v - a), std::abs(v - b));
    const double corrected = std::abs(v - avg);
    if (direct <= eps) {
      cell = {0, direct};
    } else if (corrected <= eps) {
      cell = {1, corrected};
    }
  }
  const Window w = TrimCells(cells, lo, len);
  out->resize(offset + static_cast<size_t>(w.len));
  return w;
}

// Parent grid window [*plo, *phi] of the child windows [llo, lhi] and
// [rlo, rhi]: a parent's feasible values are the averages of its
// children's, rounded inward. Empty when *plo > *phi.
void ParentWindow(int64_t llo, int64_t lhi, int64_t rlo, int64_t rhi,
                  int64_t* plo, int64_t* phi) {
  *plo = CeilHalf(llo + rlo);
  *phi = FloorHalf(lhi + rhi);
}

// A row stored in a cell buffer, addressed by offset rather than pointer so
// it stays valid while cells are appended to that same buffer.
struct RowRef {
  const std::vector<Cell>* cells;
  int64_t offset;
  int64_t lo;
  int64_t len;
};

RowRef Ref(const Row& row) {
  return {&row.cells, 0, row.lo, static_cast<int64_t>(row.cells.size())};
}

// Appends the M-row of the parent of `l` and `r` to `out`, trimmed in
// place; `out` may be the buffer the children live in (the RowHeap arena).
// `scratch` is CombineCells' reusable working memory.
Window AppendCombined(const RowRef& l, const RowRef& r,
                      std::vector<Cell>* out, std::vector<double>* scratch) {
  if (l.len == 0 || r.len == 0) return Window{};
  int64_t plo = 0;
  int64_t phi = 0;
  ParentWindow(l.lo, l.lo + l.len - 1, r.lo, r.lo + r.len - 1, &plo, &phi);
  if (plo > phi) return Window{};
  const size_t offset = out->size();
  const int64_t len = phi - plo + 1;
  // Grow first: child cell pointers are taken after any reallocation.
  GrowCells(out, offset + static_cast<size_t>(len));
  Cell* const cells = out->data() + offset;
  CombineCells(l.cells->data() + l.offset, l.lo, l.lo + l.len - 1,
               r.cells->data() + r.offset, r.lo, r.lo + r.len - 1, plo, phi,
               cells, scratch);
  const Window w = TrimCells(cells, plo, len);
  out->resize(offset + static_cast<size_t>(w.len));
  return w;
}

}  // namespace

void Row::Trim() {
  const Window w =
      TrimCells(cells.data(), lo, static_cast<int64_t>(cells.size()));
  lo = w.lo;
  cells.resize(static_cast<size_t>(w.len));
}

Row PairRow(double a, double b, double eps, double quantum) {
  DWM_CHECK_GE(eps, 0.0);
  DWM_CHECK_GT(quantum, 0.0);
  Row row;
  row.lo = AppendPairRow(a, b, eps, quantum, &row.cells).lo;
  return row;
}

Choice BestChoice(const Row& left, const Row& right, int64_t v) {
  Choice best;
  if (!left.feasible() || !right.feasible()) return best;
  // z = 0: the coefficient is dropped, both children inherit v.
  if (const Cell* cl = left.Find(v)) {
    if (const Cell* cr = right.Find(v)) {
      if (cl->feasible() && cr->feasible()) {
        best.cell = {cl->count + cr->count, std::max(cl->err, cr->err)};
        best.z_grid = 0;
      }
    }
  }
  // z != 0: retain the coefficient with value z = (a - v) * quantum; the
  // right child then receives b = v - z = 2v - a.
  for (int64_t a = left.lo; a <= left.hi(); ++a) {
    const Cell& cl = left.cells[static_cast<size_t>(a - left.lo)];
    if (!cl.feasible()) continue;
    const Cell* cr = right.Find(2 * v - a);
    if (cr == nullptr || !cr->feasible()) continue;
    const Cell cand{1 + cl.count + cr->count, std::max(cl.err, cr->err)};
    if (cand.Better(best.cell)) {
      best.cell = cand;
      best.z_grid = a - v;
    }
  }
  return best;
}

Row CombineRows(const Row& left, const Row& right) {
  Row row;
  std::vector<double> scratch;
  row.lo = AppendCombined(Ref(left), Ref(right), &row.cells, &scratch).lo;
  return row;
}

Row CombineRowsReference(const Row& left, const Row& right) {
  if (!left.feasible() || !right.feasible()) return Row{};
  Row row;
  int64_t hi = 0;
  ParentWindow(left.lo, left.hi(), right.lo, right.hi(), &row.lo, &hi);
  if (row.lo > hi) return Row{};
  row.cells.resize(static_cast<size_t>(hi - row.lo + 1));
  for (int64_t v = row.lo; v <= hi; ++v) {
    row.cells[static_cast<size_t>(v - row.lo)] =
        BestChoice(left, right, v).cell;
  }
  row.Trim();
  return row;
}

Row RowHeap::CopyRow(int64_t slot) const {
  const Span& s = span(slot);
  Row row;
  if (s.len == 0) return row;
  row.lo = s.lo;
  row.cells.assign(cells_.begin() + s.offset,
                   cells_.begin() + s.offset + s.len);
  return row;
}

RowHeap BuildRowHeap(const std::vector<Row>& inputs) {
  const int64_t width = static_cast<int64_t>(inputs.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(width)));
  RowHeap heap;
  heap.width_ = width;
  heap.spans_.resize(static_cast<size_t>(2 * width));
  int64_t total = 0;
  for (const Row& row : inputs) {
    total += static_cast<int64_t>(row.cells.size());
  }
  heap.cells_.reserve(static_cast<size_t>(2 * total + 16));
  for (int64_t t = 0; t < width; ++t) {
    const Row& row = inputs[static_cast<size_t>(t)];
    RowHeap::Span& sp = heap.spans_[static_cast<size_t>(width + t)];
    sp.lo = row.lo;
    sp.offset = static_cast<int64_t>(heap.cells_.size());
    sp.len = static_cast<int64_t>(row.cells.size());
    heap.cells_.insert(heap.cells_.end(), row.cells.begin(), row.cells.end());
  }
  heap.SweepUp();
  return heap;
}

RowHeap BuildPairRowHeap(const double* data, int64_t len, double eps,
                         double quantum) {
  DWM_CHECK_GE(len, 2);
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(len)));
  DWM_CHECK_GE(eps, 0.0);
  DWM_CHECK_GT(quantum, 0.0);
  const int64_t width = len / 2;
  RowHeap heap;
  heap.width_ = width;
  heap.spans_.resize(static_cast<size_t>(2 * width));
  // Counting pass: the untrimmed pair windows bound the input cells, so the
  // arena is sized from the windows actually produced (saturating: a sum
  // that large could never be allocated anyway).
  int64_t total = 0;
  for (int64_t u = 0; u < width; ++u) {
    int64_t lo = 0;
    int64_t hi = 0;
    PairWindow(data[2 * u], data[2 * u + 1], eps, quantum, &lo, &hi);
    if (lo <= hi) total = std::min(total + (hi - lo + 1), kGridLimit);
  }
  heap.cells_.reserve(static_cast<size_t>(2 * total + 16));
  for (int64_t u = 0; u < width; ++u) {
    const int64_t offset = static_cast<int64_t>(heap.cells_.size());
    const Window w = AppendPairRow(data[2 * u], data[2 * u + 1], eps, quantum,
                                   &heap.cells_);
    heap.spans_[static_cast<size_t>(width + u)] = {w.lo, offset, w.len};
  }
  heap.SweepUp();
  return heap;
}

void RowHeap::SweepUp() {
  // Feasible windows shrink going up (width <= 2*eps everywhere), so the
  // whole pyramid fits in about twice the input cells the builders
  // reserved; growth past that is the exception, not the rule.
  std::vector<double> scratch;
  for (int64_t level = width_ / 2; level >= 1; level /= 2) {
    for (int64_t s = level; s < 2 * level; ++s) {
      const Span l = spans_[static_cast<size_t>(2 * s)];
      const Span r = spans_[static_cast<size_t>(2 * s + 1)];
      const int64_t offset = static_cast<int64_t>(cells_.size());
      const Window w =
          AppendCombined({&cells_, l.offset, l.lo, l.len},
                         {&cells_, r.offset, r.lo, r.len}, &cells_, &scratch);
      spans_[static_cast<size_t>(s)] = {w.lo, offset, w.len};
    }
  }
}

Choice BestChoiceAt(const RowHeap& rows, int64_t slot, int64_t v) {
  DWM_CHECK_GE(slot, 1);
  DWM_CHECK_LT(slot, rows.width_);
  const RowHeap::Span& l = rows.spans_[static_cast<size_t>(2 * slot)];
  const RowHeap::Span& r = rows.spans_[static_cast<size_t>(2 * slot + 1)];
  if (l.len == 0 || r.len == 0) return Choice{};
  return BestChoiceCells(rows.cells_.data() + l.offset, l.lo,
                         l.lo + l.len - 1, rows.cells_.data() + r.offset,
                         r.lo, r.lo + r.len - 1, v);
}

Row ComputeRowOverData(const double* data, int64_t len, double eps,
                       double quantum) {
  DWM_CHECK_GE(len, 2);
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(len)));
  DWM_CHECK_GE(eps, 0.0);
  DWM_CHECK_GT(quantum, 0.0);
  // Left-to-right fold in binary-counter order: after pair u, pending[k]
  // holds the finished row of the most recent complete 2^k-pair subtree
  // whose right sibling is still open, and each new pair row carries up
  // through them. This combines exactly the children the recursive
  // definition would, with one reused buffer per level. Any infeasible
  // row makes every ancestor infeasible, so the fold stops there.
  const int64_t width = len / 2;
  std::vector<Row> pending(
      static_cast<size_t>(Log2Exact(static_cast<uint64_t>(width))));
  Row cur;
  Row next;
  std::vector<double> scratch;
  for (int64_t u = 0;; ++u) {
    cur.cells.clear();
    cur.lo = AppendPairRow(data[2 * u], data[2 * u + 1], eps, quantum,
                           &cur.cells)
                 .lo;
    size_t k = 0;
    for (; (u >> k) & 1; ++k) {
      if (!cur.feasible()) return Row{};
      next.cells.clear();
      next.lo =
          AppendCombined(Ref(pending[k]), Ref(cur), &next.cells, &scratch).lo;
      std::swap(cur, next);
    }
    if (!cur.feasible()) return Row{};
    if (u + 1 == width) return cur;  // every level carried: the slice root
    std::swap(pending[k], cur);
  }
}

Choice ChooseAverage(const Row& row1) {
  Choice best;
  if (const Cell* cell = row1.Find(0)) {
    if (cell->feasible()) best.cell = *cell;
  }
  for (int64_t g = row1.lo; g <= row1.hi(); ++g) {
    const Cell& cell = row1.cells[static_cast<size_t>(g - row1.lo)];
    if (!cell.feasible() || g == 0) continue;
    const Cell cand{cell.count + 1, cell.err};
    if (cand.Better(best.cell)) {
      best.cell = cand;
      best.z_grid = g;
    }
  }
  return best;
}

void SelectOverData(const double* data, int64_t len, int64_t root_global,
                    double eps, double quantum, int64_t v,
                    std::vector<Coefficient>* out) {
  // A one-pair slice is a heap whose root is its only input, so the walk
  // goes straight to the callback.
  const RowHeap heap = BuildPairRowHeap(data, len, eps, quantum);
  const int64_t width = heap.width();
  SelectInHeap(heap, root_global, quantum, /*slot=*/1, v, out,
               [&](int64_t u, int64_t pv) {
                 // A bottom pair node retains its coefficient iff its cell
                 // counts one.
                 const Cell* cell = heap.Find(width + u, pv);
                 DWM_CHECK(cell != nullptr && cell->feasible());
                 if (cell->count == 1) {
                   out->push_back({LocalToGlobal(root_global, width + u),
                                   (data[2 * u] - data[2 * u + 1]) / 2.0});
                 }
               });
}

void SelectInHeap(const RowHeap& rows, int64_t root_global, double quantum,
                  int64_t slot, int64_t v, std::vector<Coefficient>* out,
                  const std::function<void(int64_t, int64_t)>& input_cb) {
  const int64_t width = rows.width();
  struct Frame {
    int64_t slot = 0;
    int64_t v = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({slot, v});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.slot >= width) {
      input_cb(f.slot - width, f.v);
      continue;
    }
    const Choice choice = BestChoiceAt(rows, f.slot, f.v);
    DWM_CHECK(choice.cell.feasible());
    if (choice.z_grid != 0) {
      out->push_back({LocalToGlobal(root_global, f.slot),
                      static_cast<double>(choice.z_grid) * quantum});
    }
    const int64_t vl = f.v + choice.z_grid;
    const int64_t vr = f.v - choice.z_grid;
    const Cell* cl = rows.Find(2 * f.slot, vl);
    const Cell* cr = rows.Find(2 * f.slot + 1, vr);
    DWM_CHECK(cl != nullptr && cl->feasible());
    DWM_CHECK(cr != nullptr && cr->feasible());
    // Right is pushed first so the left subtree pops (and emits) first:
    // exactly the node / left-subtree / right-subtree preorder of the
    // recursive formulation.
    if (cr->count > 0) stack.push_back({2 * f.slot + 1, vr});
    if (cl->count > 0) stack.push_back({2 * f.slot, vl});
  }
}

}  // namespace mhs

MhsProbe ProbeMinHaarSpace(const std::vector<double>& data,
                           const MhsOptions& options) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(n, 2);
  DWM_CHECK_GE(options.error_bound, 0.0);
  DWM_CHECK_GT(options.quantum, 0.0);
  const double eps = options.error_bound;
  const double q = options.quantum;

  const int log_n = Log2Exact(static_cast<uint64_t>(n));
  const int64_t chunk = int64_t{1} << (log_n + 1) / 2;  // K in [2, n]
  const int64_t num_chunks = n / chunk;

  std::vector<mhs::Row> chunk_rows(static_cast<size_t>(num_chunks));
  for (int64_t t = 0; t < num_chunks; ++t) {
    chunk_rows[static_cast<size_t>(t)] =
        mhs::ComputeRowOverData(data.data() + t * chunk, chunk, eps, q);
  }
  MhsProbe probe;
  probe.options = options;
  probe.top = mhs::BuildRowHeap(chunk_rows);
  const mhs::Choice c0 = mhs::ChooseAverage(probe.top.CopyRow(1));
  if (!c0.cell.feasible()) return probe;
  probe.feasible = true;
  probe.count = c0.cell.count;
  probe.max_abs_error = c0.cell.err;
  probe.z0 = c0.z_grid;
  return probe;
}

Synopsis MaterializeMinHaarSpace(const std::vector<double>& data,
                                 const MhsProbe& probe) {
  DWM_CHECK(probe.feasible);
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t num_chunks = probe.top.width();
  const int64_t chunk = n / num_chunks;
  DWM_CHECK_EQ(chunk * num_chunks, n);
  const double eps = probe.options.error_bound;
  const double q = probe.options.quantum;

  std::vector<Coefficient> coeffs;
  if (probe.z0 != 0) coeffs.push_back({0, static_cast<double>(probe.z0) * q});
  const mhs::Cell* root_cell = probe.top.Find(1, probe.z0);
  DWM_CHECK(root_cell != nullptr && root_cell->feasible());
  if (root_cell->count > 0) {
    mhs::SelectInHeap(probe.top, /*root_global=*/1, q, /*slot=*/1, probe.z0,
                      &coeffs, [&](int64_t t, int64_t v) {
                        mhs::SelectOverData(data.data() + t * chunk, chunk,
                                            num_chunks + t, eps, q, v,
                                            &coeffs);
                      });
  }
  Synopsis synopsis(n, std::move(coeffs));
  DWM_CHECK_EQ(synopsis.size(), probe.count);
  return synopsis;
}

MhsResult MinHaarSpace(const std::vector<double>& data,
                       const MhsOptions& options) {
  const MhsProbe probe = ProbeMinHaarSpace(data, options);
  MhsResult result;
  if (!probe.feasible) return result;
  result.feasible = true;
  result.count = probe.count;
  result.max_abs_error = probe.max_abs_error;
  result.synopsis = MaterializeMinHaarSpace(data, probe);
  return result;
}

}  // namespace dwm
