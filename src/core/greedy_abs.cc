#include "core/greedy_abs.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>

#include "common/audit.h"
#include "common/bits.h"
#include "common/check.h"
#include "wavelet/haar.h"

namespace dwm {

namespace {

// The huge page size: a record block of at least this many bytes is its
// own mapping and starts on a multiple of it.
constexpr size_t kHugePageBytes = size_t{2} << 20;

}  // namespace

GreedyAbsTree::GreedyAbsTree(std::vector<double> coeffs, bool has_average,
                             double initial_error)
    : num_leaves_(LeafCount(coeffs)),
      has_average_(has_average),
      s_(AllocateSlots()),
      tournament_(s_, num_leaves_) {
  if constexpr (audit::kEnabled) {
    const size_t align = SlotBytes(num_leaves_) >= kHugePageBytes
                             ? kHugePageBytes
                             : alignof(Slot);
    DWM_AUDIT_CHECK(reinterpret_cast<uintptr_t>(s_) % align == 0);
  }
  PlaceSlots(coeffs, initial_error);
}

GreedyAbsTree::~GreedyAbsTree() {
  if (!heap_) munmap(s_, SlotBytes(num_leaves_));
}

int64_t GreedyAbsTree::LeafCount(const std::vector<double>& coeffs) {
  const auto n = static_cast<int64_t>(coeffs.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(n, 2);
  return n;
}

GreedyAbsTree::Slot* GreedyAbsTree::AllocateSlots() {
  const size_t bytes = SlotBytes(num_leaves_);
  if (bytes < kHugePageBytes) {
    // No huge page fits, so the block is plain malloc'd bytes, aligned by
    // hand: freed blocks are reused without a page fault, where a fresh
    // mapping faults in every 4 KB page on each run (a 256-leaf run took
    // ~40% longer that way). A std::vector<Slot> would allocate through
    // the over-aligned operator new, which is glibc's memalign: DGreedyAbs
    // allocates one block per sub-tree run, and memalign's leftover
    // fragments grew build_dgreedy's peak RSS from ~27 MB to 80-116 MB.
    heap_.reset(new std::byte[bytes + sizeof(Slot)]);
    void* first = heap_.get();
    size_t space = bytes + sizeof(Slot);
    DWM_CHECK(std::align(alignof(Slot), bytes, first, space) != nullptr);
    return static_cast<Slot*>(first);
  }
  // A huge page maps one 2 MB-aligned 2 MB range, and in THP's madvise
  // mode its size is chosen at the first touch, so the block is its own
  // mapping: over-mapped by one huge page so that a 2 MB boundary falls
  // inside it, the unaligned head and the unused tail unmapped again (the
  // block is exactly n records: a 2^16-leaf block is two huge pages, not
  // a third for a 64-byte overhang), and advised before the first write.
  // A malloc'd block is neither aligned nor unwritten.
  const size_t span = bytes + kHugePageBytes;
  void* const map = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  auto* first = static_cast<std::byte*>(map);
  const uintptr_t at = reinterpret_cast<uintptr_t>(first);
  const size_t head = (kHugePageBytes - at % kHugePageBytes) % kHugePageBytes;
  if (head != 0) munmap(first, head);
  first += head;
  munmap(first + bytes, span - head - bytes);
#ifdef MADV_HUGEPAGE
  // Only advice: a refusal leaves ordinary pages, the same records.
  madvise(first, bytes, MADV_HUGEPAGE);
#endif
  return reinterpret_cast<Slot*>(first);
}

void GreedyAbsTree::PlaceSlots(const std::vector<double>& coeffs,
                               double initial_error) {
  // One reverse pass places, keys and aggregates each record: a node's
  // children are complete before it is, and its key reads only its own,
  // just-written line. In the full decomposition err_j == initial_error
  // for every leaf, so all four extrema of every node start at that value
  // (Section 5.2). Slot 0 without the average node keeps its discarded
  // key and sits outside the aggregate.
  const int64_t first = has_average_ ? 0 : 1;
  for (int64_t slot = num_leaves_ - 1; slot >= 0; --slot) {
    new (&s_[slot]) Slot{initial_error, initial_error, initial_error,
                         initial_error, coeffs[static_cast<size_t>(slot)]};
    if (slot >= first) tournament_.SetKey(slot, MaxPotentialError(slot));
    if (slot >= 1) tournament_.Repair(slot);
  }
}

double GreedyAbsTree::MaxPotentialError(int64_t slot) const {
  const Slot& s = s_[slot];
  const double c = s.c;
  if (slot == 0) {
    // The average node has every leaf on its "left".
    return std::max(std::abs(s.max_l - c), std::abs(s.min_l - c));
  }
  // Equation 8.
  return std::max(std::max(std::abs(s.max_l - c), std::abs(s.min_l - c)),
                  std::max(std::abs(s.max_r + c), std::abs(s.min_r + c)));
}

#if defined(__SSE2__)
namespace {

// Maps one side's (max, min) lanes to (max, -min) and back: the sign-flip
// form the SSE2 paths fold and key in, where every extremum update is a
// lane-wise max.
__m128d FlipMin(__m128d side) {
  return _mm_xor_pd(side, _mm_set_pd(-0.0, 0.0));
}

// The key of a node with coefficient `c` from its flipped sides, in the
// interval form of Equation 8: for an interval [mn, mx] the farthest point
// from 0 after shifting by -c (left) or +c (right) is max(mx - c, c - mn)
// resp. max(mx + c, -mn - c) — the same value the abs form yields (their
// zeros can differ in sign, which the tournament's order key erases).
double IntervalKey(__m128d left, __m128d right, double c) {
  const __m128d vc = _mm_set_pd(c, -c);  // (-c, +c) in lane order
  const __m128d w =
      _mm_max_pd(_mm_add_pd(left, vc), _mm_sub_pd(right, vc));
  return _mm_cvtsd_f64(_mm_max_sd(w, _mm_unpackhi_pd(w, w)));
}

}  // namespace
#endif

void GreedyAbsTree::ShiftLevel(int64_t lo, int64_t hi, double delta,
                               bool has_children) {
#if defined(__SSE2__)
  // Fused shift + key recompute.
  const __m128d vdelta = _mm_set1_pd(delta);
  for (int64_t s = lo; s < hi; ++s) {
    double* const p = &s_[s].max_l;
    const __m128d m1 = _mm_add_pd(_mm_load_pd(p), vdelta);
    const __m128d m2 = _mm_add_pd(_mm_load_pd(p + 2), vdelta);
    _mm_store_pd(p, m1);
    _mm_store_pd(p + 2, m2);
    const double key = IntervalKey(FlipMin(m1), FlipMin(m2), s_[s].c);
    tournament_.Rekey(s, key, has_children);
  }
#else
  for (int64_t s = lo; s < hi; ++s) {
    Slot& t = s_[s];
    t.max_l += delta;
    t.min_l += delta;
    t.max_r += delta;
    t.min_r += delta;
    tournament_.Rekey(s, MaxPotentialError(s), has_children);
  }
#endif
}

void GreedyAbsTree::ShiftAndRefresh(int64_t lo, int64_t mid, int64_t hi,
                                    double c) {
  // One reverse level-order sweep, deepest level first: at depth h the
  // subtrees of slots [lo, hi) are the contiguous slot range [lo << h,
  // hi << h), so every level is a streaming pass over the flat slot array
  // (the -c part, then the +c part). Shifts and key recomputes are
  // per-node independent, and walking the levels children-first lets the
  // same pass rebuild the subtrees' tournament aggregates in place (a
  // node's children finished one level earlier), so the whole refresh is
  // a single traversal.
  const int64_t top = lo;
  while (2 * lo < num_leaves_) {
    lo *= 2;
    mid *= 2;
    hi *= 2;
  }
  for (; lo >= top; lo /= 2, mid /= 2, hi /= 2) {
    const bool has_children = 2 * lo < num_leaves_;
    ShiftLevel(lo, mid, -c, has_children);
    ShiftLevel(mid, hi, +c, has_children);
  }
}

void GreedyAbsTree::RefreshAncestors(int64_t slot) {
  tournament_.Repair(slot);
  for (int64_t a = slot / 2; a >= 1; a /= 2) {
#if defined(__SSE2__)
    // Each child's two sides fold into one (max, -min) pair with one max.
    // Operands in (right side, left side) order: on equal values (signed
    // zeros) maxpd returns its second operand, which is what std::max and
    // std::min return.
    const double* const l = &s_[2 * a].max_l;
    const double* const r = &s_[2 * a + 1].max_l;
    double* const t = &s_[a].max_l;
    const __m128d left =
        _mm_max_pd(FlipMin(_mm_load_pd(l + 2)), FlipMin(_mm_load_pd(l)));
    const __m128d right =
        _mm_max_pd(FlipMin(_mm_load_pd(r + 2)), FlipMin(_mm_load_pd(r)));
    _mm_store_pd(t, FlipMin(left));
    _mm_store_pd(t + 2, FlipMin(right));
    tournament_.Rekey(a, IntervalKey(left, right, s_[a].c),
                      /*has_children=*/true);
#else
    const Slot& left = s_[2 * a];
    const Slot& right = s_[2 * a + 1];
    Slot& t = s_[a];
    t.max_l = std::max(left.max_l, left.max_r);
    t.min_l = std::min(left.min_l, left.min_r);
    t.max_r = std::max(right.max_l, right.max_r);
    t.min_r = std::min(right.min_l, right.min_r);
    tournament_.Rekey(a, MaxPotentialError(a), /*has_children=*/true);
#endif
  }
  if (has_average_) {
    const Slot& top = s_[1];
    Slot& avg = s_[0];
    avg.max_l = std::max(top.max_l, top.max_r);
    avg.min_l = std::min(top.min_l, top.min_r);
    avg.max_r = avg.max_l;
    avg.min_r = avg.min_l;
    if (tournament_.alive(0)) tournament_.SetKey(0, MaxPotentialError(0));
  }
}

void GreedyAbsTree::DiscardAndRefresh(int64_t slot) {
  Slot& s = s_[slot];
  const double c = s.c;
  // A zero coefficient moves nothing: every extremum keeps its value and
  // every key is unchanged, so the walks can be skipped. (The reference
  // formulation would add +/-0.0 everywhere, which can at most flip the
  // sign of a zero-valued extremum — invisible downstream, since extrema
  // only reach keys, events and outputs through std::abs.) Only the
  // tournament aggregates still need repairing: the discarded slot's key
  // became +inf, and every ancestor's aggregate held it.
  if (c == 0.0) {
    tournament_.RepairPath(slot);
    return;
  }
  if (slot == 0) {
    // Every leaf loses +c_0: errs shift by -c_0 everywhere.
    ShiftAndRefresh(1, 2, 2, c);
    s.max_l -= c;
    s.min_l -= c;
    s.max_r = s.max_l;
    s.min_r = s.min_l;
    return;
  }
  // The ancestor walk is a dependent chain of scattered loads (each level
  // reads the sibling subtree's record, an address far from the last);
  // issuing the whole chain's prefetches before the subtree sweep overlaps
  // those misses with it instead of serializing them. A level's two
  // children are the adjacent lines 2a and 2a + 1, and its own line is a
  // child line one level up.
  for (int64_t a = slot / 2; a >= 1; a /= 2) {
    __builtin_prefetch(&s_[2 * a]);
    __builtin_prefetch(&s_[2 * a + 1]);
  }
  if (!IsBottom(slot)) ShiftAndRefresh(2 * slot, 2 * slot + 1, 2 * slot + 2, c);
  s.max_l -= c;
  s.min_l -= c;
  s.max_r += c;
  s.min_r += c;
  RefreshAncestors(slot);
}

double GreedyAbsTree::CurrentMaxError() const {
  if (has_average_) {
    const Slot& s = s_[0];
    return std::max(std::abs(s.max_l), std::abs(s.min_l));
  }
  const Slot& s = s_[1];
  return std::max(std::max(std::abs(s.max_l), std::abs(s.min_l)),
                  std::max(std::abs(s.max_r), std::abs(s.min_r)));
}

HeapDiscardEvent GreedyAbsTree::DiscardNext() {
  const int64_t slot = tournament_.Top();
  tournament_.Discard(slot);
  DiscardAndRefresh(slot);
  return {slot, CurrentMaxError()};
}

DiscardTail::DiscardTail(int64_t num_events, int64_t budget)
    : num_events_(num_events),
      ring_(static_cast<size_t>(
          std::clamp<int64_t>(budget, 0, num_events - 1) + 1)) {
  DWM_CHECK_GE(num_events, 1);
}

const HeapDiscardEvent& DiscardTail::FromEnd(int64_t back) const {
  const auto size = static_cast<int64_t>(ring_.size());
  DWM_CHECK(back >= 0 && back < size && back < count_);
  const int64_t i = static_cast<int64_t>(next_) - 1 - back;
  return ring_[static_cast<size_t>(i < 0 ? i + size : i)];
}

GreedyPrefix BestGreedyPrefix(
    const DiscardTail& tail, int64_t budget,
    const std::function<double(int64_t)>& coefficient) {
  const int64_t n = tail.num_events();
  DWM_CHECK_EQ(tail.count(), n);
  budget = std::clamp<int64_t>(budget, 0, n);
  // Keeping m coefficients is the prefix that stops before the last m
  // discards.
  GreedyPrefix best;
  best.error = std::numeric_limits<double>::infinity();
  int64_t best_m = 0;
  for (int64_t m = 0; m <= budget; ++m) {
    const double err = (m == n) ? 0.0 : tail.FromEnd(m).error;
    if (err < best.error) {
      best.error = err;
      best_m = m;
    }
  }

  std::vector<Coefficient> retained;
  retained.reserve(static_cast<size_t>(best_m));
  for (int64_t back = 0; back < best_m; ++back) {
    const int64_t slot = tail.FromEnd(back).slot;
    const double value = coefficient(slot);
    if (value != 0.0) retained.push_back({slot, value});
  }
  best.synopsis = Synopsis(n, std::move(retained));
  return best;
}

GreedyAbsResult GreedyAbsFromCoeffs(std::vector<double> coeffs,
                                    int64_t budget) {
  const int64_t n = static_cast<int64_t>(coeffs.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  GreedyAbsResult result;
  if (n == 1) {
    if (budget >= 1 && coeffs[0] != 0.0) {
      result.synopsis = Synopsis(1, {{0, coeffs[0]}});
      result.max_abs_error = 0.0;
    } else {
      result.synopsis = Synopsis(1, {});
      result.max_abs_error = std::abs(coeffs[0]);
    }
  } else {
    GreedyAbsTree tree(std::move(coeffs), /*has_average=*/true,
                       /*initial_error=*/0.0);
    DiscardTail tail(n, budget);
    tree.Run(tail);
    GreedyPrefix best = BestGreedyPrefix(
        tail, budget, [&tree](int64_t slot) { return tree.coefficient(slot); });
    result.synopsis = std::move(best.synopsis);
    result.max_abs_error = best.error;
  }
  // The winning prefix may keep exactly-zero coefficients that the
  // synopsis drops, so the reported count follows the synopsis (within the
  // budget a fortiori).
  result.retained = result.synopsis.size();
  return result;
}

GreedyAbsResult GreedyAbs(const std::vector<double>& data, int64_t budget) {
  return GreedyAbsFromCoeffs(ForwardHaar(data), budget);
}

}  // namespace dwm
