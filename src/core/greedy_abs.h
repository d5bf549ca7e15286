// GreedyAbs (Karras & Mamoulis, VLDB'05; Section 5.1 of the paper):
// one-pass greedy thresholding for the maximum absolute error metric.
//
// The reusable core, GreedyAbsTree, runs the discard loop over an error
// (sub)tree given in heap order, so the same machinery serves:
//  - the centralized full-tree algorithm (GreedyAbs),
//  - the root sub-tree run of genRootSets (Algorithm 4),
//  - the per-base-sub-tree runs of DGreedyAbs level-1 workers (Algorithm 6).
#ifndef DWMAXERR_CORE_GREEDY_ABS_H_
#define DWMAXERR_CORE_GREEDY_ABS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/discard_tournament.h"
#include "wavelet/synopsis.h"

namespace dwm {

// One greedy discard: the heap slot of the removed coefficient and the
// running maximum absolute error immediately after the removal (over the
// leaves of the tree being processed, including any initial incoming error).
struct HeapDiscardEvent {
  int64_t slot = 0;
  double error = 0.0;
};

// The greedy discard loop over one complete binary error (sub)tree.
//
// `coeffs` is in heap order with `coeffs.size()` a power of two (the number
// of leaves). Slots 1..size-1 are detail coefficients (slot 1 is the subtree
// root). If `has_average` is true, slot 0 is the overall-average node c_0
// (the unary parent of slot 1, all leaves on its "left"); otherwise slot 0
// is ignored. `initial_error` is the uniform signed incoming error e_in of
// all leaves (Section 5.2). The records take one 64-byte line per slot;
// a block of 2 MB or more is its own anonymous mapping on huge pages, and
// a failed mapping throws std::bad_alloc.
class GreedyAbsTree {
 public:
  GreedyAbsTree(std::vector<double> coeffs, bool has_average,
                double initial_error);
  ~GreedyAbsTree();
  GreedyAbsTree(const GreedyAbsTree&) = delete;
  GreedyAbsTree& operator=(const GreedyAbsTree&) = delete;

  // Discards every coefficient, calling sink(const HeapDiscardEvent&) after
  // each removal, in discard order. The running max error is non-decreasing
  // only in aggregate; events report the exact value after each removal.
  // The sink keeps what its caller reads (DiscardTail for a prefix pick).
  template <class Sink>
  void Run(Sink&& sink) {
    for (int64_t left = num_leaves_ - (has_average_ ? 0 : 1); left > 0;
         --left) {
      sink(DiscardNext());
    }
  }

  // The coefficient of `slot`, unchanged by the run.
  double coefficient(int64_t slot) const { return s_[slot].c; }

 private:
  // One slot's state in one 64-byte cache line: the signed-error extrema
  // of the leaves in its left/right subtree under the current set of
  // discarded coefficients (Equation 8 state), its coefficient, and its
  // DiscardTournament key and aggregate. An ancestor step reads its two
  // children's lines (adjacent, 2a and 2a + 1) and writes its own.
  struct alignas(64) Slot {
    double max_l, min_l, max_r, min_r;
    double c;
    uint64_t key = kDiscardedOrderKey;
    TournamentAggregate best = 0;
  };
  static_assert(sizeof(Slot) == 64 && alignof(Slot) == 64,
                "one slot per cache line");
  static size_t SlotBytes(int64_t num_leaves) {
    return static_cast<size_t>(num_leaves) * sizeof(Slot);
  }
  // `coeffs.size()`, checked to be a power of two >= 2.
  static int64_t LeafCount(const std::vector<double>& coeffs);
  // The first of num_leaves_ records: below 2 MB in heap_, from 2 MB up
  // in one anonymous mapping of exactly that size, 2 MB-aligned and
  // advised onto huge pages before its first write.
  Slot* AllocateSlots();
  // Places, keys and aggregates every record in one reverse pass (a
  // node's children are final before it is).
  void PlaceSlots(const std::vector<double>& coeffs, double initial_error);
  // Discards the tournament's top slot; its event.
  HeapDiscardEvent DiscardNext();
  double MaxPotentialError(int64_t slot) const;
  // Applies one discard and refreshes every key and tournament aggregate
  // it may have changed: one sweep over the descendant subtrees, then one
  // walk over the ancestors.
  void DiscardAndRefresh(int64_t slot);
  // Adds -c to every extremum in the subtrees of slots [lo, mid) and +c to
  // those of [mid, hi), one level-order sweep over both, re-keying every
  // node it touches and repairing its aggregate.
  void ShiftAndRefresh(int64_t lo, int64_t mid, int64_t hi, double c);
  // One level's share of it: slots [lo, hi) shifted by `delta`.
  void ShiftLevel(int64_t lo, int64_t hi, double delta, bool has_children);
  // Repairs `slot`'s aggregate, then refolds, re-keys and repairs each of
  // its ancestors and the average node, children first.
  void RefreshAncestors(int64_t slot);
  double CurrentMaxError() const;
  bool IsBottom(int64_t slot) const { return slot >= num_leaves_ / 2; }

  int64_t num_leaves_;
  bool has_average_;
  // A block below 2 MB, one record longer than it needs (AllocateSlots
  // aligns the records by hand); null for a mapping, which the
  // destructor unmaps.
  std::unique_ptr<std::byte[]> heap_;
  Slot* s_;
  DiscardTournament<Slot> tournament_;
};

// The last events of a run, as many as a prefix pick under `budget` reads:
// keeping m coefficients is the prefix that stops before the last m
// discards, so for m <= budget only the last min(budget, n - 1) + 1 of
// the n events matter (m = n keeps everything, error 0, and reads none).
// A ring of that many events, fed as GreedyAbsTree::Run's sink.
class DiscardTail {
 public:
  // A tail for a run of `num_events` events (>= 1) picked under `budget`.
  DiscardTail(int64_t num_events, int64_t budget);

  void operator()(const HeapDiscardEvent& event) {
    ring_[next_] = event;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++count_;
  }
  int64_t num_events() const { return num_events_; }
  // Events seen so far.
  int64_t count() const { return count_; }
  // The event `back` events before the last one (0 = the last); `back`
  // below the ring's size and below count().
  const HeapDiscardEvent& FromEnd(int64_t back) const;

 private:
  int64_t num_events_;
  std::vector<HeapDiscardEvent> ring_;
  size_t next_ = 0;
  int64_t count_ = 0;
};

// The best synopsis among the discard prefixes of a full-tree run (`tail`
// holds a has_average tree's events, n >= 2 of them, one per coefficient)
// that keep at most `budget` coefficients: the smallest event error, and
// among ties the smaller prefix. The error is not monotone in the number of
// removals (Section 5.1), so every such prefix is a candidate. The
// retained set is the slots of the last m events; `coefficient(slot)`
// gives their values, and retained exactly-zero coefficients contribute
// nothing and are left out of the synopsis. Serves GreedyAbs and
// GreedyRel alike.
struct GreedyPrefix {
  Synopsis synopsis;
  double error = 0.0;
};
GreedyPrefix BestGreedyPrefix(
    const DiscardTail& tail, int64_t budget,
    const std::function<double(int64_t)>& coefficient);

// Result of the full centralized algorithm.
struct GreedyAbsResult {
  Synopsis synopsis;
  double max_abs_error = 0.0;
  // Coefficients actually present in `synopsis` (== synopsis.size()). This
  // can be smaller than the number of kept heap slots of the winning greedy
  // prefix: exactly-zero coefficients are kept by the discard loop but
  // contribute nothing and are pruned from the materialized synopsis, so
  // reported counts follow the synopsis, not the prefix length.
  int64_t retained = 0;
};

// Centralized GreedyAbs: builds the transform of `data` (size a power of
// two), greedily discards, and returns the best synopsis among the prefixes
// with at most `budget` retained coefficients (the error is not monotone in
// the number of removals, Section 5.1). Zero-valued retained coefficients
// are dropped from the synopsis (they contribute nothing).
GreedyAbsResult GreedyAbs(const std::vector<double>& data, int64_t budget);

// Same, starting from a precomputed coefficient array (heap order), which
// the run consumes: the tree holds the only copy.
GreedyAbsResult GreedyAbsFromCoeffs(std::vector<double> coeffs,
                                    int64_t budget);

}  // namespace dwm

#endif  // DWMAXERR_CORE_GREEDY_ABS_H_
