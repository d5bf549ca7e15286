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

#include <cstdint>
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
// all leaves (Section 5.2).
class GreedyAbsTree {
 public:
  GreedyAbsTree(std::vector<double> coeffs, bool has_average,
                double initial_error);

  // Discards every coefficient; returns the events in discard order. The
  // running max error is non-decreasing only in aggregate; events report the
  // exact value after each removal.
  std::vector<HeapDiscardEvent> Run();

 private:
  // Signed-error extrema of the leaves in the node's left/right subtree
  // under the current set of discarded coefficients (Equation 8 state).
  struct NodeState {
    double max_l, min_l, max_r, min_r;
  };

  double MaxPotentialError(int64_t slot) const;
  // Applies one discard and refreshes every key and tournament aggregate
  // it may have changed (descendant subtrees, then ancestors) in fused
  // iterative walks.
  void DiscardAndRefresh(int64_t slot);
  // Recomputes the extrema of ancestor `a` from its children's and, when
  // they changed, stores them and re-keys `a`; returns whether they did.
  bool RefoldAncestor(int64_t a);
  // Level-order subtree shift over the flat st_ array, deepest level
  // first, re-keying every node it touches and repairing its aggregate.
  void ShiftAndRefresh(int64_t slot, double delta);
  double CurrentMaxError() const;
  bool IsBottom(int64_t slot) const { return slot >= num_leaves_ / 2; }

  int64_t num_leaves_;
  bool has_average_;
  std::vector<double> c_;
  std::vector<NodeState> st_;
  DiscardTournament tournament_;
};

// The best synopsis among the discard prefixes of a full-tree run (the
// `events` of a has_average tree over `coeffs`, n >= 2) that keep at most
// `budget` coefficients: the smallest event error, and among ties the
// smaller prefix. The error is not monotone in the number of removals
// (Section 5.1), so every such prefix is a candidate. Retained
// exactly-zero coefficients contribute nothing and are left out of the
// synopsis. Serves GreedyAbs and GreedyRel alike.
struct GreedyPrefix {
  Synopsis synopsis;
  double error = 0.0;
};
GreedyPrefix BestGreedyPrefix(const std::vector<double>& coeffs,
                              const std::vector<HeapDiscardEvent>& events,
                              int64_t budget);

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

// Same, starting from a precomputed coefficient array (heap order).
GreedyAbsResult GreedyAbsFromCoeffs(const std::vector<double>& coeffs,
                                    int64_t budget);

}  // namespace dwm

#endif  // DWMAXERR_CORE_GREEDY_ABS_H_
