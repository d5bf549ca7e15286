// GreedyRel (Karras & Mamoulis, VLDB'05; Section 5.4 of the paper): greedy
// thresholding for the maximum *relative* error metric with sanity bound S.
//
// The four signed-error extrema of GreedyAbs cannot drive MR_k (Equation
// 10): the denominator max(|d_j|, S) differs per leaf. Instead each node
// maintains, per subtree side, the convex upper envelope of the V-functions
// f_j(t) = |err_j - t| / w_j over its leaves (w_j = max(|d_j|, S)), with a
// lazy horizontal offset standing in for uniform err shifts. MR_k is the
// envelope evaluated at t = c_k (left side) and t = -c_k (right side).
// Ancestor envelopes are rebuilt by linear hull merges after each discard.
#ifndef DWMAXERR_CORE_GREEDY_REL_H_
#define DWMAXERR_CORE_GREEDY_REL_H_

#include <cstdint>
#include <vector>

#include "core/discard_tournament.h"
#include "core/envelope.h"
#include "core/greedy_abs.h"  // DiscardTail, BestGreedyPrefix
#include "wavelet/synopsis.h"

namespace dwm {

// Discard loop over one error (sub)tree, mirroring GreedyAbsTree (see
// greedy_abs.h for the heap-order / has_average conventions).
// `leaf_weights` are the denominators w_j = max(|d_j|, sanity), one per
// leaf; all must be > 0. Event errors are running max *relative* errors.
class GreedyRelTree {
 public:
  GreedyRelTree(std::vector<double> coeffs, bool has_average,
                double initial_error, std::vector<double> leaf_weights);
  GreedyRelTree(const GreedyRelTree&) = delete;
  GreedyRelTree& operator=(const GreedyRelTree&) = delete;

  // As GreedyAbsTree::Run: sink(const HeapDiscardEvent&) after each
  // removal, in discard order.
  template <class Sink>
  void Run(Sink&& sink) {
    Start();
    for (int64_t left = num_leaves_ - (has_average_ ? 0 : 1); left > 0;
         --left) {
      sink(DiscardNext());
    }
  }

  // The coefficient of `slot`, unchanged by the run.
  double coefficient(int64_t slot) const {
    return c_[static_cast<size_t>(slot)];
  }

 private:
  struct NodeState {
    UpperEnvelope env_l, env_r;
    double off_l = 0.0, off_r = 0.0;    // lazy horizontal offsets
    uint64_t key = kDiscardedOrderKey;  // DiscardTournament's
    TournamentAggregate best = 0;
  };

  // Keys every slot and builds the tournament.
  void Start();
  // Discards the tournament's top slot; its event.
  HeapDiscardEvent DiscardNext();

  double MaxPotentialError(int64_t slot) const;
  // Shifts every leaf error below `slot` by `delta` (lazily, through the
  // offsets), re-keying each node of the subtree children first and
  // repairing its tournament aggregate.
  void ShiftAndRefresh(int64_t slot, double delta);
  // Rebuilds a node's envelopes from its children's (slot 0: from slot
  // 1's), folding their offsets in.
  void MergeChildren(int64_t slot);
  // Rebuilds the envelopes of every ancestor of `slot` (and of the average
  // node), re-keying each and repairing its aggregate; `slot`'s own
  // aggregate must be current.
  void RebuildAncestors(int64_t slot);
  double CurrentMaxError() const;
  bool IsBottom(int64_t slot) const { return slot >= num_leaves_ / 2; }

  int64_t num_leaves_;
  bool has_average_;
  std::vector<double> c_;
  std::vector<NodeState> st_;
  DiscardTournament<NodeState> tournament_;
};

struct GreedyRelResult {
  Synopsis synopsis;
  double max_rel_error = 0.0;
};

// The fewest values GreedyRel takes.
inline constexpr int64_t kGreedyRelMinValues = 2;

// Centralized GreedyRel over `data` (size a power of two, at least
// kGreedyRelMinValues): best synopsis (<= budget coefficients) among the
// greedy discard prefixes, by maximum relative error with sanity bound.
GreedyRelResult GreedyRel(const std::vector<double>& data, int64_t budget,
                          double sanity);

}  // namespace dwm

#endif  // DWMAXERR_CORE_GREEDY_REL_H_
