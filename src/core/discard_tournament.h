// The next-discard structure of the greedy discard loops (GreedyAbsTree
// and GreedyRelTree, Sections 5.1 and 5.4): the alive heap slot with the
// smallest key (maximum potential error), ties going to the smaller slot.
//
// A tournament aggregate over the error tree itself: the aggregate of slot
// s holds the minimum (key, slot) over s's subtree, and a discarded slot is
// keyed +inf. A discard already walks the subtrees and ancestors whose keys
// it changes, and repairing the aggregates along those walks, children
// before parents, costs one merge per visited node; a (key, slot) pair
// sits in one 16-byte record, so a merge reads one cache line per child
// pair. The pick is the (key, slot) minimum over alive slots, a function
// of the key set alone, so no order of repairs can change the discard
// order. Slot 0 (the average node, when present) is the unary parent of
// slot 1 and sits outside the binary aggregate: Top() weighs its key
// against slot 1's aggregate, and it wins ties as the smallest slot.
#ifndef DWMAXERR_CORE_DISCARD_TOURNAMENT_H_
#define DWMAXERR_CORE_DISCARD_TOURNAMENT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace dwm {

class DiscardTournament {
 public:
  // `num_slots` (the number of leaves of the error tree) slots, all
  // discarded until keyed.
  explicit DiscardTournament(int64_t num_slots)
      : num_slots_(num_slots),
        key_(static_cast<size_t>(num_slots), kInf),
        best_(static_cast<size_t>(num_slots)) {}

  bool alive(int64_t slot) const {
    return key_[static_cast<size_t>(slot)] != kInf;
  }
  // Keys an alive slot. Before Build(), any slot; after it, the caller
  // repairs the aggregates the new key may change.
  void SetKey(int64_t slot, double key) {
    key_[static_cast<size_t>(slot)] = key;
  }
  // Children-first build of every aggregate: one reverse sweep.
  void Build() {
    for (int64_t slot = num_slots_ - 1; slot >= 1; --slot) Repair(slot);
  }

  // The alive slot with the smallest (key, slot); one must exist.
  int64_t Top() const {
    const BestPair& rest = best_[1];
    const bool root = key_[0] <= rest.key;
    DWM_CHECK_LT(root ? key_[0] : rest.key, kInf);
    return root ? 0 : rest.slot;
  }
  // Keys `slot` +inf. The caller repairs its aggregate and its ancestors'.
  void Discard(int64_t slot) { key_[static_cast<size_t>(slot)] = kInf; }

  // Re-keys `slot` unless it is discarded, and recomputes its aggregate
  // from its key and, when `has_children`, its children's aggregates,
  // which must be current. The step of a children-first subtree sweep.
  void Rekey(int64_t slot, double key, bool has_children) {
    double& kref = key_[static_cast<size_t>(slot)];
    const double k = (kref != kInf) ? key : kInf;
    kref = k;
    BestPair best{k, slot};
    if (has_children) {
      Merge(best_[static_cast<size_t>(2 * slot)], &best);
      Merge(best_[static_cast<size_t>(2 * slot + 1)], &best);
    }
    best_[static_cast<size_t>(slot)] = best;
  }
  // Recomputes the aggregate of `slot` >= 1 from its key and its
  // children's; returns whether it changed. The step of an ancestor walk,
  // which may stop at the first unchanged aggregate.
  bool Repair(int64_t slot) {
    BestPair best{key_[static_cast<size_t>(slot)], slot};
    if (2 * slot < num_slots_) {
      Merge(best_[static_cast<size_t>(2 * slot)], &best);
      Merge(best_[static_cast<size_t>(2 * slot + 1)], &best);
    }
    BestPair& self = best_[static_cast<size_t>(slot)];
    const bool changed = best.key != self.key || best.slot != self.slot;
    self = best;
    return changed;
  }
  // Repairs `slot` and then its ancestors up to slot 1, stopping at the
  // first aggregate that comes out unchanged.
  void RepairPath(int64_t slot) {
    for (int64_t a = slot; a >= 1 && Repair(a); a /= 2) {
    }
  }
  // Hints the aggregate of `slot` into cache ahead of a walk that reads it.
  void Prefetch(int64_t slot) const {
    __builtin_prefetch(&best_[static_cast<size_t>(slot)]);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct BestPair {
    double key;
    int64_t slot;
  };
  static void Merge(const BestPair& child, BestPair* best) {
    if (child.key < best->key ||
        (child.key == best->key && child.slot < best->slot)) {
      *best = child;
    }
  }

  int64_t num_slots_;
  std::vector<double> key_;
  std::vector<BestPair> best_;  // best_[0] is unused
};

}  // namespace dwm

#endif  // DWMAXERR_CORE_DISCARD_TOURNAMENT_H_
