// The next-discard structure of the greedy discard loops (GreedyAbsTree
// and GreedyRelTree, Sections 5.1 and 5.4): the alive heap slot with the
// smallest key (maximum potential error), ties going to the smaller slot.
//
// A tournament aggregate over the error tree itself: the aggregate of slot
// s holds the minimum (key, slot) over s's subtree, and a discarded slot is
// keyed +inf. A discard already walks the subtrees and ancestors whose keys
// it changes, and repairing the aggregates along those walks, children
// before parents, costs one merge per visited node. The pick is the
// (key, slot) minimum over alive slots, a function of the key set alone,
// so no order of repairs can change the discard order. Slot 0 (the average
// node, when present) is the unary parent of slot 1 and sits outside the
// binary aggregate: Top() weighs its key against slot 1's aggregate, and it
// wins ties as the smallest slot.
//
// An aggregate is one 128-bit word, (order key << 64) | slot, so a merge is
// one unsigned 128-bit min with no data-dependent branch. The order key of
// a double k is the bit pattern of k + 0.0 with the sign bit flipped when
// it is clear and every bit flipped when it is set: for non-NaN doubles
// this orders exactly as the double compare does (+inf last), and the
// + 0.0 turns a -0 into +0, so the two zeros tie and fall to the slot, as
// they did under `<`. Precondition: no key is NaN (the data readers reject
// non-finite values; a NaN would order past +inf and never be picked).
//
// The tournament owns no storage: it is a view over the caller's per-slot
// records, each with a `uint64_t key` (the order key) and a
// `TournamentAggregate best` member, so a tree keeps a slot's key and
// aggregate beside the rest of its per-slot state. A record's key starts
// at kDiscardedOrderKey (its default member initializer), so a slot that
// is never keyed stays out of the pick.
#ifndef DWMAXERR_CORE_DISCARD_TOURNAMENT_H_
#define DWMAXERR_CORE_DISCARD_TOURNAMENT_H_

#include <bit>
#include <cstdint>

#include "common/check.h"

namespace dwm {

// (order key << 64) | slot; the aggregate of slot 0 is unused.
using TournamentAggregate = unsigned __int128;

// The order key of +inf, the key of every discarded or unkeyed slot.
inline constexpr uint64_t kDiscardedOrderKey = 0xFFF0000000000000u;

template <class Record>
class DiscardTournament {
 public:
  // A view over `records[0..num_slots)` (`num_slots` the number of leaves
  // of the error tree), which must outlive it.
  DiscardTournament(Record* records, int64_t num_slots)
      : r_(records), num_slots_(num_slots) {}

  bool alive(int64_t slot) const {
    return r_[slot].key != kDiscardedOrderKey;
  }
  // Keys an alive slot. Before Build(), any slot; after it, the caller
  // repairs the aggregates the new key may change.
  void SetKey(int64_t slot, double key) { r_[slot].key = OrderKey(key); }
  // Children-first build of every aggregate: one reverse sweep.
  void Build() {
    for (int64_t slot = num_slots_ - 1; slot >= 1; --slot) Repair(slot);
  }

  // The alive slot with the smallest (key, slot); one must exist.
  int64_t Top() const {
    const TournamentAggregate top = Min(Pack(r_[0].key, 0), r_[1].best);
    DWM_CHECK_LT(static_cast<uint64_t>(top >> 64), kDiscardedOrderKey);
    return static_cast<int64_t>(static_cast<uint64_t>(top));
  }
  // Keys `slot` +inf. The caller repairs its aggregate and its ancestors'.
  void Discard(int64_t slot) { r_[slot].key = kDiscardedOrderKey; }

  // Re-keys `slot` unless it is discarded, and recomputes its aggregate
  // from its key and, when `has_children`, its children's aggregates,
  // which must be current. The step of a children-first subtree sweep.
  void Rekey(int64_t slot, double key, bool has_children) {
    Record& rec = r_[slot];
    const uint64_t k =
        (rec.key != kDiscardedOrderKey) ? OrderKey(key) : kDiscardedOrderKey;
    rec.key = k;
    TournamentAggregate best = Pack(k, slot);
    if (has_children) best = Min(best, ChildMin(slot));
    rec.best = best;
  }
  // Recomputes the aggregate of `slot` >= 1 from its key and its
  // children's, which must be current.
  void Repair(int64_t slot) {
    Record& rec = r_[slot];
    TournamentAggregate best = Pack(rec.key, slot);
    if (2 * slot < num_slots_) best = Min(best, ChildMin(slot));
    rec.best = best;
  }
  // Repairs `slot` and then every ancestor up to slot 1. After a discard of
  // the top slot every one of them changes (each held the discarded slot),
  // so the walk has no early exit.
  void RepairPath(int64_t slot) {
    for (int64_t a = slot; a >= 1; a /= 2) Repair(a);
  }

 private:
  static uint64_t OrderKey(double key) {
    const uint64_t bits = std::bit_cast<uint64_t>(key + 0.0);
    const uint64_t sign = static_cast<uint64_t>(
        static_cast<int64_t>(bits) >> 63);  // all ones when negative
    return bits ^ (sign | (uint64_t{1} << 63));
  }
  static TournamentAggregate Pack(uint64_t order_key, int64_t slot) {
    return (static_cast<TournamentAggregate>(order_key) << 64) |
           static_cast<uint64_t>(slot);
  }
  static TournamentAggregate Min(TournamentAggregate a,
                                 TournamentAggregate b) {
    return b < a ? b : a;
  }
  TournamentAggregate ChildMin(int64_t slot) const {
    return Min(r_[2 * slot].best, r_[2 * slot + 1].best);
  }

  Record* r_;
  int64_t num_slots_;
};

}  // namespace dwm

#endif  // DWMAXERR_CORE_DISCARD_TOURNAMENT_H_
