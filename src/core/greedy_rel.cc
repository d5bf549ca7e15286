#include "core/greedy_rel.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/check.h"
#include "wavelet/haar.h"

namespace dwm {
namespace {

// The V-function |err - t| / w as two lines.
std::vector<Line> LeafLines(double err, double w) {
  DWM_CHECK_GT(w, 0.0);
  return {{-1.0 / w, err / w}, {1.0 / w, -err / w}};
}

}  // namespace

GreedyRelTree::GreedyRelTree(std::vector<double> coeffs, bool has_average,
                             double initial_error,
                             std::vector<double> leaf_weights)
    : num_leaves_(static_cast<int64_t>(coeffs.size())),
      has_average_(has_average),
      c_(std::move(coeffs)),
      st_(c_.size()),
      tournament_(st_.data(), num_leaves_) {
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(num_leaves_)));
  DWM_CHECK_GE(num_leaves_, 2);
  DWM_CHECK_EQ(static_cast<int64_t>(leaf_weights.size()), num_leaves_);
  // Bottom nodes: each side is one leaf's V-function.
  for (int64_t s = num_leaves_ / 2; s < num_leaves_; ++s) {
    const int64_t leaf = 2 * s - num_leaves_;
    st_[static_cast<size_t>(s)].env_l = UpperEnvelope::FromLines(
        LeafLines(initial_error, leaf_weights[static_cast<size_t>(leaf)]));
    st_[static_cast<size_t>(s)].env_r = UpperEnvelope::FromLines(
        LeafLines(initial_error, leaf_weights[static_cast<size_t>(leaf + 1)]));
  }
  // Internal nodes: merge children's sides.
  for (int64_t s = num_leaves_ / 2 - 1; s >= 1; --s) MergeChildren(s);
  if (has_average_) MergeChildren(0);
}

void GreedyRelTree::MergeChildren(int64_t slot) {
  NodeState& s = st_[static_cast<size_t>(slot)];
  if (slot == 0) {
    // The average node's one child is slot 1, all on its "left".
    const NodeState& top = st_[1];
    s.env_l = UpperEnvelope::Merge(top.env_l, top.off_l, top.env_r, top.off_r);
    s.env_r = s.env_l;
  } else {
    const NodeState& l = st_[static_cast<size_t>(2 * slot)];
    const NodeState& r = st_[static_cast<size_t>(2 * slot + 1)];
    s.env_l = UpperEnvelope::Merge(l.env_l, l.off_l, l.env_r, l.off_r);
    s.env_r = UpperEnvelope::Merge(r.env_l, r.off_l, r.env_r, r.off_r);
  }
  s.off_l = 0.0;
  s.off_r = 0.0;
}

double GreedyRelTree::MaxPotentialError(int64_t slot) const {
  const NodeState& s = st_[static_cast<size_t>(slot)];
  const double c = c_[static_cast<size_t>(slot)];
  if (slot == 0) return s.env_l.Evaluate(c, s.off_l);
  return std::max(s.env_l.Evaluate(c, s.off_l),
                  s.env_r.Evaluate(-c, s.off_r));
}

void GreedyRelTree::ShiftAndRefresh(int64_t slot, double delta) {
  NodeState& s = st_[static_cast<size_t>(slot)];
  s.off_l += delta;
  s.off_r += delta;
  const bool has_children = !IsBottom(slot);
  if (has_children) {
    ShiftAndRefresh(2 * slot, delta);
    ShiftAndRefresh(2 * slot + 1, delta);
  }
  tournament_.Rekey(slot, MaxPotentialError(slot), has_children);
}

void GreedyRelTree::RebuildAncestors(int64_t slot) {
  for (int64_t a = slot / 2; a >= 1; a /= 2) {
    MergeChildren(a);
    tournament_.Rekey(a, MaxPotentialError(a), /*has_children=*/true);
  }
  if (has_average_) {
    MergeChildren(0);
    if (tournament_.alive(0)) tournament_.SetKey(0, MaxPotentialError(0));
  }
}

double GreedyRelTree::CurrentMaxError() const {
  // The envelope at t = 0 is max |err_j| / w_j.
  if (has_average_) {
    const NodeState& s = st_[0];
    return s.env_l.Evaluate(0.0, s.off_l);
  }
  const NodeState& s = st_[1];
  return std::max(s.env_l.Evaluate(0.0, s.off_l),
                  s.env_r.Evaluate(0.0, s.off_r));
}

void GreedyRelTree::Start() {
  const int64_t first = has_average_ ? 0 : 1;
  for (int64_t slot = first; slot < num_leaves_; ++slot) {
    tournament_.SetKey(slot, MaxPotentialError(slot));
  }
  tournament_.Build();
}

HeapDiscardEvent GreedyRelTree::DiscardNext() {
  const int64_t slot = tournament_.Top();
  tournament_.Discard(slot);
  const double c = c_[static_cast<size_t>(slot)];
  NodeState& s = st_[static_cast<size_t>(slot)];
  if (slot == 0) {
    ShiftAndRefresh(1, -c);
    s.off_l += -c;
    s.off_r += -c;
  } else {
    if (!IsBottom(slot)) {
      ShiftAndRefresh(2 * slot, -c);
      ShiftAndRefresh(2 * slot + 1, +c);
    }
    s.off_l += -c;
    s.off_r += +c;
    tournament_.Repair(slot);  // its own key is +inf now
    RebuildAncestors(slot);
  }
  return {slot, CurrentMaxError()};
}

GreedyRelResult GreedyRel(const std::vector<double>& data, int64_t budget,
                          double sanity) {
  const int64_t n = static_cast<int64_t>(data.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  DWM_CHECK_GE(n, kGreedyRelMinValues);
  DWM_CHECK_GT(sanity, 0.0);
  std::vector<double> weights(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    weights[static_cast<size_t>(j)] =
        std::max(std::abs(data[static_cast<size_t>(j)]), sanity);
  }
  GreedyRelTree tree(ForwardHaar(data), /*has_average=*/true, 0.0,
                     std::move(weights));
  DiscardTail tail(n, budget);
  tree.Run(tail);
  GreedyPrefix best = BestGreedyPrefix(
      tail, budget, [&tree](int64_t slot) { return tree.coefficient(slot); });
  GreedyRelResult result;
  result.synopsis = std::move(best.synopsis);
  result.max_rel_error = best.error;
  return result;
}

}  // namespace dwm
