// Conventional (L2-optimal) thresholding: retain the B coefficients with
// the largest significance |c_i| / sqrt(2^level) (Section 2.3).
#ifndef DWMAXERR_CORE_CONVENTIONAL_H_
#define DWMAXERR_CORE_CONVENTIONAL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace dwm {

// Keeps the `budget` offered coefficients with the largest significance
// (|c|/sqrt(2^level)); ties prefer the smaller index and zero-valued
// coefficients are never kept. The one top-B pick: conventional
// thresholding and every distributed builder that ends in it (CON, Send-V,
// Send-Coef, H-WTopk) select through it, so their synopses are
// bit-identical when the coefficient values are. Offers buffer up to
// 2 * budget entries; a full buffer is cut back to its best `budget` with
// one selection, whose worst entry then turns away every later offer that
// ranks after it. O(budget) memory and amortized O(1) time per Offer.
class TopBySignificance {
 public:
  explicit TopBySignificance(int64_t budget)
      : budget_(std::max<int64_t>(budget, 0)) {}

  void Offer(int64_t index, double value) {
    if (budget_ == 0 || value == 0.0) return;
    const Entry entry{Significance(index, value), index, value};
    if (cut_ && !(entry < worst_kept_)) return;
    kept_.push_back(entry);
    if (static_cast<int64_t>(kept_.size()) / 2 == budget_) Cut();
  }

  // The kept coefficients, in no particular order (Synopsis sorts them).
  std::vector<Coefficient> Take() {
    if (static_cast<int64_t>(kept_.size()) > budget_) Cut();
    std::vector<Coefficient> out;
    out.reserve(kept_.size());
    for (const Entry& e : kept_) out.push_back({e.index, e.value});
    kept_.clear();
    cut_ = false;
    return out;
  }

 private:
  struct Entry {
    double significance;
    int64_t index;
    double value;
    // Ranks before `other`: larger significance, then smaller index.
    bool operator<(const Entry& other) const {
      if (significance != other.significance) {
        return significance > other.significance;
      }
      return index < other.index;
    }
  };

  // Keeps the best `budget_` buffered entries; the last of them is the
  // worst, and no entry ranking after it can reach the final top B.
  void Cut() {
    const auto last = kept_.begin() + (budget_ - 1);
    std::nth_element(kept_.begin(), last, kept_.end());
    kept_.resize(static_cast<size_t>(budget_));
    worst_kept_ = kept_.back();
    cut_ = true;
  }

  int64_t budget_;
  std::vector<Entry> kept_;
  bool cut_ = false;
  Entry worst_kept_{};
};

// From a dense coefficient array (heap order): every coefficient is offered
// to TopBySignificance.
Synopsis ConventionalFromCoeffs(const std::vector<double>& coeffs,
                                int64_t budget);

// Convenience: transform `data` (size a power of two) and threshold.
Synopsis ConventionalSynopsis(const std::vector<double>& data, int64_t budget);

}  // namespace dwm

#endif  // DWMAXERR_CORE_CONVENTIONAL_H_
