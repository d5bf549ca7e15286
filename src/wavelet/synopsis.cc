#include "wavelet/synopsis.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/bits.h"
#include "common/check.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"

namespace dwm {
namespace {

void SortByIndex(std::vector<Coefficient>* coefficients) {
  std::sort(coefficients->begin(), coefficients->end(),
            [](const Coefficient& a, const Coefficient& b) {
              return a.index < b.index;
            });
}

// Largest domain a synopsis accepts. The rank index costs 1.5 bits per
// domain slot (768 MiB here), and its uint32 word ranks stay exact.
constexpr int64_t kMaxDomainSize = int64_t{1} << 32;

// Validation shared by the trusting constructor (CHECK on failure) and the
// Create factory (Status on failure). Expects `coefficients` sorted.
Status ValidateSorted(int64_t domain_size,
                      const std::vector<Coefficient>& coefficients) {
  if (domain_size <= 0 || domain_size > kMaxDomainSize ||
      !IsPowerOfTwo(static_cast<uint64_t>(domain_size))) {
    return Status::InvalidArgument(
        "synopsis domain size must be a power of two up to 2^32, got " +
        std::to_string(domain_size));
  }
  for (size_t i = 0; i < coefficients.size(); ++i) {
    const int64_t index = coefficients[i].index;
    if (index < 0 || index >= domain_size) {
      return Status::InvalidArgument(
          "coefficient index " + std::to_string(index) +
          " outside domain [0, " + std::to_string(domain_size) + ")");
    }
    if (i > 0 && coefficients[i - 1].index == index) {
      return Status::InvalidArgument("duplicate coefficient index " +
                                     std::to_string(index));
    }
  }
  return Status::OK();
}

}  // namespace

Synopsis::Synopsis(int64_t domain_size, std::vector<Coefficient> coefficients)
    : domain_size_(domain_size), coefficients_(std::move(coefficients)) {
  SortByIndex(&coefficients_);
  const Status valid = ValidateSorted(domain_size_, coefficients_);
  DWM_CHECK(valid.ok());
  BuildIndex();
}

Status Synopsis::Create(int64_t domain_size,
                        std::vector<Coefficient> coefficients,
                        Synopsis* out) {
  SortByIndex(&coefficients);
  DWM_RETURN_NOT_OK(ValidateSorted(domain_size, coefficients));
  out->domain_size_ = domain_size;
  out->coefficients_ = std::move(coefficients);
  out->BuildIndex();
  return Status::OK();
}

void Synopsis::BuildIndex() {
  const size_t words = static_cast<size_t>((domain_size_ + 63) / 64);
  bits_.assign(words, 0);
  for (const Coefficient& c : coefficients_) {
    bits_[static_cast<size_t>(c.index >> 6)] |= uint64_t{1} << (c.index & 63);
  }
  ranks_.resize(words);
  uint32_t rank = 0;
  for (size_t w = 0; w < words; ++w) {
    ranks_[w] = rank;
    rank += static_cast<uint32_t>(std::popcount(bits_[w]));
  }
}

int64_t Synopsis::Rank(int64_t index) const {
  if (index == domain_size_) return size();
  const size_t w = static_cast<size_t>(index >> 6);
  const uint64_t below = (uint64_t{1} << (index & 63)) - 1;
  return int64_t{ranks_[w]} + std::popcount(bits_[w] & below);
}

double Synopsis::CoefficientValue(int64_t index) const {
  if (index < 0 || index >= domain_size_) return 0.0;
  const size_t w = static_cast<size_t>(index >> 6);
  const uint64_t bit = uint64_t{1} << (index & 63);
  if ((bits_[w] & bit) == 0) return 0.0;
  const int rank_in_word = std::popcount(bits_[w] & (bit - 1));
  return coefficients_[ranks_[w] + static_cast<uint32_t>(rank_in_word)].value;
}

double Synopsis::PointEstimate(int64_t leaf) const {
  DWM_CHECK_GE(leaf, 0);
  DWM_CHECK_LT(leaf, domain_size_);
  // Walk path_leaf top-down, i.e. in ascending index order. With
  // pos = n + leaf, the node `height` levels above the leaf is
  // pos >> height, and the path descends into its right child (sign -1)
  // iff bit height - 1 of pos is set. The average node c_0 contributes +1.
  const int64_t pos = domain_size_ + leaf;
  double value = CoefficientValue(0);
  for (int height = Log2Floor(static_cast<uint64_t>(domain_size_));
       height >= 1; --height) {
    const double c = CoefficientValue(pos >> height);
    if (c != 0.0) value += ((pos >> (height - 1)) & 1) != 0 ? -c : c;
  }
  return value;
}

double Synopsis::RangeSum(int64_t lo, int64_t hi) const {
  DWM_CHECK_LE(lo, hi);
  DWM_CHECK_GE(lo, 0);
  DWM_CHECK_LT(hi, domain_size_);
  // Collect the union of path_lo and path_hi; interior nodes fully contained
  // in [lo, hi] contribute |leftleaves| - |rightleaves| = 0 and are skipped
  // (Section 2.2).
  double sum = 0.0;
  auto contribution = [&](int64_t node) {
    const double c = CoefficientValue(node);
    if (c == 0.0) return;
    if (node == 0) {
      sum += static_cast<double>(hi - lo + 1) * c;
      return;
    }
    const LeafRange r = NodeLeafRange(domain_size_, node);
    const int64_t mid = r.first + r.count / 2;
    // Overlap of [lo, hi] with the left and right child leaf ranges.
    const int64_t left_overlap =
        std::max<int64_t>(0, std::min(hi, mid - 1) - std::max(lo, r.first) + 1);
    const int64_t right_overlap = std::max<int64_t>(
        0, std::min(hi, r.first + r.count - 1) - std::max(lo, mid) + 1);
    sum += static_cast<double>(left_overlap - right_overlap) * c;
  };
  // Walk both paths in lock-step from the bottom; they merge at the lowest
  // common ancestor, above which each node is visited once.
  int64_t a = LeafParent(domain_size_, lo);
  int64_t b = LeafParent(domain_size_, hi);
  while (a != b) {
    if (a > b) {
      contribution(a);
      a >>= 1;
    } else {
      contribution(b);
      b >>= 1;
    }
  }
  for (; a >= 1; a >>= 1) contribution(a);
  contribution(0);
  return sum;
}

std::vector<double> Synopsis::ToDense() const {
  std::vector<double> dense(static_cast<size_t>(domain_size_), 0.0);
  for (const Coefficient& c : coefficients_) {
    dense[static_cast<size_t>(c.index)] = c.value;
  }
  return dense;
}

std::vector<double> Synopsis::Reconstruct() const {
  return InverseHaar(ToDense());
}

std::vector<double> Synopsis::ReconstructRange(int64_t first,
                                               int64_t count) const {
  // count == 0 is an explicitly supported empty slice (a worker can be
  // assigned zero leaves), not an accident of the power-of-two check below:
  // IsPowerOfTwo(0) is false, so without this branch it would CHECK-abort.
  if (count == 0) {
    DWM_CHECK_GE(first, 0);
    DWM_CHECK_LE(first, domain_size_);
    return {};
  }
  if (count == domain_size_) {
    DWM_CHECK_EQ(first, 0);
    return Reconstruct();
  }
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(count)));
  DWM_CHECK_EQ(first % count, 0);
  DWM_CHECK_GE(first, 0);
  DWM_CHECK_LE(first + count, domain_size_);
  // The slice is the leaf range of the subtree rooted at `root`. Build the
  // local dense coefficient array: slot 0 carries the incoming value from
  // the retained ancestors of `root`, slots 1..count-1 the retained
  // coefficients inside the subtree.
  const int64_t root = domain_size_ / count + first / count;
  std::vector<double> local(static_cast<size_t>(count), 0.0);
  ForEachPathNode(domain_size_, first, [&](int64_t node) {
    if (node >= root) return;  // strictly above the subtree only
    const double c = CoefficientValue(node);
    if (c != 0.0) local[0] += LeafSign(domain_size_, node, first) * c;
  });
  // Level d of the subtree holds the 2^d coefficients [root * 2^d,
  // (root + 1) * 2^d): one contiguous run of the sorted array, whose bounds
  // the rank index gives. Global index g on that level has local slot
  // 2^d + (g - root * 2^d).
  for (int64_t width = 1; width < count; width <<= 1) {
    const int64_t level_first = root * width;
    const int64_t run_end = Rank(level_first + width);
    for (int64_t k = Rank(level_first); k < run_end; ++k) {
      const Coefficient& c = coefficients_[static_cast<size_t>(k)];
      local[static_cast<size_t>(width + c.index - level_first)] = c.value;
    }
  }
  return InverseHaar(local);
}

}  // namespace dwm
