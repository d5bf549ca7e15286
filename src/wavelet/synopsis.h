// Sparse wavelet synopsis: the subset of coefficients retained by a
// thresholding algorithm, plus reconstruction queries (Section 2.2/2.3).
#ifndef DWMAXERR_WAVELET_SYNOPSIS_H_
#define DWMAXERR_WAVELET_SYNOPSIS_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace dwm {

struct Coefficient {
  int64_t index = 0;
  double value = 0.0;

  friend bool operator==(const Coefficient&, const Coefficient&) = default;
};

// Every encoded coefficient array (synopses, shuffle records, checkpoint
// stage state) is a u64 count, then count x (int64 index, double value) in
// native byte order: exactly Coefficient's in-memory layout, so both
// directions are one block copy. Coefficients are only ever encoded in
// arrays, so there is no per-element Serde<Coefficient>.
static_assert(sizeof(Coefficient) == 16 && offsetof(Coefficient, index) == 0 &&
                  offsetof(Coefficient, value) == 8 &&
                  std::is_trivially_copyable_v<Coefficient>,
              "coefficient arrays are copied as {int64, double} blocks");

template <>
struct Serde<std::vector<Coefficient>> {
  static void Put(ByteBuffer& b, const std::vector<Coefficient>& v) {
    b.PutScalar<uint64_t>(v.size());
    b.PutRaw(v.data(), v.size() * sizeof(Coefficient));
  }
  // The count is checked against the bytes left before anything is
  // allocated, so a corrupt count fails the reader instead of asking for
  // more memory than the input holds.
  static std::vector<Coefficient> Get(ByteReader& r) {
    const uint64_t count = r.GetScalar<uint64_t>();
    if (count > r.remaining() / sizeof(Coefficient)) {
      r.Invalidate();
      return {};
    }
    std::vector<Coefficient> v(static_cast<size_t>(count));
    r.GetRaw(v.data(), v.size() * sizeof(Coefficient));
    return v;
  }
};

// A set of retained wavelet coefficients over a domain of `domain_size`
// data values (a power of two). Coefficient values may be the original Haar
// values (restricted synopses: conventional, GreedyAbs) or arbitrary
// (unrestricted synopses: MinHaarSpace / IndirectHaar).
//
// Every synopsis carries a rank index over the error tree in level order:
// one bit per coefficient index in [0, domain_size) marking the retained
// ones, plus a per-64-bit-word prefix count into the sorted coefficient
// array. A lookup is a bit test plus a popcount, so a point query costs
// <= log n + 1 O(1) lookups and a range query <= 2 log n. The index takes
// domain_size * 1.5 bits and is built in O(domain_size / 64 + size) by both
// the constructor and Create (one pass over the coefficients setting bits
// and counting per word, then a prefix sum of the counts); it is never
// serialized.
class Synopsis {
 public:
  Synopsis() = default;
  // Takes coefficients in any order; sorts by index unless they already
  // are (builders and decoded frames usually are). A non-power-of-two
  // domain, out-of-range indices or duplicate indices are programming
  // errors (CHECK-abort) on this path: algorithm output feeds it directly.
  // Data-driven input (files, network) must go through Create instead.
  Synopsis(int64_t domain_size, std::vector<Coefficient> coefficients);

  // Validating factory for untrusted input: sorts `coefficients` (unless
  // already sorted), rejects a non-power-of-two `domain_size`,
  // out-of-range indices and duplicate indices with
  // Status::InvalidArgument (leaving *out untouched), and
  // fills *out on success. This is what the serve-side loader uses so a
  // corrupt synopsis file can never abort a serving process.
  [[nodiscard]] static Status Create(int64_t domain_size,
                                     std::vector<Coefficient> coefficients,
                                     Synopsis* out);

  int64_t domain_size() const { return domain_size_; }
  int64_t size() const { return static_cast<int64_t>(coefficients_.size()); }
  const std::vector<Coefficient>& coefficients() const { return coefficients_; }

  // Value of coefficient `index`, or 0 if not retained (or outside
  // [0, domain_size)). O(1) through the rank index.
  double CoefficientValue(int64_t index) const;

  // Reconstructed value d_hat_j: sums the <= log n + 1 retained coefficients
  // on path_j (Section 2.2), top-down in ascending index order — this is the
  // serving hot path.
  double PointEstimate(int64_t leaf) const;

  // Range sum d(lo:hi), inclusive on both ends, using only coefficients on
  // path_lo and path_hi (Section 2.2). lo == hi and the full domain
  // [0, n-1] are both valid ranges.
  double RangeSum(int64_t lo, int64_t hi) const;

  // Dense coefficient array (zeros for dropped coefficients).
  std::vector<double> ToDense() const;

  // Full reconstruction of all domain_size values (inverse transform of the
  // dense array). O(n + size).
  std::vector<double> Reconstruct() const;

  // Reconstruction of the aligned slice [first, first + count): `count` must
  // be zero (an empty slice; returns an empty vector) or a power of two with
  // `first` a multiple of it (the slice is a subtree's leaf range).
  // O(count + log n + size-in-slice): the rank index finds each level's
  // contiguous run of subtree coefficients. This is what a distributed
  // worker uses to evaluate its local partition.
  std::vector<double> ReconstructRange(int64_t first, int64_t count) const;

 private:
  // Fills bits_ and ranks_ from coefficients_ (sorted, validated).
  void BuildIndex();
  // Number of retained coefficients with index < `index`, for index in
  // [0, domain_size].
  int64_t Rank(int64_t index) const;

  int64_t domain_size_ = 0;
  std::vector<Coefficient> coefficients_;  // sorted by index
  std::vector<uint64_t> bits_;   // bit i set iff coefficient i is retained
  std::vector<uint32_t> ranks_;  // ranks_[w] = retained indices below 64 * w
};

// Decodes one Serde<Synopsis> encoding from `reader` through the validating
// Synopsis::Create. Returns InvalidArgument when the bytes run short (the
// reader has then failed; a count above the bytes left fails before any
// allocation) and Create's own Status when they decode to an invalid
// synopsis (bad domain, out-of-range or duplicate index). Fills *out only
// on success. Never aborts on the bytes.
[[nodiscard]] Status DecodeSynopsis(ByteReader& reader, Synopsis* out);

// The one byte layout of a synopsis, shared by checkpoint stages
// (mr/pipeline.h) and DWMSRV02 serve frames (serve/format.h), in native
// byte order:
//
//   int64 domain | uint64 count | count x (int64 index, double value)
//
// with the coefficients in index order (Serde<std::vector<Coefficient>>
// above). The rank index is rebuilt on load.
template <>
struct Serde<Synopsis> {
  static void Put(ByteBuffer& b, const Synopsis& synopsis) {
    b.PutScalar<int64_t>(synopsis.domain_size());
    Serde<std::vector<Coefficient>>::Put(b, synopsis.coefficients());
  }
  // An invalid synopsis fails the reader, like any other corrupt field.
  static Synopsis Get(ByteReader& r) {
    Synopsis synopsis;
    if (!DecodeSynopsis(r, &synopsis).ok()) r.Invalidate();
    return synopsis;
  }
};

}  // namespace dwm

#endif  // DWMAXERR_WAVELET_SYNOPSIS_H_
