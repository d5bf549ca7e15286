#include "core/conventional.h"

#include "common/bits.h"
#include "common/check.h"

namespace dwm {

Synopsis ConventionalFromCoeffs(const std::vector<double>& coeffs,
                                int64_t budget) {
  const int64_t n = static_cast<int64_t>(coeffs.size());
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(n)));
  TopBySignificance top(budget);
  for (int64_t i = 0; i < n; ++i) top.Offer(i, coeffs[static_cast<size_t>(i)]);
  return Synopsis(n, top.Take());
}

Synopsis ConventionalSynopsis(const std::vector<double>& data,
                              int64_t budget) {
  return ConventionalFromCoeffs(ForwardHaar(data), budget);
}

}  // namespace dwm
