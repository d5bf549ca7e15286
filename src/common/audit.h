// DWM_AUDIT: the compile-time-gated runtime invariant layer.
//
// Audit checks verify *algorithmic* invariants that are too expensive for
// production builds: byte-level Serde round-trips on every shuffle record,
// partitioner stability, error-tree index algebra, and synopsis
// post-conditions (budget adherence, reported-vs-reconstructed error).
// They complement DWM_CHECK (always on, cheap precondition guards).
//
// The layer is compiled in when the build defines DWM_AUDIT (CMake option
// -DDWM_AUDIT=ON; the asan-ubsan and tsan presets enable it). Audit code
// is written behind `if constexpr (audit::kEnabled)` so it is always
// syntax- and type-checked but compiles to nothing in production builds.
//
// Every executed audit check bumps a process-wide counter so tests can
// assert that the layer actually ran (and that production builds run none).
#ifndef DWMAXERR_COMMON_AUDIT_H_
#define DWMAXERR_COMMON_AUDIT_H_

#include <atomic>
#include <cstdint>

#include "common/check.h"

#ifdef DWM_AUDIT
#define DWM_AUDIT_ENABLED 1
#else
#define DWM_AUDIT_ENABLED 0
#endif

namespace dwm::audit {

inline constexpr bool kEnabled = DWM_AUDIT_ENABLED != 0;

namespace internal {
inline std::atomic<int64_t>& Counter() {
  static std::atomic<int64_t> count{0};
  return count;
}
}  // namespace internal

// Number of audit checks executed so far in this process.
inline int64_t ChecksPerformed() {
  return internal::Counter().load(std::memory_order_relaxed);
}

inline void NoteCheck() {
  internal::Counter().fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dwm::audit

// Audit-flavored CHECK: counts the check, then aborts on violation with the
// standard CHECK diagnostics. Use inside `if constexpr (audit::kEnabled)`
// blocks (or in code already compiled only under audit).
#define DWM_AUDIT_CHECK(expr)  \
  do {                         \
    ::dwm::audit::NoteCheck(); \
    DWM_CHECK(expr);           \
  } while (0)

#endif  // DWMAXERR_COMMON_AUDIT_H_
