// Seeded violation for the compiler's discarded-Status check: a
// Status-returning call used as a bare expression statement. `class
// [[nodiscard]] Status` plus the unconditional -Werror=unused-result in
// cmake/CompilerWarnings.cmake make it a build error with or without
// DWM_WERROR. The compile_fixture_discarded_status ctest compiles this file
// (-fsyntax-only, the project's warning flags) and passes only on that
// error. Never linked.
#include "common/status.h"

namespace dwm {

Status WriteCheckpoint(const char* path);

void Shutdown(const char* path) {
  WriteCheckpoint(path);  // violation: Status dropped on the floor
}

}  // namespace dwm
