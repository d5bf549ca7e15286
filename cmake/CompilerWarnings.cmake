# Hardened warning set for all dwmaxerr targets. The tree builds clean under
# these; DWM_WERROR (on in CI) turns any regression into a build failure.
# A discarded [[nodiscard]] result (every dwm::Status) is an error in every
# build, DWM_WERROR or not: the compiler is the one check for a dropped
# Status (tests/compile_fixtures/discarded_status_violation.cc).

option(DWM_WERROR "Treat compiler warnings as errors" OFF)

set(DWM_WARNING_FLAGS
  -Wall
  -Wextra
  -Wshadow
  -Wconversion
  -Wsign-conversion
  -Wdouble-promotion
  -Wold-style-cast
  -Wnon-virtual-dtor
  -Woverloaded-virtual
  -Wcast-qual
  -Wundef
  -Werror=unused-result
)

function(dwm_enable_warnings)
  add_compile_options(${DWM_WARNING_FLAGS})
  if(DWM_WERROR)
    add_compile_options(-Werror)
  endif()
endfunction()
