# Sanitizer toggles for the dwmaxerr build.
#
# Usage: configure with -DDWM_SANITIZE=<list>, where <list> is a comma- or
# semicolon-separated subset of {address, undefined, leak, thread}. The
# CMakePresets.json presets `asan-ubsan` and `tsan` wire the common
# combinations. asan-ubsan also reports leaks: LeakSanitizer is on by
# default under ASan on Linux x86_64. tsan races the MR engine's
# thread-pool executor (mr/job.h runs map and reduce tasks on worker
# threads) and runs in CI as its own matrix leg.
#
# Thread sanitizer cannot be combined with address/leak sanitizers; this
# module rejects that combination at configure time. All sanitizers run with
# -fno-sanitize-recover so any finding aborts the offending test instead of
# logging and continuing (ctest then reports it as a failure).

set(DWM_SANITIZE "" CACHE STRING
    "Sanitizers to enable: comma/semicolon list of address;undefined;leak;thread")

function(dwm_enable_sanitizers)
  if(NOT DWM_SANITIZE)
    return()
  endif()

  string(REPLACE "," ";" _requested "${DWM_SANITIZE}")
  set(_flags "")
  set(_has_thread FALSE)
  set(_has_addr_or_leak FALSE)
  foreach(_san IN LISTS _requested)
    string(STRIP "${_san}" _san)
    if(_san STREQUAL "address")
      list(APPEND _flags "-fsanitize=address")
      set(_has_addr_or_leak TRUE)
    elseif(_san STREQUAL "undefined")
      list(APPEND _flags "-fsanitize=undefined")
    elseif(_san STREQUAL "leak")
      list(APPEND _flags "-fsanitize=leak")
      set(_has_addr_or_leak TRUE)
    elseif(_san STREQUAL "thread")
      list(APPEND _flags "-fsanitize=thread")
      set(_has_thread TRUE)
    else()
      message(FATAL_ERROR
              "DWM_SANITIZE: unknown sanitizer '${_san}' "
              "(expected address, undefined, leak or thread)")
    endif()
  endforeach()

  if(_has_thread AND _has_addr_or_leak)
    message(FATAL_ERROR
            "DWM_SANITIZE: thread sanitizer cannot be combined with "
            "address/leak sanitizers")
  endif()

  list(APPEND _flags "-fno-omit-frame-pointer" "-fno-sanitize-recover=all")
  message(STATUS "dwmaxerr: sanitizers enabled: ${DWM_SANITIZE}")
  add_compile_options(${_flags})
  add_link_options(${_flags})
endfunction()
