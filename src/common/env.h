// Strict numeric parsing for environment knobs and command-line flags.
//
// The one contract every numeric DWM_* knob follows: the whole value is
// base-10 digits (a leading '-' only where the range admits negatives)
// inside the knob's [min, max] range — no whitespace, no '+', no "0x", no
// trailing bytes, no overflow. A bad value is never misread as its numeric
// prefix: the knob logs one `env_parse_error` record per process and the
// caller keeps its default. Unset and empty knobs are silent.
//
// DWM_LOG / DWM_LOG_FILE are the documented exception: common/log.cc reads
// them itself, because the logger cannot log through itself while it is
// being built.
#ifndef DWMAXERR_COMMON_ENV_H_
#define DWMAXERR_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace dwm {

// Full-string base-10 integer in [min, max]; false (leaving *out alone) on
// anything else. A '-' is accepted only when min < 0.
bool ParseInt(std::string_view text, int64_t min, int64_t max, int64_t* out);

// Full-string finite decimal (strtod syntax minus leading whitespace, '+',
// hex floats, inf and nan); false (leaving *out alone) on anything else,
// including overflow.
bool ParseDouble(std::string_view text, double* out);

// Logs `env_parse_error` for `knob` once per process; later calls for the
// same knob are silent. `want` describes the accepted values, `action` the
// fallback taken, `error` (optional) a grammar parser's diagnosis.
void WarnBadKnob(std::string_view knob, std::string_view value,
                 std::string_view want, std::string_view action,
                 std::string_view error = {});

// The integer knob `knob` parsed with ParseInt; nullopt when unset, empty
// or malformed (the latter warns once through WarnBadKnob).
std::optional<int64_t> EnvInt(const char* knob, int64_t min, int64_t max,
                              std::string_view want, std::string_view action);

}  // namespace dwm

#endif  // DWMAXERR_COMMON_ENV_H_
