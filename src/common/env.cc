#include "common/env.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <system_error>

#include "common/log.h"

namespace dwm {

bool ParseInt(std::string_view text, int64_t min, int64_t max, int64_t* out) {
  if (text.empty() || (text[0] == '-' && min >= 0)) return false;
  const char* end = text.data() + text.size();
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

void WarnBadKnob(std::string_view knob, std::string_view value,
                 std::string_view want, std::string_view action,
                 std::string_view error) {
  static std::mutex mu;
  static std::set<std::string, std::less<>>* const warned =
      new std::set<std::string, std::less<>>();
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!warned->emplace(knob).second) return;
  }
  log::Record record(log::Level::kWarn, "env_parse_error");
  record.Str("knob", knob).Str("value", value).Str("want", want);
  if (!error.empty()) record.Str("error", error);
  record.Str("action", action);
}

std::optional<int64_t> EnvInt(const char* knob, int64_t min, int64_t max,
                              std::string_view want, std::string_view action) {
  const char* text = std::getenv(knob);
  if (text == nullptr || text[0] == '\0') return std::nullopt;
  int64_t value = 0;
  if (ParseInt(text, min, max, &value)) return value;
  WarnBadKnob(knob, text, want, action);
  return std::nullopt;
}

}  // namespace dwm
