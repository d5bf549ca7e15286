#include "common/log.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace dwm::log {
namespace {

// Deferred env findings: the logger cannot emit about its own knobs while
// Global() is still constructing (a Record would re-enter Global()), so the
// constructor stashes them and Global() reports once construction is done.
struct EnvIssue {
  const char* knob = nullptr;
  std::string value;
  const char* want = nullptr;
  const char* action = nullptr;
};

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kDebug:
      return "debug";
    case Level::kInfo:
      return "info";
    case Level::kWarn:
      return "warn";
    case Level::kError:
      return "error";
  }
  return "info";
}

bool ParseLevel(std::string_view text, Level* out) {
  if (text == "debug") {
    *out = Level::kDebug;
  } else if (text == "info") {
    *out = Level::kInfo;
  } else if (text == "warn") {
    *out = Level::kWarn;
  } else if (text == "error") {
    *out = Level::kError;
  } else {
    return false;
  }
  return true;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TokenBucket::TokenBucket(double per_second, double burst)
    : per_second_(per_second),
      burst_(std::max(burst, 1.0)),
      tokens_(std::max(burst, 1.0)) {}

bool TokenBucket::AllowAt(double now_seconds) {
  if (per_second_ <= 0.0) return true;
  const std::lock_guard<std::mutex> lock(mu_);
  if (last_seconds_ != 0.0 && now_seconds > last_seconds_) {
    tokens_ = std::min(burst_,
                       tokens_ + (now_seconds - last_seconds_) * per_second_);
  }
  last_seconds_ = now_seconds;
  if (tokens_ < 1.0) {
    ++suppressed_;
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

int64_t TokenBucket::TakeSuppressed() {
  const std::lock_guard<std::mutex> lock(mu_);
  const int64_t n = suppressed_;
  suppressed_ = 0;
  return n;
}

Record::Record(Level level, std::string_view event, Logger* logger)
    : logger_(logger != nullptr ? logger : &Logger::Global()),
      level_(level),
      enabled_(logger_->Enabled(level)) {
  if (!enabled_) return;
  stable_.reserve(160);
  stable_ += "{\"lvl\":\"";
  stable_ += LevelName(level_);
  stable_ += "\",\"event\":\"";
  AppendJsonEscaped(&stable_, event);
  stable_ += '"';
}

Record& Record::Str(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  stable_ += ",\"";
  AppendJsonEscaped(&stable_, key);
  stable_ += "\":\"";
  AppendJsonEscaped(&stable_, value);
  stable_ += '"';
  return *this;
}

namespace {

void AppendNumberField(std::string* out, std::string_view key,
                       const std::string& number) {
  *out += ",\"";
  AppendJsonEscaped(out, key);
  *out += "\":";
  *out += number;
}

std::string FormatF64(double value) {
  if (!std::isfinite(value)) return "null";  // NaN/Inf are not JSON
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

Record& Record::I64(std::string_view key, int64_t value) {
  if (!enabled_) return *this;
  AppendNumberField(&stable_, key, std::to_string(value));
  return *this;
}

Record& Record::U64(std::string_view key, uint64_t value) {
  if (!enabled_) return *this;
  AppendNumberField(&stable_, key, std::to_string(value));
  return *this;
}

Record& Record::F64(std::string_view key, double value) {
  if (!enabled_) return *this;
  AppendNumberField(&stable_, key, FormatF64(value));
  return *this;
}

Record& Record::Bool(std::string_view key, bool value) {
  if (!enabled_) return *this;
  AppendNumberField(&stable_, key, value ? "true" : "false");
  return *this;
}

Record& Record::Volatile() {
  volatile_ = true;
  return *this;
}

Record& Record::MeasuredI64(std::string_view key, int64_t value) {
  if (!enabled_) return *this;
  AppendNumberField(&measured_, key, std::to_string(value));
  return *this;
}

Record& Record::MeasuredF64(std::string_view key, double value) {
  if (!enabled_) return *this;
  AppendNumberField(&measured_, key, FormatF64(value));
  return *this;
}

Record::~Record() {
  if (!enabled_) return;
  // Line layout: stable fields in call order, then the "stable":false
  // marker (when volatile), then the "m" object — so the stable projection
  // can strip everything after the last stable field in one cut.
  std::string line = std::move(stable_);
  if (volatile_) line += ",\"stable\":false";
  line += ",\"m\":{\"ts_us\":";
  line += std::to_string(logger_->ElapsedMicros());
  line += measured_;
  line += "}}";
  logger_->WriteLine(line);
}

Logger& Logger::Global() {
  static Logger* global = new Logger();
  // Env findings are reported after (not during) construction; re-entry
  // through Record -> Global() is safe because `global` is already set.
  static const bool reported = [] {
    static EnvIssue issues[2];
    size_t count = 0;
    if (const char* env = std::getenv("DWM_LOG")) {
      Level level = Level::kInfo;
      if (ParseLevel(env, &level)) {
        global->SetLevel(level);
      } else {
        issues[count++] = {"DWM_LOG", env, "debug|info|warn|error",
                          "keeping info"};
      }
    }
    if (const char* env = std::getenv("DWM_LOG_FILE")) {
      if (env[0] != '\0' && !global->SetFile(env)) {
        issues[count++] = {"DWM_LOG_FILE", env, "writable path",
                          "keeping stderr"};
      }
    }
    for (size_t i = 0; i < count; ++i) {
      Record(Level::kWarn, "env_parse_error", global)
          .Str("knob", issues[i].knob)
          .Str("value", issues[i].value)
          .Str("want", issues[i].want)
          .Str("action", issues[i].action);
    }
    return true;
  }();
  (void)reported;
  return *global;
}

Logger::Logger() : epoch_(std::chrono::steady_clock::now()) {}

bool Logger::SetFile(const std::string& path) {
  if (path.empty()) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (file_ != nullptr) std::fclose(file_);
    file_ = nullptr;
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  return true;
}

int64_t Logger::ElapsedMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Logger::WriteLine(std::string_view line) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (capture_ != nullptr) {
    capture_->append(line);
    capture_->push_back('\n');
    return;
  }
  std::FILE* sink = file_ != nullptr ? file_ : stderr;
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fputc('\n', sink);
  std::fflush(sink);
}

ScopedCapture::ScopedCapture() : previous_level_(Logger::Global().level()) {
  Logger& logger = Logger::Global();
  const std::lock_guard<std::mutex> lock(logger.mu_);
  previous_ = logger.capture_;
  logger.capture_ = &text_;
}

ScopedCapture::~ScopedCapture() {
  Logger& logger = Logger::Global();
  logger.SetLevel(previous_level_);
  const std::lock_guard<std::mutex> lock(logger.mu_);
  logger.capture_ = previous_;
}

}  // namespace dwm::log
