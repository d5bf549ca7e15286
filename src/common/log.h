// Process-wide structured logger: leveled (debug/info/warn/error) JSONL
// records on stderr or DWM_LOG_FILE, one self-contained JSON object per
// line, with per-event key/value fields and token-bucket rate limiting for
// hot-path events.
//
// Record shape (field order is fixed by the emitter, so logs diff cleanly):
//
//   {"lvl":"warn","event":"slow_query"[,"stable":false]
//    ,"<k>":<v>...,"m":{"ts_us":<n>[,"<k>":<v>...]}}
//
// Determinism contract (the same kStable/kMeasured split as the metrics
// registry and the stable Chrome-trace export): the top-level fields of a
// record are *stable* — a pure function of the inputs, byte-identical at
// any DWM_THREADS — while anything derived from a clock (the ts_us stamp,
// latencies, suppressed-event tallies) lives in the "m" sub-object, and
// records that only exist because of a measured trigger (slow-query hits,
// rate-limit notices) are marked "stable":false. The stable projection —
// tools/validate_log.py --expect-stable-identical, which gates CI — strips
// the "m" objects and drops the volatile lines; what remains is
// byte-identical across worker-thread counts (pinned end to end by
// tools/serve_determinism.py).
//
// Env knobs (read once, at first use of Logger::Global()):
//   DWM_LOG       minimum level: debug|info|warn|error (default info);
//                 runtime-changeable via SetLevel (dwm_cli serve
//                 `loglevel`). A malformed value warns once and keeps info.
//   DWM_LOG_FILE  append JSONL records to this path instead of stderr; an
//                 unopenable path warns once and falls back to stderr.
//
// Thread safety: Logger and TokenBucket are safe for concurrent use from
// any thread; each record is composed off-lock and written as one atomic
// line.
#ifndef DWMAXERR_COMMON_LOG_H_
#define DWMAXERR_COMMON_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace dwm::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// "debug", "info", "warn", "error".
const char* LevelName(Level level);

// Strict parse of a level name; false (leaving *out alone) on anything
// else, including case variants and trailing junk.
bool ParseLevel(std::string_view text, Level* out);

// Appends `s` to *out with JSON string escaping (quotes, backslashes,
// control characters including embedded newlines). The one JSON string
// escaper: shared by the record emitter, the serve trace layer and the
// Chrome-trace writer (mr/trace.cc).
void AppendJsonEscaped(std::string* out, std::string_view s);

// Monotonic seconds (steady clock); the time base for TokenBucket::Allow.
double MonotonicSeconds();

// Token bucket for rate limiting hot-path log events: `burst` tokens
// capacity, refilled at `per_second`. A non-positive `per_second` makes
// Allow() unconditional (tests and firehose capture opt out of limiting).
class TokenBucket {
 public:
  TokenBucket(double per_second, double burst);

  // Takes one token; false when the bucket is empty (the event should be
  // suppressed). Thread-safe.
  bool Allow() { return AllowAt(MonotonicSeconds()); }
  // Deterministic test entry point: same contract, caller-supplied clock.
  bool AllowAt(double now_seconds);

  // Number of Allow() == false outcomes since the last call; resets the
  // tally, so an emitted record can report how many events it stands for.
  int64_t TakeSuppressed();

 private:
  const double per_second_;
  const double burst_;
  std::mutex mu_;
  double tokens_;
  double last_seconds_ = 0.0;
  int64_t suppressed_ = 0;
};

class Logger;

// One structured record, built fluently and emitted on destruction:
//
//   log::Warn("env_parse_error")
//       .Str("knob", "DWM_THREADS").Str("value", text)
//       .Str("action", "using auto");
//
// Field methods are no-ops when the record's level is below the logger's
// threshold (the line is never composed). Measured* fields land in the "m"
// sub-object; Volatile() marks the whole line "stable":false. Both are
// stripped by the stable projection (see the header comment).
class Record {
 public:
  Record(Level level, std::string_view event, Logger* logger = nullptr);
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;
  ~Record();  // emits

  Record& Str(std::string_view key, std::string_view value);
  Record& I64(std::string_view key, int64_t value);
  Record& U64(std::string_view key, uint64_t value);
  Record& F64(std::string_view key, double value);  // non-finite -> null
  Record& Bool(std::string_view key, bool value);

  // Marks the record as triggered by a measured quantity (wall time, rate
  // limits): dropped from the stable projection as a whole line.
  Record& Volatile();

  // Measured (clock-derived) numeric fields, emitted inside "m".
  Record& MeasuredI64(std::string_view key, int64_t value);
  Record& MeasuredF64(std::string_view key, double value);

 private:
  Logger* const logger_;
  const Level level_;
  const bool enabled_;
  bool volatile_ = false;
  std::string stable_;    // ',"key":value' fragments, call order
  std::string measured_;  // same, numeric only (the "m" object body)
};

// Convenience constructors for the process-wide logger.
inline Record Debug(std::string_view event) {
  return Record(Level::kDebug, event);
}
inline Record Info(std::string_view event) { return Record(Level::kInfo, event); }
inline Record Warn(std::string_view event) { return Record(Level::kWarn, event); }
inline Record Error(std::string_view event) {
  return Record(Level::kError, event);
}

class Logger {
 public:
  // The process-wide logger; first call reads DWM_LOG / DWM_LOG_FILE.
  static Logger& Global();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  Level level() const { return level_.load(std::memory_order_relaxed); }
  void SetLevel(Level level) {
    level_.store(level, std::memory_order_relaxed);
  }
  bool Enabled(Level level) const { return level >= this->level(); }

  // Redirects the sink to `path` (append mode); an empty path restores
  // stderr. Returns false — keeping the current sink — when the file
  // cannot be opened.
  bool SetFile(const std::string& path);

  // Microseconds since the logger was created (steady clock); the ts_us
  // stamp on every record.
  int64_t ElapsedMicros() const;

  // Appends one complete line (a trailing '\n' is added) atomically and
  // flushes, so concurrent records never interleave and a crashed process
  // keeps everything it logged.
  void WriteLine(std::string_view line);

 private:
  friend class ScopedCapture;
  Logger();

  std::atomic<Level> level_{Level::kInfo};
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;               // guards file_, owns_file_, capture_
  std::FILE* file_ = nullptr;   // nullptr = stderr
  std::string* capture_ = nullptr;
};

// RAII capture for tests: while alive, records go to an internal string
// instead of the sink, and the level is restored on destruction so a test
// that lowers it to debug cannot leak that into the next test.
class ScopedCapture {
 public:
  ScopedCapture();
  ~ScopedCapture();
  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;

  const std::string& text() const { return text_; }

 private:
  std::string text_;
  std::string* previous_;
  Level previous_level_;
};

}  // namespace dwm::log

#endif  // DWMAXERR_COMMON_LOG_H_
