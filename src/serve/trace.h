// Request-scoped tracing for the serving engine: every answered batch
// (one request) produces a span tree — request root, then registry
// lookup -> batch validation -> answer phases — exported through the
// existing Chrome-trace writer (mr/trace.h, SpanKind::kServe, pid lane 3),
// so live serve traffic and the modeled MR build timeline can land in one
// trace file.
//
// Span *times* are wall-clock seconds since the collector's epoch and
// therefore measured; the span structure and args (request ids, per-type
// query counts, shard identity) are stable — a pure function of the query
// stream — and survive the stable Chrome export unchanged. Collection is
// opt-in (Enable()); a disabled collector costs one relaxed atomic load per
// request.
#ifndef DWMAXERR_SERVE_TRACE_H_
#define DWMAXERR_SERVE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "mr/trace.h"

namespace dwm::serve {

// One timed phase of a request (name points at a string literal).
struct RequestPhase {
  const char* name = "";
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

// Everything the engine records about one answered batch.
struct RequestTrace {
  uint64_t request = 0;  // monotonic per-engine request id, starts at 1
  std::string dataset;
  std::string algo;
  int64_t budget = 0;
  int64_t queries = 0;
  int64_t points = 0;
  int64_t range_sums = 0;
  int64_t range_avgs = 0;
  double start_seconds = 0.0;  // relative to the collector epoch
  double end_seconds = 0.0;
  std::vector<RequestPhase> phases;
};

class ServeTraceCollector {
 public:
  // Requests kept per collection; beyond it new requests are counted in
  // dropped() instead of stored, bounding a long-running server's memory.
  static constexpr size_t kMaxRequests = 1 << 20;

  ServeTraceCollector();
  ServeTraceCollector(const ServeTraceCollector&) = delete;
  ServeTraceCollector& operator=(const ServeTraceCollector&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Drops collected requests and restarts the time base.
  void Clear();

  // Seconds since the collector epoch (steady clock); the time base every
  // RequestTrace must use.
  double NowSeconds() const;

  // Stores one finished request (no-op when disabled or full).
  void Record(RequestTrace&& request);

  size_t size() const;
  size_t dropped() const;

  // Flattens the collected requests into trace spans (SpanKind::kServe,
  // cat "serve"): per request a root span named "req<id>" carrying query
  // and shard args, and one child per phase. Composable with a build trace
  // via Append().
  mr::Trace Snapshot() const;

  // Appends this collector's spans to an existing trace (e.g. a modeled
  // build timeline from mr::BuildTrace), extending total_seconds, so both
  // land in one Chrome trace file.
  void Append(mr::Trace* trace) const;

  // Snapshot() serialized as Chrome trace_event JSON to `path`
  // (atomicity is not required here: the trace is a diagnostic artifact).
  [[nodiscard]] Status WriteChromeTrace(
      const std::string& path, const mr::ChromeTraceOptions& options = {}) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards epoch_, requests_, dropped_
  std::chrono::steady_clock::time_point epoch_;
  std::vector<RequestTrace> requests_;
  size_t dropped_ = 0;
};

}  // namespace dwm::serve

#endif  // DWMAXERR_SERVE_TRACE_H_
