// Long-running synopsis query engine: answers point / range-sum /
// range-average queries against shards registered in a ShardRegistry.
// Every query goes straight to Synopsis::PointEstimate / RangeSum, whose
// rank index makes each coefficient lookup O(1) (wavelet/synopsis.h), so a
// point costs <= log n + 1 lookups and a range <= 2 log n. The engine keeps
// no per-query mutable state beyond atomic counters.
//
// Determinism contract: answers are a pure function of (shard, query),
// bit-identical to calling PointEstimate / RangeSum (RangeSum / k for an
// average) directly; the per-type query counters are exported as kStable
// metrics and pinned by the serve determinism gate
// (tools/serve_determinism.py).
//
// Observability (DESIGN.md §15): every AnswerBatch call is one *request*
// with a monotonic id. When the engine's ServeTraceCollector is enabled the
// request emits a span tree (lookup → validate → answer) through the
// Chrome-trace writer; per-query-type latency histograms
// (dwm_serve_latency_us{type=...}, kMeasured) and per-type query counters
// (kStable) always feed the metrics registry; batches slower than
// EngineOptions::slow_query_us emit a rate-limited `slow_query` log record.
// A batch answers each query type as one timed run, so
// dwm_serve_latency_us{type=point} holds point time only, while
// {type=all} is batch turnaround / batch size.
#ifndef DWMAXERR_SERVE_ENGINE_H_
#define DWMAXERR_SERVE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/status.h"
#include "serve/registry.h"
#include "serve/trace.h"

namespace dwm::serve {

enum class QueryType {
  kPoint,     // reconstructed value at leaf `lo`
  kRangeSum,  // sum of leaves [lo, hi], inclusive
  kRangeAvg,  // mean of leaves [lo, hi], inclusive
};
// Number of QueryType values; the engine's per-type arrays index by type.
inline constexpr size_t kQueryTypes = 3;

struct Query {
  QueryType type = QueryType::kPoint;
  int64_t lo = 0;
  int64_t hi = 0;  // ignored for kPoint
};

// Compatibility shim for dwmbench/dwm_bench.cpp, which predates the
// removal of the serve block cache and is frozen until the next benchmark
// change: it still sets EngineOptions::cache_bytes and reads CacheStats().
// The field is ignored and the stats are always zero. Nothing else may use
// either; both go with the next benchmark change.
struct SubtreeCache {
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
};

struct EngineOptions {
  uint64_t cache_bytes = 0;  // ignored: see SubtreeCache above
  // Slow-query threshold in microseconds over the *whole batch*: a batch
  // whose turnaround meets or exceeds it emits a rate-limited `slow_query`
  // log record (0 logs every batch; at most 100 records per second, burst
  // 200). Negative disables the slow-query log. DWM_SLOW_QUERY_US
  // overrides the default in FromEnv().
  int64_t slow_query_us = -1;

  // Defaults, with slow_query_us overridden by a strictly parsed
  // DWM_SLOW_QUERY_US. A malformed value keeps the default and warns once
  // via an `env_parse_error` log record, never truncates.
  static EngineOptions FromEnv();
};

// Bucket upper bounds (microseconds) of the dwm_serve_latency_us
// histograms: factor-2 exponential from 0.1us to ~0.8s. Shared with
// bench/serve_bench.cpp so the in-engine percentile cross-check compares
// bucket indexes, not raw values.
const std::vector<double>& ServeLatencyBounds();

class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options);
  QueryEngine() : QueryEngine(EngineOptions::FromEnv()) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Shard loading/lookup. Registration is not synchronized with answering:
  // register shards before (or between) AnswerBatch calls, never during.
  ShardRegistry& registry() { return registry_; }
  const ShardRegistry& registry() const { return registry_; }

  // Answers `queries` in order into *results (resized to queries.size()).
  // The whole batch is validated first — unknown shard is
  // FailedPrecondition, a malformed or out-of-domain range is OutOfRange —
  // and on any failure *results is left untouched and nothing is answered.
  // Safe to call from several threads at once on the same shard.
  [[nodiscard]] Status AnswerBatch(const ShardKey& key,
                                   const std::vector<Query>& queries,
                                   std::vector<double>* results);

  // Always zero: the dwm_bench compatibility shim (see SubtreeCache).
  SubtreeCache::Stats CacheStats() const { return {}; }

  // Query tallies by type (the per-type half of `dwm_cli serve`'s extended
  // `stats` line), read from the dwm_serve_queries_by_type_total counters.
  // Those counters are per metrics registry, so engines that share one
  // registry share the tallies; `dwm_cli serve` and serve_bench each run
  // one engine.
  struct TypeCounts {
    int64_t points = 0;
    int64_t range_sums = 0;
    int64_t range_avgs = 0;
  };
  TypeCounts QueryCounts() const;
  // Requests (AnswerBatch calls, including rejected ones) so far; the last
  // issued request id.
  uint64_t Requests() const {
    return next_request_.load(std::memory_order_relaxed);
  }

  // Request-scoped tracing; disabled by default. Enable via
  // tracer().Enable() (dwm_cli serve `trace on`, serve_bench --trace).
  ServeTraceCollector& tracer() { return tracer_; }
  const ServeTraceCollector& tracer() const { return tracer_; }

  // Records an externally *verified* answer error for the shard under
  // `key` (e.g. serve_bench sampling reconstructions against the source
  // data): keeps the per-shard max in the dwm_serve_achieved_error gauge
  // next to the builder's dwm_serve_error_bound, the paper's
  // guarantee-vs-reality pair. No-op for an unknown key or non-finite
  // error.
  void ObserveAchievedError(const ShardKey& key, double abs_error);

 private:
  const EngineOptions options_;
  ShardRegistry registry_;

  std::atomic<uint64_t> next_request_{0};
  ServeTraceCollector tracer_;
  log::TokenBucket slow_log_;

  // Published to metrics::Default(), indexed by QueryType: per-type query
  // counters (kStable; see the header comment) and latency histograms
  // (kMeasured, ServeLatencyBounds percentiles at bucket resolution).
  metrics::Counter* const by_type_[kQueryTypes];
  metrics::Histogram* const latency_all_;
  metrics::Histogram* const latency_by_type_[kQueryTypes];
};

}  // namespace dwm::serve

#endif  // DWMAXERR_SERVE_ENGINE_H_
