#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/env.h"

namespace dwm::serve {

const std::vector<double>& ServeLatencyBounds() {
  // Factor-2 exponential: 0.1us, 0.2us, ... ~0.84s (24 buckets + overflow).
  static const std::vector<double>* const bounds = new std::vector<double>(
      metrics::HistogramBuckets::Exponential(0.1, 2.0, 24));
  return *bounds;
}

EngineOptions EngineOptions::FromEnv() {
  EngineOptions options;
  options.slow_query_us =
      EnvInt("DWM_SLOW_QUERY_US", 0, int64_t{1} << 62,
             "a non-negative microsecond threshold", "slow-query log disabled")
          .value_or(options.slow_query_us);
  return options;
}

QueryEngine::QueryEngine(EngineOptions options)
    : options_(options),
      slow_log_(options.slow_query_log_per_second,
                std::max(1.0, 2.0 * options.slow_query_log_per_second)),
      queries_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_total", "Queries answered by the serve engine",
          {}, metrics::Stability::kStable)),
      point_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_by_type_total",
          "Queries answered by the serve engine, by query type",
          {{"type", "point"}}, metrics::Stability::kStable)),
      range_sum_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_by_type_total",
          "Queries answered by the serve engine, by query type",
          {{"type", "range_sum"}}, metrics::Stability::kStable)),
      range_avg_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_by_type_total",
          "Queries answered by the serve engine, by query type",
          {{"type", "range_avg"}}, metrics::Stability::kStable)),
      latency_all_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "all"}},
          metrics::Stability::kMeasured)),
      latency_point_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "point"}},
          metrics::Stability::kMeasured)),
      latency_range_sum_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "range_sum"}},
          metrics::Stability::kMeasured)),
      latency_range_avg_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "range_avg"}},
          metrics::Stability::kMeasured)) {}

Status QueryEngine::AnswerBatch(const ShardKey& key,
                                const std::vector<Query>& queries,
                                std::vector<double>* results) {
  const uint64_t request =
      next_request_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto wall_start = std::chrono::steady_clock::now();
  const bool tracing = tracer_.enabled();
  const bool slow_enabled = options_.slow_query_us >= 0;

  RequestTrace rt;
  if (tracing) {
    rt.request = request;
    rt.start_seconds = tracer_.NowSeconds();
  }
  auto begin_phase = [&](const char* name) {
    if (tracing) rt.phases.push_back({name, tracer_.NowSeconds(), 0.0});
  };
  auto end_phase = [&] {
    if (tracing) rt.phases.back().end_seconds = tracer_.NowSeconds();
  };

  begin_phase("lookup");
  const Shard* shard = registry_.Find(key);
  end_phase();
  if (shard == nullptr) {
    log::Warn("query_rejected")
        .U64("request", request)
        .Str("dataset", key.dataset)
        .Str("algo", key.algo)
        .I64("budget", key.budget)
        .I64("queries", static_cast<int64_t>(queries.size()))
        .Str("reason", "unknown_shard");
    return Status::FailedPrecondition("serve: no shard registered for (" +
                                      key.dataset + ", " + key.algo + ", B=" +
                                      std::to_string(key.budget) + ")");
  }
  const Synopsis& synopsis = shard->synopsis;
  const int64_t n = synopsis.domain_size();
  // Validate the whole batch before answering any of it: a rejected batch
  // must not leave half-filled results.
  begin_phase("validate");
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const int64_t hi = q.type == QueryType::kPoint ? q.lo : q.hi;
    if (q.lo < 0 || hi >= n || q.lo > hi) {
      end_phase();
      log::Warn("query_rejected")
          .U64("request", request)
          .Str("dataset", key.dataset)
          .Str("algo", key.algo)
          .I64("budget", key.budget)
          .I64("queries", static_cast<int64_t>(queries.size()))
          .Str("reason", "out_of_range")
          .I64("query", static_cast<int64_t>(i))
          .I64("lo", q.lo)
          .I64("hi", hi);
      return Status::OutOfRange(
          "serve: query " + std::to_string(i) + " [" + std::to_string(q.lo) +
          ", " + std::to_string(hi) + "] outside domain [0, " +
          std::to_string(n) + ")");
    }
  }
  end_phase();

  std::vector<double> answers(queries.size(), 0.0);
  int64_t point_count = 0;
  int64_t range_sums = 0;
  int64_t range_avgs = 0;
  begin_phase("answer");
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.type) {
      case QueryType::kPoint:
        ++point_count;
        answers[i] = synopsis.PointEstimate(q.lo);
        break;
      case QueryType::kRangeSum:
        ++range_sums;
        answers[i] = synopsis.RangeSum(q.lo, q.hi);
        break;
      case QueryType::kRangeAvg:
        ++range_avgs;
        answers[i] =
            synopsis.RangeSum(q.lo, q.hi) / static_cast<double>(q.hi - q.lo + 1);
        break;
    }
  }
  end_phase();

  queries_total_->Increment(static_cast<int64_t>(queries.size()));
  if (point_count > 0) {
    point_total_->Increment(point_count);
    point_queries_.fetch_add(point_count, std::memory_order_relaxed);
  }
  if (range_sums > 0) {
    range_sum_total_->Increment(range_sums);
    range_sum_queries_.fetch_add(range_sums, std::memory_order_relaxed);
  }
  if (range_avgs > 0) {
    range_avg_total_->Increment(range_avgs);
    range_avg_queries_.fetch_add(range_avgs, std::memory_order_relaxed);
  }

  // Per-query latency attribution, matching the closed-loop load
  // generator's external measurement: batch turnaround / batch size, every
  // query of the batch observing the same value.
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  if (!queries.empty()) {
    const double per_query_us =
        elapsed_us / static_cast<double>(queries.size());
    latency_all_->ObserveN(per_query_us,
                           static_cast<int64_t>(queries.size()));
    latency_point_->ObserveN(per_query_us, point_count);
    latency_range_sum_->ObserveN(per_query_us, range_sums);
    latency_range_avg_->ObserveN(per_query_us, range_avgs);
  }

  if (tracing) {
    rt.dataset = key.dataset;
    rt.algo = key.algo;
    rt.budget = key.budget;
    rt.queries = static_cast<int64_t>(queries.size());
    rt.points = point_count;
    rt.range_sums = range_sums;
    rt.range_avgs = range_avgs;
    rt.end_seconds = tracer_.NowSeconds();
    tracer_.Record(std::move(rt));
  }

  if (slow_enabled &&
      elapsed_us >= static_cast<double>(options_.slow_query_us) &&
      slow_log_.Allow()) {
    // Volatile: whether a batch crosses the threshold is a wall-clock
    // outcome, so the whole line is dropped from the stable projection.
    log::Warn("slow_query")
        .Volatile()
        .U64("request", request)
        .Str("dataset", key.dataset)
        .Str("algo", key.algo)
        .I64("budget", key.budget)
        .I64("queries", static_cast<int64_t>(queries.size()))
        .I64("points", point_count)
        .I64("range_sums", range_sums)
        .I64("range_avgs", range_avgs)
        .I64("threshold_us", options_.slow_query_us)
        .MeasuredF64("elapsed_us", elapsed_us)
        .MeasuredI64("suppressed", slow_log_.TakeSuppressed());
  }

  *results = std::move(answers);
  return Status::OK();
}

Status QueryEngine::Answer(const ShardKey& key, const Query& query,
                           double* result) {
  std::vector<double> results;
  DWM_RETURN_NOT_OK(AnswerBatch(key, {query}, &results));
  *result = results.front();
  return Status::OK();
}

QueryEngine::TypeCounts QueryEngine::QueryCounts() const {
  return {point_queries_.load(std::memory_order_relaxed),
          range_sum_queries_.load(std::memory_order_relaxed),
          range_avg_queries_.load(std::memory_order_relaxed)};
}

void QueryEngine::ObserveAchievedError(const ShardKey& key, double abs_error) {
  if (!std::isfinite(abs_error)) return;
  const Shard* shard = registry_.Find(key);
  if (shard == nullptr) return;
  const metrics::Labels labels = {{"dataset", key.dataset},
                                  {"algo", key.algo},
                                  {"budget", std::to_string(key.budget)}};
  metrics::Gauge* achieved = metrics::Default().GetGauge(
      "dwm_serve_achieved_error",
      "Largest externally verified absolute answer error per shard", labels,
      metrics::Stability::kStable);
  if (abs_error > achieved->value()) achieved->Set(abs_error);
  if (std::isfinite(shard->error_bound)) {
    metrics::Default()
        .GetGauge("dwm_serve_error_bound",
                  "Builder-guaranteed maximum absolute point error per shard",
                  labels, metrics::Stability::kStable)
        ->Set(shard->error_bound);
  }
}

}  // namespace dwm::serve
