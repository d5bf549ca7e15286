#include "serve/engine.h"

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

namespace {

// Rate limit of the slow-query log: records per second, and the burst a
// quiet engine may emit at once before the limit bites.
constexpr double kSlowQueryLogPerSecond = 100.0;
constexpr double kSlowQueryLogBurst = 200.0;

metrics::Counter* TypeCounter(const char* type) {
  return metrics::Default().GetCounter(
      "dwm_serve_queries_by_type_total",
      "Queries answered by the serve engine, by query type", {{"type", type}},
      metrics::Stability::kStable);
}

metrics::Histogram* LatencyHistogram(const char* type) {
  return metrics::Default().GetHistogram(
      "dwm_serve_latency_us",
      "Per-query serve latency in microseconds (type=all: batch turnaround "
      "/ batch size; per type: the time of the batch's run of that type / "
      "its size)",
      ServeLatencyBounds(), {{"type", type}}, metrics::Stability::kMeasured);
}

// Answers `count` queries of type `type`, the ones at `order[0..count)` or,
// with a null `order`, the first `count`, writing each answer back at its
// own index.
void AnswerRun(const Synopsis& synopsis, const std::vector<Query>& queries,
               QueryType type, const size_t* order, size_t count,
               std::vector<double>& answers) {
  for (size_t k = 0; k < count; ++k) {
    const size_t i = order == nullptr ? k : order[k];
    const Query& q = queries[i];
    switch (type) {
      case QueryType::kPoint:
        answers[i] = synopsis.PointEstimate(q.lo);
        break;
      case QueryType::kRangeSum:
        answers[i] = synopsis.RangeSum(q.lo, q.hi);
        break;
      case QueryType::kRangeAvg:
        answers[i] = synopsis.RangeSum(q.lo, q.hi) /
                     static_cast<double>(q.hi - q.lo + 1);
        break;
    }
  }
}

}  // namespace

QueryEngine::QueryEngine(EngineOptions options)
    : options_(options),
      slow_log_(kSlowQueryLogPerSecond, kSlowQueryLogBurst),
      by_type_{TypeCounter("point"), TypeCounter("range_sum"),
               TypeCounter("range_avg")},
      latency_all_(LatencyHistogram("all")),
      latency_by_type_{LatencyHistogram("point"),
                       LatencyHistogram("range_sum"),
                       LatencyHistogram("range_avg")} {}

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
  // must not leave half-filled results. The same pass counts the types.
  int64_t counts[kQueryTypes] = {0, 0, 0};
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
    ++counts[static_cast<size_t>(q.type)];
  }
  end_phase();

  // Per-type latency attribution: each non-empty type is answered as one
  // run, and each of its queries observes run time / run size. A one-type
  // batch's run is the whole batch, so it reads the clock no more often
  // than the batch timing itself; a mixed batch adds one read after
  // validation and one between runs. A mixed batch's indices are first
  // grouped by type (a counting sort), so no run branches on the type of
  // each query.
  const int types = (counts[0] > 0) + (counts[1] > 0) + (counts[2] > 0);
  std::vector<double> answers(queries.size(), 0.0);
  std::vector<size_t> order;
  size_t begin[kQueryTypes] = {0, 0, 0};
  if (types > 1) {
    order.resize(queries.size());
    begin[1] = static_cast<size_t>(counts[0]);
    begin[2] = begin[1] + static_cast<size_t>(counts[1]);
    size_t next[kQueryTypes] = {begin[0], begin[1], begin[2]};
    for (size_t i = 0; i < queries.size(); ++i) {
      order[next[static_cast<size_t>(queries[i].type)]++] = i;
    }
  }
  double run_us[kQueryTypes] = {0.0, 0.0, 0.0};
  auto run_start = types > 1 ? std::chrono::steady_clock::now() : wall_start;
  begin_phase("answer");
  for (size_t t = 0; t < kQueryTypes; ++t) {
    if (counts[t] == 0) continue;
    AnswerRun(synopsis, queries, static_cast<QueryType>(t),
              order.empty() ? nullptr : order.data() + begin[t],
              static_cast<size_t>(counts[t]), answers);
    const auto run_end = std::chrono::steady_clock::now();
    run_us[t] =
        std::chrono::duration<double, std::micro>(run_end - run_start).count();
    run_start = run_end;
  }
  end_phase();
  // The last run ends the batch.
  const auto wall_end =
      types > 0 ? run_start : std::chrono::steady_clock::now();

  for (size_t t = 0; t < kQueryTypes; ++t) {
    if (counts[t] == 0) continue;
    by_type_[t]->Increment(counts[t]);
    latency_by_type_[t]->ObserveN(run_us[t] / static_cast<double>(counts[t]),
                                  counts[t]);
  }
  // {type=all} matches the closed-loop load generator's external
  // measurement: batch turnaround / batch size.
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(wall_end - wall_start)
          .count();
  if (!queries.empty()) {
    latency_all_->ObserveN(elapsed_us / static_cast<double>(queries.size()),
                           static_cast<int64_t>(queries.size()));
  }

  if (tracing) {
    rt.dataset = key.dataset;
    rt.algo = key.algo;
    rt.budget = key.budget;
    rt.queries = static_cast<int64_t>(queries.size());
    rt.points = counts[0];
    rt.range_sums = counts[1];
    rt.range_avgs = counts[2];
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
        .I64("points", counts[0])
        .I64("range_sums", counts[1])
        .I64("range_avgs", counts[2])
        .I64("threshold_us", options_.slow_query_us)
        .MeasuredF64("elapsed_us", elapsed_us)
        .MeasuredI64("suppressed", slow_log_.TakeSuppressed());
  }

  *results = std::move(answers);
  return Status::OK();
}

QueryEngine::TypeCounts QueryEngine::QueryCounts() const {
  return {by_type_[0]->value(), by_type_[1]->value(), by_type_[2]->value()};
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
