// Closed-loop load generator for the serving engine (src/serve/engine.h):
// builds a synopsis, registers it as a shard, and drives a deterministic
// skewed query stream through QueryEngine::AnswerBatch, measuring per-query
// latency client-side (the next batch is issued only after the previous one
// returns).
//
// Reported through BenchReporter under the "serve" suite:
//   serve/closed-loop    makespan_seconds = wall time of the whole run;
//                        metrics = deterministic answer checksum and query
//                        count (exact regression gate: the same stream must
//                        produce the same answers).
//   serve/latency-p50|p95|p99, serve/mean-latency
//                        makespan_seconds = that latency in seconds (the
//                        tolerant field, since latency is measured). QPS is
//                        printed and equals queries / wall seconds.
//
// Observability cross-checks (--trace=FILE, or the DWM_TRACE knob):
// request-scoped tracing is enabled for the whole run and the Chrome trace
// is written to FILE; with or without tracing, the in-engine
// dwm_serve_latency_us{type=all} percentiles are compared against the
// externally measured ones at histogram-bucket resolution, and the sampled
// point answers' max abs error is compared to the builder's bound
// (dwm_serve_achieved_error vs dwm_serve_error_bound).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/greedy_abs.h"
#include "data/generators.h"
#include "serve/engine.h"

namespace {

// Exact nearest-rank percentile over a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

// Index of the ServeLatencyBounds bucket holding `value_us` (the overflow
// bucket is bounds.size()). The in-engine percentile cross-check compares
// bucket indexes: the engine's histogram answers at bucket resolution, so
// "within one bucket" is the tightest meaningful agreement.
size_t LatencyBucket(double value_us) {
  const std::vector<double>& bounds = dwm::serve::ServeLatencyBounds();
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value_us) -
      bounds.begin());
}

}  // namespace

int main(int argc, char** argv) {
  dwm::bench::PrintHeader(
      "serve_bench",
      "closed-loop query load against the serving engine (skewed point "
      "stream + ranges, each answered from the synopsis rank index)",
      "deterministic answer checksum; latency percentiles feed the "
      "BENCH_serve regression gate");
  dwm::bench::BenchReporter reporter("serve");

  const int64_t n = std::max<int64_t>(1024, dwm::bench::ScaledN(18));
  const int64_t budget = std::max<int64_t>(n / 64, 8);
  const int64_t num_queries = std::max<int64_t>(n * 4, 4096);
  const int64_t batch_size = 64;

  // --trace=FILE (or --trace FILE), falling back to the DWM_TRACE knob.
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  if (trace_path.empty()) {
    if (const char* env = std::getenv("DWM_TRACE")) trace_path = env;
  }

  const std::vector<double> data = dwm::MakeZipf(n, 0.7, 1000, /*seed=*/7);
  dwm::GreedyAbsResult built = dwm::GreedyAbs(data, budget);
  const double error_bound = built.max_abs_error;
  dwm::Synopsis synopsis = std::move(built.synopsis);

  dwm::serve::QueryEngine engine;
  dwm::serve::ShardKey key{"zipf07", "greedy_abs", budget};
  engine.registry().Register(key, std::move(synopsis), error_bound);
  if (!trace_path.empty()) engine.tracer().Enable();

  // Deterministic skewed stream: 85% point queries concentrated on a hot
  // 1/16th of the domain (with a uniform 15%-of-points tail), 15% ranges.
  dwm::Rng rng(/*seed=*/1234);
  const int64_t hot_span = std::max<int64_t>(n / 16, 1);
  std::vector<dwm::serve::Query> stream;
  stream.reserve(static_cast<size_t>(num_queries));
  for (int64_t i = 0; i < num_queries; ++i) {
    dwm::serve::Query q;
    const double roll = rng.NextDouble();
    if (roll < 0.85) {
      q.type = dwm::serve::QueryType::kPoint;
      const bool hot = rng.NextDouble() < 0.85;
      const int64_t span = hot ? hot_span : n;
      q.lo = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(span)));
      q.hi = q.lo;
    } else {
      q.type = roll < 0.925 ? dwm::serve::QueryType::kRangeSum
                            : dwm::serve::QueryType::kRangeAvg;
      const int64_t a =
          static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n)));
      const int64_t b =
          static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n)));
      q.lo = std::min(a, b);
      q.hi = std::max(a, b);
    }
    stream.push_back(q);
  }

  // Closed loop: one batch in flight at a time; per-query latency is the
  // batch turnaround divided by its size.
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(num_queries));
  double checksum = 0.0;
  double max_point_error = 0.0;  // sampled achieved error vs the source data
  dwm::Stopwatch wall;
  std::vector<double> results;
  for (int64_t first = 0; first < num_queries; first += batch_size) {
    const int64_t count = std::min<int64_t>(batch_size, num_queries - first);
    const std::vector<dwm::serve::Query> batch(
        stream.begin() + first, stream.begin() + first + count);
    dwm::Stopwatch turn;
    const dwm::Status status = engine.AnswerBatch(key, batch, &results);
    const double seconds = turn.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "serve_bench: %s\n", status.ToString().c_str());
      return 1;
    }
    for (int64_t i = 0; i < count; ++i) {
      checksum += results[static_cast<size_t>(i)];
      const dwm::serve::Query& q = stream[static_cast<size_t>(first + i)];
      if (q.type == dwm::serve::QueryType::kPoint) {
        const double err = std::fabs(results[static_cast<size_t>(i)] -
                                     data[static_cast<size_t>(q.lo)]);
        if (err > max_point_error) max_point_error = err;
      }
    }
    const double per_query = seconds / static_cast<double>(count);
    for (int64_t i = 0; i < count; ++i) latencies.push_back(per_query);
  }
  const double wall_seconds = wall.ElapsedSeconds();
  engine.ObserveAchievedError(key, max_point_error);

  std::sort(latencies.begin(), latencies.end());
  const double p50 = Percentile(latencies, 0.50);
  const double p95 = Percentile(latencies, 0.95);
  const double p99 = Percentile(latencies, 0.99);
  const double mean = wall_seconds / static_cast<double>(num_queries);
  const double qps = static_cast<double>(num_queries) / wall_seconds;

  std::printf("queries    : %lld in %.3f s (%.0f qps, batch %lld)\n",
              static_cast<long long>(num_queries), wall_seconds, qps,
              static_cast<long long>(batch_size));
  std::printf("latency    : p50=%.3gus p95=%.3gus p99=%.3gus mean=%.3gus\n",
              p50 * 1e6, p95 * 1e6, p99 * 1e6, mean * 1e6);

  // In-engine histogram vs external measurement, at bucket resolution. The
  // engine observes batch turnaround / batch size — the same attribution as
  // `latencies` — so the percentiles must land in the same or an adjacent
  // ServeLatencyBounds bucket.
  dwm::metrics::Histogram* in_engine = dwm::metrics::Default().GetHistogram(
      "dwm_serve_latency_us",
      "Per-query serve latency in microseconds (batch turnaround / batch "
      "size)",
      dwm::serve::ServeLatencyBounds(), {{"type", "all"}},
      dwm::metrics::Stability::kMeasured);
  const struct {
    const char* name;
    double q;
    double external;
  } percentiles[] = {{"p50", 0.50, p50}, {"p95", 0.95, p95}, {"p99", 0.99, p99}};
  for (const auto& p : percentiles) {
    const size_t engine_bucket = LatencyBucket(in_engine->Percentile(p.q));
    const size_t external_bucket = LatencyBucket(p.external * 1e6);
    const size_t gap = engine_bucket > external_bucket
                           ? engine_bucket - external_bucket
                           : external_bucket - engine_bucket;
    std::printf("latency %s : engine bucket %zu, external bucket %zu\n",
                p.name, engine_bucket, external_bucket);
    dwm::bench::PrintShapeCheck(
        gap <= 1, std::string("in-engine ") + p.name +
                      " within one histogram bucket of external");
  }

  std::printf("error      : achieved=%.6g bound=%.6g (sampled %lld point "
              "answers)\n",
              max_point_error, error_bound,
              static_cast<long long>(engine.QueryCounts().points));
  dwm::bench::PrintShapeCheck(
      max_point_error <= error_bound * (1.0 + 1e-9) + 1e-9,
      "achieved point error stays inside the builder's bound");

  if (!trace_path.empty()) {
    const dwm::Status written = engine.tracer().WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "serve_bench: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace      : %s (%zu requests)\n", trace_path.c_str(),
                engine.tracer().size());
  }

  const auto report = [&](const char* label, double seconds,
                          std::vector<std::pair<std::string, double>> metrics) {
    dwm::bench::BenchRun run;
    run.label = std::string("serve/") + label;
    run.dataset = "zipf07";
    run.n = n;
    run.budget = static_cast<double>(budget);
    run.makespan_seconds = seconds;
    run.metrics = std::move(metrics);
    reporter.Report(run);
  };
  report("closed-loop", wall_seconds,
         {{"checksum", checksum},
          {"queries", static_cast<double>(num_queries)}});
  report("latency-p50", p50, {});
  report("latency-p95", p95, {});
  report("latency-p99", p99, {});
  report("mean-latency", mean, {});
  return 0;
}
