// Shared helpers for the experiment-reproduction harnesses (one binary per
// paper table/figure; see DESIGN.md section 4 for the index).
//
// Environment knobs:
//   DWM_SCALE    integer added to every log2 dataset size (default 0). The
//                paper runs up to 537M points; the defaults here are sized
//                for a single-core sandbox, and the *shapes* are
//                size-invariant.
//   DWM_THREADS  engine worker threads executing map/reduce tasks (default:
//                hardware concurrency). Any value produces byte-identical
//                synopses and shuffle accounting — only wall-clock changes.
//   DWM_FAULTS   seed[:k=v,...] deterministic fault injection for every MR
//                job (see src/mr/faults.h for the spec grammar). Results
//                stay byte-identical as long as no task exhausts its
//                retries; only the modeled makespans move.
//   DWM_TRACE    path prefix for Chrome trace_event JSON exports: every
//                MaybeWriteTrace(label, ...) call writes
//                <prefix>.<label>.json (loads in chrome://tracing). Unset =
//                no traces, zero overhead.
//   DWM_METRICS  path prefix for Prometheus text expositions: every
//                MaybeWriteMetrics(label) call writes <prefix>.<label>.prom
//                with the full process metrics registry. Unset = no files.
//   DWM_BENCH    output directory for machine-readable bench results: each
//                BenchReporter appends one JSON object per labeled run to
//                <dir>/BENCH_<suite>.json (diff two such files with
//                tools/bench_compare.py). Unset = reporter disabled.
//   DWM_BENCH_SUITE  overrides the suite name every BenchReporter in the
//                process writes under (the CI micro gate groups fig5c+fig5d
//                into one BENCH_micro.json this way).
#ifndef DWMAXERR_BENCH_BENCH_UTIL_H_
#define DWMAXERR_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "mr/trace.h"

namespace dwm::bench {

// DWM_SCALE under the strict knob contract (common/env.h). The range keeps
// every harness's `1 << (log2_default + shift)` defined: the smallest
// default is 2^12, the largest 2^24.
inline int ScaleShift() {
  return static_cast<int>(EnvInt("DWM_SCALE", -12, 12,
                                 "an integer in [-12, 12]", "using 0")
                              .value_or(0));
}

inline int64_t ScaledN(int log2_default) {
  return int64_t{1} << (log2_default + ScaleShift());
}

// Engine worker threads for the harness cluster configs: the DWM_THREADS
// env knob when set, otherwise hardware concurrency (mr::ResolveWorkerThreads
// handles both through the 0 = auto convention).
inline int WorkerThreads() {
  return mr::ResolveWorkerThreads(/*worker_threads=*/0);
}

// Fault plan for the harness cluster configs: DWM_FAULTS when set (and
// well-formed — a malformed value warns and runs fault-free), otherwise
// inert. Plumbed explicitly so harness output can report the active seed.
inline mr::FaultPlan HarnessFaultPlan() {
  return mr::EffectiveFaultPlan(mr::FaultPlan());
}

// The paper's platform: 9 machines, 8 slaves x 5 map slots / x 2 reduce
// slots, 2 GHz Xeons.
inline mr::ClusterConfig PaperCluster(int map_slots = 40,
                                      int reduce_slots = 16) {
  mr::ClusterConfig config;
  config.map_slots = map_slots;
  config.reduce_slots = reduce_slots;
  config.task_startup_seconds = 1.0;
  config.job_overhead_seconds = 6.0;
  config.network_bytes_per_second = 100.0e6;
  config.storage_bytes_per_second = 400.0e6;
  // The paper's 2 GHz Xeon + JVM is slower than this native build.
  config.compute_scale = 2.0;
  // Real engine concurrency (simulated slots above model the cluster;
  // worker threads shrink this process's wall clock): DWM_THREADS or auto.
  config.worker_threads = WorkerThreads();
  // Deterministic fault injection: DWM_FAULTS or fault-free.
  config.faults = HarnessFaultPlan();
  return config;
}

inline void PrintHeader(const char* binary, const char* reproduces,
                        const char* expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", binary);
  std::printf("reproduces : %s\n", reproduces);
  std::printf("expect     : %s\n", expectation);
  if (ScaleShift() != 0) {
    std::printf("scale      : DWM_SCALE=%d (sizes shifted by 2^%d)\n",
                ScaleShift(), ScaleShift());
  }
  if (const mr::FaultPlan plan = HarnessFaultPlan(); plan.active()) {
    std::printf("faults     : DWM_FAULTS seed %llu "
                "(map_fail=%.3g reduce_fail=%.3g straggle=%.3g x%.3g "
                "node_loss=%.3g over %d nodes)\n",
                static_cast<unsigned long long>(plan.seed()),
                plan.spec().map_failure_rate, plan.spec().reduce_failure_rate,
                plan.spec().straggler_rate, plan.spec().straggler_slowdown,
                plan.spec().node_loss_rate, plan.spec().num_nodes);
  }
  std::printf("==============================================================\n");
}

inline void PrintShapeCheck(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-??", what.c_str());
}

template <typename Fn>
double WallSeconds(Fn&& fn) {
  Stopwatch clock;
  fn();
  return clock.ElapsedSeconds();
}

// Writes <DWM_TRACE>.<label>.json (Chrome trace_event) for `report` when
// the DWM_TRACE knob is set; no-op (and no trace is even built) otherwise.
// Returns true if a trace was written.
inline bool MaybeWriteTrace(const std::string& label,
                            const mr::SimReport& report,
                            const mr::ClusterConfig& config) {
  const char* prefix = std::getenv("DWM_TRACE");
  if (prefix == nullptr || prefix[0] == '\0') return false;
  const std::string path = std::string(prefix) + "." + label + ".json";
  const std::string json = mr::ChromeTraceJson(mr::BuildTrace(report, config));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: DWM_TRACE: cannot open %s\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    std::fprintf(stderr, "warning: DWM_TRACE: short write to %s\n",
                 path.c_str());
    return false;
  }
  std::printf("trace      : wrote %s\n", path.c_str());
  return true;
}

// One-line per-run metrics from the trace layer: task-duration percentiles
// of the dominant (map) phase and the worst reducer-input skew across the
// run's jobs — the histogram-style numbers the scaling harnesses record
// next to the simulated job times.
inline void PrintRunMetrics(const std::string& label,
                            const mr::SimReport& report) {
  mr::DurationStats map_stats;
  double worst_skew = 1.0;
  int64_t worst_skew_job = -1;
  std::vector<double> all_map_seconds;
  for (size_t j = 0; j < report.jobs.size(); ++j) {
    const mr::JobStats& job = report.jobs[j];
    const std::vector<double> map_seconds =
        mr::CommittedTaskSeconds(job, mr::TaskPhase::kMap);
    all_map_seconds.insert(all_map_seconds.end(), map_seconds.begin(),
                           map_seconds.end());
    const mr::ReducerSkewStats skew = mr::ReducerSkew(job);
    if (skew.ratio > worst_skew) {
      worst_skew = skew.ratio;
      worst_skew_job = static_cast<int64_t>(j);
    }
  }
  map_stats = mr::TaskDurationStats(all_map_seconds);
  std::printf(
      "metrics    : %s map tasks=%lld p50=%.3fs p90=%.3fs p99=%.3fs "
      "max=%.3fs reducer_skew=%.2f%s%s\n",
      label.c_str(), static_cast<long long>(map_stats.count),
      map_stats.p50_seconds, map_stats.p90_seconds, map_stats.p99_seconds,
      map_stats.max_seconds, worst_skew,
      worst_skew_job >= 0 ? " in " : "",
      worst_skew_job >= 0 ? report.jobs[static_cast<size_t>(worst_skew_job)]
                                .name.c_str()
                          : "");
}

// Writes <DWM_METRICS>.<label>.prom (Prometheus text exposition of the
// whole process registry) when the DWM_METRICS knob is set; no-op
// otherwise. Returns true if a file was written.
inline bool MaybeWriteMetrics(const std::string& label) {
  const char* prefix = std::getenv("DWM_METRICS");
  if (prefix == nullptr || prefix[0] == '\0') return false;
  const std::string path = std::string(prefix) + "." + label + ".prom";
  const std::string text = metrics::Default().PrometheusText();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: DWM_METRICS: cannot open %s\n",
                 path.c_str());
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    std::fprintf(stderr, "warning: DWM_METRICS: short write to %s\n",
                 path.c_str());
    return false;
  }
  std::printf("metrics    : wrote %s\n", path.c_str());
  return true;
}

// One labeled harness run, as recorded into BENCH_<suite>.json. The
// `metrics` snapshot should hold only deterministic (cost-model / input
// derived) values: tools/bench_compare.py compares them exactly, while
// makespan_seconds gets a ratio tolerance (it derives from measured CPU).
struct BenchRun {
  std::string label;    // stable id, e.g. "fig5c/dgreedyabs/s2"
  std::string dataset;  // generator name ("uniform", "zipf07", "nyct", ...)
  int64_t n = 0;
  double budget = 0.0;  // coefficient budget B; 0 for eps-driven algorithms
  double eps = 0.0;     // error bound; 0 for budget-driven algorithms
  double makespan_seconds = 0.0;  // simulated cluster time of the run
  int64_t shuffle_bytes = 0;
  int64_t jobs = 0;
  std::vector<std::pair<std::string, double>> metrics;
};

namespace bench_internal {

// Deterministic number formatting (integers exact, %.9g otherwise), as
// the metrics registry formats its finite values; JSON has no non-finite
// numbers, so those clamp to 0.
inline void AppendJsonNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

}  // namespace bench_internal

// Appends one JSON object per labeled run to <DWM_BENCH>/BENCH_<suite>.json
// (JSON Lines: one object per line, so runs append cheaply and
// tools/bench_compare.py streams them). Disabled (zero overhead, no files)
// unless the DWM_BENCH knob names an output directory; DWM_BENCH_SUITE
// overrides `suite`. The git SHA is taken from DWM_GIT_SHA or GITHUB_SHA
// ("unknown" otherwise) so a baseline records what produced it.
class BenchReporter {
 public:
  explicit BenchReporter(const std::string& suite) {
    const char* dir = std::getenv("DWM_BENCH");
    if (dir == nullptr || dir[0] == '\0') return;
    const char* suite_env = std::getenv("DWM_BENCH_SUITE");
    const std::string name =
        (suite_env != nullptr && suite_env[0] != '\0') ? suite_env : suite;
    path_ = std::string(dir) + "/BENCH_" + name + ".json";
  }

  bool enabled() const { return !path_.empty(); }

  void Report(const BenchRun& run) {
    if (!enabled()) return;
    std::string line = "{\"label\":\"";
    log::AppendJsonEscaped(&line, run.label);
    line += "\",\"dataset\":\"";
    log::AppendJsonEscaped(&line, run.dataset);
    line += "\",\"n\":";
    bench_internal::AppendJsonNumber(line, static_cast<double>(run.n));
    line += ",\"budget\":";
    bench_internal::AppendJsonNumber(line, run.budget);
    line += ",\"eps\":";
    bench_internal::AppendJsonNumber(line, run.eps);
    line += ",\"makespan_seconds\":";
    bench_internal::AppendJsonNumber(line, run.makespan_seconds);
    line += ",\"shuffle_bytes\":";
    bench_internal::AppendJsonNumber(line,
                                     static_cast<double>(run.shuffle_bytes));
    line += ",\"jobs\":";
    bench_internal::AppendJsonNumber(line, static_cast<double>(run.jobs));
    line += ",\"git_sha\":\"";
    log::AppendJsonEscaped(&line, GitSha());
    line += "\",\"metrics\":{";
    bool first = true;
    for (const auto& [key, value] : run.metrics) {
      if (!first) line += ',';
      first = false;
      line += '"';
      log::AppendJsonEscaped(&line, key);
      line += "\":";
      bench_internal::AppendJsonNumber(line, value);
    }
    line += "}}\n";
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: DWM_BENCH: cannot open %s\n",
                   path_.c_str());
      return;
    }
    const size_t written = std::fwrite(line.data(), 1, line.size(), f);
    if (written != line.size() || std::fclose(f) != 0) {
      std::fprintf(stderr, "warning: DWM_BENCH: short write to %s\n",
                   path_.c_str());
    }
  }

 private:
  static std::string GitSha() {
    for (const char* knob : {"DWM_GIT_SHA", "GITHUB_SHA"}) {
      if (const char* sha = std::getenv(knob); sha != nullptr && sha[0]) {
        return sha;
      }
    }
    return "unknown";
  }

  std::string path_;
};

// The per-algo quality gauges PublishSynopsisQuality just set for `algo`,
// as BenchRun::metrics entries — the deterministic snapshot the regression
// gate compares exactly.
inline std::vector<std::pair<std::string, double>> QualitySnapshot(
    const std::string& algo) {
  metrics::Registry& registry = metrics::Default();
  const metrics::Labels labels = {{"algo", algo}};
  return {
      {"retained_coefficients",
       registry
           .GetGauge("dwm_synopsis_retained_coefficients",
                     "Coefficients retained by the last run", labels)
           ->value()},
      {"achieved_error",
       registry
           .GetGauge("dwm_synopsis_achieved_error",
                     "Reconstruction error of the last run, in the "
                     "algorithm's own metric",
                     labels)
           ->value()},
  };
}

}  // namespace dwm::bench

#endif  // DWMAXERR_BENCH_BENCH_UTIL_H_
