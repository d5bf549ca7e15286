// The engine is header-only (templates); this TU carries the non-template
// pieces: the per-job metrics publication RunJobOr ends with.
#include "mr/job.h"

#include "common/bytes.h"
#include "common/metrics.h"
#include "mr/counters.h"
#include "mr/thread_pool.h"
#include "mr/trace.h"

namespace dwm::mr::job_internal {

void PublishJobMetrics(const JobStats& stats, bool faults_active) {
  metrics::Registry& registry = metrics::Default();
  const metrics::Labels job_labels = {{"job", stats.name}};

  // Cost-model accounting: byte-identical at any worker_threads and under
  // the same fault plan (kStable, the registry's default for counters).
  registry
      .GetCounter("dwm_mr_jobs_total", "MapReduce jobs completed",
                  job_labels)
      ->Increment();
  registry
      .GetCounter("dwm_mr_map_tasks_total", "Map tasks run", job_labels)
      ->Increment(stats.map_tasks);
  registry
      .GetCounter("dwm_mr_reduce_tasks_total", "Reduce tasks run",
                  job_labels)
      ->Increment(stats.reduce_tasks);
  registry
      .GetCounter("dwm_mr_input_bytes_total", "Split bytes scanned by maps",
                  job_labels)
      ->Increment(stats.input_bytes);
  registry
      .GetCounter("dwm_mr_shuffle_bytes_total",
                  "Serialized shuffle bytes moved map->reduce", job_labels)
      ->Increment(stats.shuffle_bytes);
  registry
      .GetCounter("dwm_mr_shuffle_records_total",
                  "Shuffle records moved map->reduce", job_labels)
      ->Increment(stats.shuffle_records);
  registry
      .GetCounter("dwm_mr_output_records_total", "Reducer output records",
                  job_labels)
      ->Increment(stats.output_records);
  // Reducer-input skew (max/mean partition bytes): derived from the
  // byte-accurate shuffle accounting only, so it is stable too.
  registry
      .GetGauge("dwm_mr_reducer_skew_ratio",
                "Max/mean reducer shuffle-input bytes of the last run",
                job_labels)
      ->Set(ReducerSkew(stats).ratio);

  // Phase timings and per-task durations derive from measured CPU time:
  // exported for scraping, excluded from the stable JSON document.
  struct PhaseSeconds {
    const char* phase;
    double seconds;
  };
  const PhaseSeconds phases[] = {
      {"map", stats.map_makespan_seconds},
      {"shuffle", stats.shuffle_seconds},
      {"reduce", stats.reduce_makespan_seconds},
      {"overhead", stats.job_overhead_seconds},
  };
  for (const PhaseSeconds& p : phases) {
    metrics::Labels labels = job_labels;
    labels.push_back({"phase", p.phase});
    registry
        .GetGauge("dwm_mr_phase_seconds_total",
                  "Accumulated modeled phase time (derived from measured "
                  "task CPU)",
                  labels, metrics::Stability::kMeasured)
        ->Add(p.seconds);
  }
  // 1 ms .. ~17 min in doubling buckets covers everything from micro test
  // tasks to the paper-scale harness tasks.
  const std::vector<double> bounds =
      metrics::HistogramBuckets::Exponential(0.001, 2.0, 20);
  for (int phase = 0; phase < 2; ++phase) {
    const bool map = phase == 0;
    metrics::Histogram* histogram = registry.GetHistogram(
        "dwm_mr_task_seconds",
        "Committed-attempt task durations (startup + scaled compute + IO)",
        bounds, {{"phase", map ? "map" : "reduce"}},
        metrics::Stability::kMeasured);
    for (const double seconds :
         map ? stats.map_task_seconds : stats.reduce_task_seconds) {
      histogram->Observe(seconds);
    }
  }

  if (faults_active) PublishFaultTallies(stats, &registry);

  // Quarantine tally: registered only when records were actually skipped,
  // mirroring the counter-equality invariant (a clean run exports the same
  // families whether the quarantine knob is on or off).
  if (stats.skipped_bad_records > 0) {
    registry
        .GetCounter("dwm_mr_skipped_bad_records_total",
                    "Corrupt shuffle records skipped under the bad-record "
                    "quarantine (ClusterConfig::max_skipped_bad_records)",
                    job_labels)
        ->Increment(stats.skipped_bad_records);
  }
}

}  // namespace dwm::mr::job_internal
