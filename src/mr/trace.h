// Structured tracing & metrics for the MR runtime.
//
// A Trace is a deterministic flattening of a SimReport onto the modeled
// cluster timeline: one span per job, per phase (overhead, map, shuffle,
// reduce), per task attempt (placed on its slot by the attempt-aware
// scheduler) and per named driver phase (SimReport::driver_spans). Spans
// are derived on demand from the stats the engine already records
// lock-free per task slot and merges in task order, so tracing adds zero
// overhead to job execution, and the span *structure* — names, order,
// tasks, attempts, bytes, records, fault dispositions — is byte-identical
// at any ClusterConfig::worker_threads.
//
// Span *times* are modeled cluster seconds derived from measured
// per-thread CPU clocks (ThreadCpuStopwatch) and therefore vary run to
// run; slot assignment depends on those times too. The span *set* does
// not: every attempt gets exactly one span, so it is a pure function of
// the recorded attempt histories. ChromeTraceOptions::stable zeroes every
// measured-derived field (ts, dur, slot/tid, cpu) so two traces of the
// same logical run compare byte-for-byte, under any recoverable FaultPlan
// — the determinism the CI trace check and mr_trace_test pin.
//
// Exporters:
//   ChromeTraceJson  Chrome trace_event JSON ("X" complete events);
//                    loads in chrome://tracing and Perfetto. Lanes: pid 0
//                    = pipeline (job/phase/driver spans), pid 1 = map
//                    slots, pid 2 = reduce slots, tid = slot id.
//   PhaseTableText   plain-text per-job phase table for terminals.
//
// Metrics:
//   TaskDurationStats    task-duration percentiles (p50/p90/p99), fed by
//                        CommittedTaskSeconds for one phase of a job.
//   ReducerSkew          shuffle-bytes-per-reducer skew (max / mean).
#ifndef DWMAXERR_MR_TRACE_H_
#define DWMAXERR_MR_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mr/cluster.h"
#include "mr/faults.h"

namespace dwm::mr {

enum class SpanKind {
  kJob = 0,      // one whole job (overhead + map + shuffle + reduce)
  kPhase = 1,    // overhead, map, shuffle or reduce slab of one job
  kAttempt = 2,  // one task attempt on its slot
  kDriver = 3,   // named driver-side work between jobs
  kServe = 4,    // live serve-path request span (serve/trace.h)
};

struct TraceSpan {
  SpanKind kind = SpanKind::kJob;
  std::string name;  // display label, e.g. "dgreedyabs_transform/map"
  std::string cat;   // "job", "overhead", "map", "shuffle", "reduce", "driver"
  int64_t job = -1;  // index into SimReport::jobs; -1 for driver spans
  int64_t task = -1;
  int attempt = 0;  // 1-based, matching the engine; 0 for non-attempt spans
  int slot = -1;    // modeled slot lane; measured-derived (see header note)
  double start_seconds = 0.0;  // modeled cluster timeline, absolute
  double end_seconds = 0.0;
  double cpu_seconds = 0.0;  // measured thread-CPU time (attempts/jobs)
  double bytes_in = 0.0;     // split bytes scanned / shuffle bytes consumed
  int64_t bytes_out = 0;     // shuffle bytes produced
  int64_t records_in = 0;
  int64_t records_out = 0;
  double slowdown = 1.0;  // > 1: this attempt straggled
  bool failed = false;
  bool node_lost = false;
  // Extra pre-serialized JSON fields appended verbatim into the span's
  // "args" object (no leading comma). Producers must only put stable
  // (non-measured) values here — the stable export keeps args intact.
  std::string args_json;
};

struct Trace {
  // Timeline order: driver spans and jobs interleaved as they ran; within
  // a job: job span, overhead, map phase, map attempts (task order,
  // attempts ascending), shuffle, reduce phase, reduce attempts.
  std::vector<TraceSpan> spans;
  double total_seconds = 0.0;  // modeled end of the last span
  std::string fault_summary;   // FaultPlan::Summary of the effective plan
};

// Flattens `report` onto the modeled timeline. `config` must be the
// cluster the report was produced under: attempt placements re-derive
// through ScheduleMakespanAttempts with its slot counts (bit-identical to
// the original schedule, since the same code computed the recorded
// makespans).
Trace BuildTrace(const SimReport& report, const ClusterConfig& config);

struct ChromeTraceOptions {
  // Zero every measured-derived field (ts, dur, tid/slot, cpu seconds,
  // total time) so traces of the same logical run are byte-identical
  // across runs and worker_threads settings.
  bool stable = false;
};

// Chrome trace_event JSON (the {"traceEvents": [...]} object form).
std::string ChromeTraceJson(const Trace& trace,
                            const ChromeTraceOptions& options = {});

// Plain-text per-job phase table: one row per job (maps, reduces, phase
// seconds, shuffle MB, attempt counts), then driver spans and the total.
std::string PhaseTableText(const SimReport& report);

// Nearest-rank percentiles over a set of task durations.
struct DurationStats {
  int64_t count = 0;
  double p50_seconds = 0.0;
  double p90_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
  double total_seconds = 0.0;
};
DurationStats TaskDurationStats(const std::vector<double>& task_seconds);
// One phase's committed per-task times in task order: each task's last
// attempt, skipping a task whose last attempt failed (retries exhausted).
std::vector<double> CommittedTaskSeconds(const JobStats& job, TaskPhase phase);

// Shuffle skew across a job's reducers: a ratio near 1 means balanced
// partitions; the paper's hash partitioning keeps this small, and the
// bench harnesses record it to catch pathological key distributions.
struct ReducerSkewStats {
  int64_t reducers = 0;
  int64_t max_bytes = 0;
  double mean_bytes = 0.0;
  double ratio = 1.0;  // max / mean; 1 when there is no shuffle at all
};
ReducerSkewStats ReducerSkew(const JobStats& job);

}  // namespace dwm::mr

#endif  // DWMAXERR_MR_TRACE_H_
