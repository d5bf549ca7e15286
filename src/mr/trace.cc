#include "mr/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/log.h"

namespace dwm::mr {
namespace {

void AppendAttemptSpans(Trace& trace, const JobStats& job, int64_t job_index,
                        TaskPhase phase,
                        const std::vector<TaskExecution>& execs, int slots,
                        double slowness_threshold, double phase_start) {
  const RecoverySchedule sched = ScheduleMakespanAttempts(
      execs, slots, slowness_threshold, /*record_placements=*/true);
  for (const AttemptPlacement& p : sched.placements) {
    TraceSpan s;
    s.kind = SpanKind::kAttempt;
    s.cat = TaskPhaseName(phase);
    s.job = job_index;
    s.task = p.task;
    s.attempt = p.attempt;
    s.slot = p.slot;
    s.start_seconds = phase_start + p.start_seconds;
    s.end_seconds = phase_start + p.end_seconds;
    s.failed = p.failed;
    s.speculative = p.speculative;
    const TaskAttempt& a = execs[static_cast<size_t>(p.task)]
                               .attempts[static_cast<size_t>(p.attempt - 1)];
    s.cpu_seconds = a.cpu_seconds;
    s.slowdown = a.slowdown;
    s.node_lost = a.node_lost;
    const size_t t = static_cast<size_t>(p.task);
    if (phase == TaskPhase::kMap) {
      if (t < job.map_task_in_bytes.size()) {
        s.bytes_in = job.map_task_in_bytes[t];
      }
      if (t < job.map_task_out_bytes.size()) {
        s.bytes_out = job.map_task_out_bytes[t];
      }
      if (t < job.map_task_records.size()) {
        s.records_out = job.map_task_records[t];
      }
    } else {
      if (t < job.reduce_task_in_bytes.size()) {
        s.bytes_in = static_cast<double>(job.reduce_task_in_bytes[t]);
      }
      if (t < job.reduce_task_records.size()) {
        s.records_in = job.reduce_task_records[t];
      }
      if (t < job.reduce_task_out_records.size()) {
        s.records_out = job.reduce_task_out_records[t];
      }
    }
    char label[64];
    std::snprintf(label, sizeof(label), "%s t%lld.a%d%s", s.cat.c_str(),
                  static_cast<long long>(p.task), p.attempt,
                  p.speculative ? " backup" : "");
    s.name = label;
    trace.spans.push_back(std::move(s));
  }
}

// Fixed three-decimal formatting: deterministic for a given double, and
// plain enough for every JSON parser (no exponents, no locale).
void AppendFixed(std::string& out, double v) {
  char buf[352];  // worst-case %f of a double plus slack
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

Trace BuildTrace(const SimReport& report, const ClusterConfig& config) {
  Trace trace;
  trace.fault_summary = EffectiveFaultPlan(config.faults).Summary();
  double t = 0.0;
  double attributed_driver = 0.0;
  size_t next_driver = 0;
  auto emit_driver_through = [&](int64_t job_index) {
    while (next_driver < report.driver_spans.size() &&
           report.driver_spans[next_driver].after_job <= job_index) {
      const DriverSpan& d = report.driver_spans[next_driver++];
      const double seconds = std::max(d.seconds, 0.0);
      TraceSpan s;
      s.kind = SpanKind::kDriver;
      s.cat = "driver";
      s.name = "driver:" + d.name;
      s.start_seconds = t;
      s.end_seconds = t + seconds;
      t = s.end_seconds;
      attributed_driver += seconds;
      trace.spans.push_back(std::move(s));
    }
  };

  for (size_t j = 0; j < report.jobs.size(); ++j) {
    emit_driver_through(static_cast<int64_t>(j));
    const JobStats& job = report.jobs[j];
    const double job_start = t;

    TraceSpan jspan;
    jspan.kind = SpanKind::kJob;
    jspan.cat = "job";
    jspan.name = job.name;
    jspan.job = static_cast<int64_t>(j);
    jspan.start_seconds = job_start;
    jspan.end_seconds = job_start + job.sim_seconds();
    jspan.bytes_in = static_cast<double>(job.input_bytes);
    jspan.bytes_out = job.shuffle_bytes;
    jspan.records_out = job.output_records;
    double cpu = 0.0;
    for (const TaskExecution& e : job.map_attempts) {
      for (const TaskAttempt& a : e.attempts) cpu += a.cpu_seconds;
    }
    for (const TaskExecution& e : job.reduce_attempts) {
      for (const TaskAttempt& a : e.attempts) cpu += a.cpu_seconds;
    }
    jspan.cpu_seconds = cpu;
    trace.spans.push_back(std::move(jspan));

    double cursor = job_start;
    auto add_phase = [&](const char* cat, double seconds) {
      TraceSpan s;
      s.kind = SpanKind::kPhase;
      s.cat = cat;
      s.name = job.name + "/" + cat;
      s.job = static_cast<int64_t>(j);
      s.start_seconds = cursor;
      s.end_seconds = cursor + std::max(seconds, 0.0);
      const double start = cursor;
      cursor = s.end_seconds;
      trace.spans.push_back(std::move(s));
      return start;
    };

    add_phase("overhead", job.job_overhead_seconds);

    const double map_start = add_phase("map", job.map_makespan_seconds);
    {
      TraceSpan& s = trace.spans.back();
      s.bytes_in = static_cast<double>(job.input_bytes);
      s.bytes_out = job.shuffle_bytes;
      s.records_out = job.shuffle_records;
    }
    AppendAttemptSpans(trace, job, static_cast<int64_t>(j), TaskPhase::kMap,
                       job.map_attempts, config.map_slots,
                       config.speculative_slowness_threshold, map_start);

    add_phase("shuffle", job.shuffle_seconds);
    {
      TraceSpan& s = trace.spans.back();
      s.bytes_in = static_cast<double>(job.shuffle_bytes);
      s.records_in = job.shuffle_records;
    }

    const double reduce_start =
        add_phase("reduce", job.reduce_makespan_seconds);
    {
      TraceSpan& s = trace.spans.back();
      s.bytes_in = static_cast<double>(job.shuffle_bytes);
      s.records_in = job.shuffle_records;
      s.records_out = job.output_records;
    }
    AppendAttemptSpans(trace, job, static_cast<int64_t>(j), TaskPhase::kReduce,
                       job.reduce_attempts, config.reduce_slots,
                       config.speculative_slowness_threshold, reduce_start);

    t = cursor;
  }

  emit_driver_through(std::numeric_limits<int64_t>::max());
  // Driver work the run did not attribute to a named span renders as one
  // anonymous slab so the timeline still sums to total_sim_seconds.
  const double rest = report.driver_seconds - attributed_driver;
  if (rest > 1e-12) {
    TraceSpan s;
    s.kind = SpanKind::kDriver;
    s.cat = "driver";
    s.name = "driver:unattributed";
    s.start_seconds = t;
    s.end_seconds = t + rest;
    t = s.end_seconds;
    trace.spans.push_back(std::move(s));
  }
  trace.total_seconds = t;
  return trace;
}

std::string ChromeTraceJson(const Trace& trace,
                            const ChromeTraceOptions& options) {
  const bool stable = options.stable;
  std::string out;
  out.reserve(512 + trace.spans.size() * 256);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  struct Lane {
    int pid;
    const char* name;
  };
  static constexpr Lane kLanes[] = {
      {0, "pipeline"}, {1, "map slots"}, {2, "reduce slots"}, {3, "serve"}};
  for (const Lane& lane : kLanes) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(lane.pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"";
    out += lane.name;
    out += "\"}}";
  }
  for (const TraceSpan& s : trace.spans) {
    int pid = 0;
    int tid = 0;
    if (s.kind == SpanKind::kAttempt) {
      pid = s.cat == "map" ? 1 : 2;
      tid = stable ? 0 : std::max(s.slot, 0);
    } else if (s.kind == SpanKind::kPhase) {
      tid = 1;
    } else if (s.kind == SpanKind::kServe) {
      pid = 3;
    }
    sep();
    out += "{\"name\":\"";
    log::AppendJsonEscaped(&out, s.name);
    out += "\",\"cat\":\"";
    log::AppendJsonEscaped(&out, s.cat);
    out += "\",\"ph\":\"X\",\"ts\":";
    AppendFixed(out, stable ? 0.0 : s.start_seconds * 1e6);
    out += ",\"dur\":";
    AppendFixed(out, stable ? 0.0 : (s.end_seconds - s.start_seconds) * 1e6);
    out += ",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"args\":{\"job\":" + std::to_string(s.job);
    out += ",\"task\":" + std::to_string(s.task);
    out += ",\"attempt\":" + std::to_string(s.attempt);
    out += ",\"slot\":" + std::to_string(stable ? -1 : s.slot);
    out += ",\"cpu_ms\":";
    AppendFixed(out, stable ? 0.0 : s.cpu_seconds * 1e3);
    out += ",\"bytes_in\":";
    AppendFixed(out, s.bytes_in);
    out += ",\"bytes_out\":" + std::to_string(s.bytes_out);
    out += ",\"records_in\":" + std::to_string(s.records_in);
    out += ",\"records_out\":" + std::to_string(s.records_out);
    out += ",\"slowdown\":";
    AppendFixed(out, s.slowdown);
    out += ",\"failed\":";
    out += s.failed ? "true" : "false";
    out += ",\"node_lost\":";
    out += s.node_lost ? "true" : "false";
    out += ",\"speculative\":";
    out += s.speculative ? "true" : "false";
    if (!s.args_json.empty()) {
      out += ',';
      out += s.args_json;
    }
    out += "}}";
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"faults\":\"";
  log::AppendJsonEscaped(&out, trace.fault_summary);
  out += "\",\"total_sim_seconds\":";
  AppendFixed(out, stable ? 0.0 : trace.total_seconds);
  out += "}}\n";
  return out;
}

std::string PhaseTableText(const SimReport& report) {
  std::string out;
  char line[4096];
  std::snprintf(line, sizeof(line),
                "%-28s %6s %6s %9s %9s %9s %9s %10s %9s %8s %7s\n", "job",
                "maps", "reds", "map_s", "shuf_s", "red_s", "ovh_s", "total_s",
                "shuf_MB", "attempts", "failed");
  out += line;
  for (const JobStats& job : report.jobs) {
    std::snprintf(
        line, sizeof(line),
        "%-28.28s %6lld %6lld %9.3f %9.3f %9.3f %9.3f %10.3f %9.2f %8lld "
        "%7lld\n",
        job.name.c_str(), static_cast<long long>(job.map_tasks),
        static_cast<long long>(job.reduce_tasks), job.map_makespan_seconds,
        job.shuffle_seconds, job.reduce_makespan_seconds,
        job.job_overhead_seconds, job.sim_seconds(),
        static_cast<double>(job.shuffle_bytes) / 1e6,
        static_cast<long long>(job.task_attempts),
        static_cast<long long>(job.failed_attempts));
    out += line;
  }
  for (const DriverSpan& d : report.driver_spans) {
    const std::string name = "driver:" + d.name;
    std::snprintf(line, sizeof(line), "%-28.28s %6s %6s %9s %9s %9s %9s %10.3f\n",
                  name.c_str(), "", "", "", "", "", "", d.seconds);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-28s %6s %6s %9s %9s %9s %9s %10.3f\n",
                "total", "", "", "", "", "", "", report.total_sim_seconds());
  out += line;
  return out;
}

DurationStats TaskDurationStats(const std::vector<double>& task_seconds) {
  DurationStats out;
  out.count = static_cast<int64_t>(task_seconds.size());
  if (task_seconds.empty()) return out;
  std::vector<double> sorted = task_seconds;
  std::sort(sorted.begin(), sorted.end());
  for (double s : sorted) out.total_seconds += s;
  const size_t n = sorted.size();
  auto rank = [&](double q) {
    // Nearest-rank percentile: smallest value covering q of the mass.
    size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    if (k < 1) k = 1;
    if (k > n) k = n;
    return sorted[k - 1];
  };
  out.p50_seconds = rank(0.50);
  out.p90_seconds = rank(0.90);
  out.p99_seconds = rank(0.99);
  out.max_seconds = sorted.back();
  return out;
}

std::vector<double> CommittedTaskSeconds(const JobStats& job,
                                         TaskPhase phase) {
  const std::vector<TaskExecution>& tasks =
      phase == TaskPhase::kMap ? job.map_attempts : job.reduce_attempts;
  std::vector<double> out;
  out.reserve(tasks.size());
  for (const TaskExecution& task : tasks) {
    if (!task.attempts.empty() && !task.attempts.back().failed) {
      out.push_back(task.attempts.back().seconds);
    }
  }
  return out;
}

DurationStats PhaseDurationStats(const JobStats& job, TaskPhase phase) {
  return TaskDurationStats(CommittedTaskSeconds(job, phase));
}

ReducerSkewStats ReducerSkew(const JobStats& job) {
  ReducerSkewStats out;
  out.reducers = job.reduce_tasks;
  const std::vector<int64_t>& in = job.reduce_task_in_bytes;
  // A job that exhausted its map retries never recorded per-reducer bytes.
  if (in.empty()) return out;
  int64_t total = 0;
  for (int64_t b : in) {
    total += b;
    out.max_bytes = std::max(out.max_bytes, b);
  }
  out.mean_bytes = static_cast<double>(total) / static_cast<double>(in.size());
  if (out.mean_bytes > 0.0) {
    out.ratio = static_cast<double>(out.max_bytes) / out.mean_bytes;
  }
  return out;
}

}  // namespace dwm::mr
