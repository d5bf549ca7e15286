#include "mr/cluster.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <queue>
#include <thread>

#include "common/check.h"
#include "common/env.h"

namespace dwm::mr {

int ResolveWorkerThreads(int worker_threads) {
  if (worker_threads > 0) return worker_threads;
  // "0" is the silent explicit-auto spelling; large values cap at 1024.
  const int64_t env = EnvInt("DWM_THREADS", 0, INT64_MAX,
                             "a positive integer", "using auto")
                          .value_or(0);
  if (env > 0) return static_cast<int>(std::min<int64_t>(env, 1024));
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

std::string ResolveCheckpointDir(const std::string& checkpoint_dir) {
  if (!checkpoint_dir.empty()) return checkpoint_dir;
  if (const char* env = std::getenv("DWM_CHECKPOINT")) {
    return std::string(env);
  }
  return std::string();
}

Status ClusterConfig::Validate() const {
  if (map_slots < 1) {
    return Status::InvalidArgument("ClusterConfig: map_slots must be >= 1, got " +
                                   std::to_string(map_slots));
  }
  if (reduce_slots < 1) {
    return Status::InvalidArgument(
        "ClusterConfig: reduce_slots must be >= 1, got " +
        std::to_string(reduce_slots));
  }
  if (!(network_bytes_per_second > 0.0)) {
    return Status::InvalidArgument(
        "ClusterConfig: network_bytes_per_second must be positive, got " +
        std::to_string(network_bytes_per_second));
  }
  if (!(storage_bytes_per_second > 0.0)) {
    return Status::InvalidArgument(
        "ClusterConfig: storage_bytes_per_second must be positive, got " +
        std::to_string(storage_bytes_per_second));
  }
  if (!(compute_scale > 0.0)) {
    return Status::InvalidArgument(
        "ClusterConfig: compute_scale must be positive, got " +
        std::to_string(compute_scale));
  }
  if (!(task_startup_seconds >= 0.0)) {
    return Status::InvalidArgument(
        "ClusterConfig: task_startup_seconds must be >= 0, got " +
        std::to_string(task_startup_seconds));
  }
  if (!(job_overhead_seconds >= 0.0)) {
    return Status::InvalidArgument(
        "ClusterConfig: job_overhead_seconds must be >= 0, got " +
        std::to_string(job_overhead_seconds));
  }
  if (max_task_attempts < 1) {
    return Status::InvalidArgument(
        "ClusterConfig: max_task_attempts must be >= 1, got " +
        std::to_string(max_task_attempts));
  }
  if (worker_threads < 0) {
    return Status::InvalidArgument(
        "ClusterConfig: worker_threads must be >= 0 (0 = auto), got " +
        std::to_string(worker_threads));
  }
  return Status::OK();
}

void ModelJobTime(const ClusterConfig& config, JobStats* job) {
  job->map_makespan_seconds =
      ScheduleMakespanAttempts(job->map_attempts, config.map_slots)
          .makespan_seconds;
  job->reduce_makespan_seconds =
      ScheduleMakespanAttempts(job->reduce_attempts, config.reduce_slots)
          .makespan_seconds;
  job->shuffle_seconds =
      static_cast<double>(job->shuffle_bytes) / config.network_bytes_per_second;
  job->job_overhead_seconds = config.job_overhead_seconds;
}

JobStats RescheduleJob(const JobStats& job, const ClusterConfig& config) {
  JobStats out = job;
  ModelJobTime(config, &out);
  return out;
}

SimReport RescheduleReport(const SimReport& report,
                           const ClusterConfig& config) {
  // Driver work is measured, not modeled: driver_seconds and the named
  // spans that sum to it carry over unchanged.
  SimReport out = report;
  for (JobStats& job : out.jobs) job = RescheduleJob(job, config);
  return out;
}

double ScheduleMakespan(const std::vector<double>& task_seconds, int slots) {
  // Backstop for direct callers; RunJobOr rejects bad slot counts via
  // ClusterConfig::Validate before any scheduling happens.
  // dwm-lint: allow(mr-check): programmer-error backstop; Validate() surfaces the Status upstream
  DWM_CHECK_GE(slots, 1);
  if (task_seconds.empty()) return 0.0;
  // Min-heap of slot free times.
  std::priority_queue<double, std::vector<double>, std::greater<double>> free_at;
  for (int s = 0; s < slots; ++s) free_at.push(0.0);
  double makespan = 0.0;
  for (double t : task_seconds) {
    const double start = free_at.top();
    free_at.pop();
    const double end = start + std::max(t, 0.0);
    free_at.push(end);
    makespan = std::max(makespan, end);
  }
  return makespan;
}

RecoverySchedule ScheduleMakespanAttempts(
    const std::vector<TaskExecution>& tasks, int slots,
    bool record_placements) {
  // Backstop for direct callers (see ScheduleMakespan).
  // dwm-lint: allow(mr-check): programmer-error backstop; Validate() surfaces the Status upstream
  DWM_CHECK_GE(slots, 1);
  RecoverySchedule out;
  if (tasks.empty()) return out;
  // Min-heap of (free time, slot id); the slot id only feeds placement
  // records — ties keep the same free *time*, so the makespan is exactly
  // what the slot-anonymous schedule produced.
  using Slot = std::pair<double, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> free_at;
  for (int s = 0; s < slots; ++s) free_at.push({0.0, s});
  for (size_t t = 0; t < tasks.size(); ++t) {
    const TaskExecution& task = tasks[t];
    double ready = 0.0;  // when this task (re)enters the FIFO queue
    const size_t n = task.attempts.size();
    for (size_t i = 0; i < n; ++i) {
      const int slot = free_at.top().second;
      const double start = std::max(free_at.top().first, ready);
      free_at.pop();
      const double end = start + std::max(task.attempts[i].seconds, 0.0);
      free_at.push({end, slot});
      out.makespan_seconds = std::max(out.makespan_seconds, end);
      // Every non-final attempt is a failure by construction; the final one
      // is the committed run unless the task exhausted its retries.
      const bool failed = task.attempts[i].failed || i + 1 < n;
      if (record_placements) {
        out.placements.push_back({static_cast<int64_t>(t),
                                  static_cast<int>(i) + 1, slot, start, end,
                                  failed});
      }
      // A failure is observed when the attempt dies; the retry becomes
      // runnable at once.
      ready = end;
    }
  }
  return out;
}

}  // namespace dwm::mr
