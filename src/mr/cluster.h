// Cluster cost model: turns the *measured* per-task compute times and
// byte-accurate shuffle volumes produced by the job engine into a simulated
// job makespan on a cluster with a configurable number of map/reduce slots.
//
// Rationale (see DESIGN.md): the paper evaluates on a 9-node Hadoop 2.6
// cluster (40 map / 16 reduce slots). One machine cannot show that
// cluster's speedup: the engine runs tasks on a few worker threads
// (ClusterConfig::worker_threads), and dwm_bench pins one. Per-task work
// and communication are measured for real and only the slot scheduling is
// modeled. All the scalability figures (5a-5d) plot this simulated job
// time.
#ifndef DWMAXERR_MR_CLUSTER_H_
#define DWMAXERR_MR_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mr/faults.h"

namespace dwm::mr {

struct ClusterConfig {
  // Paper platform: 8 slaves x 5 map slots and 8 x 2 reduce slots.
  int map_slots = 40;
  int reduce_slots = 16;
  // Hadoop container launch per task and per-job submission overhead.
  double task_startup_seconds = 1.0;
  double job_overhead_seconds = 6.0;
  // Aggregate shuffle bandwidth and HDFS scan bandwidth.
  double network_bytes_per_second = 100.0e6;
  double storage_bytes_per_second = 400.0e6;
  // Calibration multiplier applied to measured CPU seconds (e.g. to model
  // the paper's 2 GHz Xeons or a JVM tax); 1.0 = this machine.
  double compute_scale = 1.0;
  // Engine worker threads executing map/reduce tasks concurrently.
  // 0 = auto: the DWM_THREADS environment variable if set (and positive),
  // otherwise the hardware concurrency. The thread count never changes job
  // *results*: RunJobOr merges per-task emit buffers in task order, so
  // shuffle bytes, record order, JobStats tallies and reducer outputs are
  // byte-identical at every setting — only real_seconds moves. Per-task
  // compute is measured on per-thread CPU clocks (ThreadCpuStopwatch), so
  // the cost model's task times stay meaningful even when worker threads
  // oversubscribe the machine's cores.
  int worker_threads = 0;
  // Hadoop mapreduce.map/reduce.maxattempts: a task may be retried until
  // this many attempts have failed; one more failure fails the job.
  int max_task_attempts = 4;
  // Compatibility shim for dwmbench/dwm_bench.cpp, which predates the
  // removal of the bad-record quarantine and is frozen until the next
  // benchmark change: it still sets this field. The field is ignored (a
  // corrupt shuffle stream always aborts the job); nothing else may use
  // it, and it goes with the next benchmark change.
  int64_t max_skipped_bad_records = 0;
  // Checkpointed resume (mr/checkpoint.h): directory a JobChain saves
  // committed stage snapshots into and resumes from. Empty = auto: the
  // DWM_CHECKPOINT environment variable if set, otherwise disabled.
  std::string checkpoint_dir;
  // Namespace prefix for checkpoint files, used by drivers that run other
  // drivers as sub-pipelines (DIndirectHaar's probes) so nested chains get
  // distinct stage files; empty for top-level runs.
  std::string checkpoint_scope;
  // Fault injection plan for jobs run under this config. Default-constructed
  // = inert, falling back to the process-wide DWM_FAULTS environment knob;
  // FaultPlan::Disabled() suppresses even that (see mr/faults.h).
  FaultPlan faults;

  // Validates user-settable knobs: slots >= 1, bandwidths and compute_scale
  // positive, overheads non-negative, max_task_attempts >= 1,
  // worker_threads >= 0. RunJobOr calls this and returns the error instead
  // of CHECK-aborting on a misconfiguration.
  [[nodiscard]] Status Validate() const;
};

// Effective engine concurrency for a ClusterConfig::worker_threads value
// (resolves the 0 = auto case as documented above); always >= 1.
// DWM_THREADS is parsed strictly: a value that is not a plain base-10
// positive integer ("abc", "-3", "0x10", "16abc") warns once to stderr and
// falls back to auto instead of being silently misread; "0" is the
// documented explicit-auto spelling and stays silent.
int ResolveWorkerThreads(int worker_threads);

// Effective checkpoint directory for a ClusterConfig::checkpoint_dir value
// (resolves the empty = auto case against DWM_CHECKPOINT); empty means
// checkpointing stays disabled.
std::string ResolveCheckpointDir(const std::string& checkpoint_dir);

// Completion time of `task_seconds` scheduled FIFO onto `slots` identical
// slots (each next task starts on the earliest-free slot). The engine
// schedules attempt histories (ScheduleMakespanAttempts below); this plain
// form is the clean single-attempt reference that scheduler degenerates to.
double ScheduleMakespan(const std::vector<double>& task_seconds, int slots);

// One attempt of one task, as recorded by RunJobOr's attempt loop.
// `seconds` is the modeled slot occupancy of this attempt: for a failed
// attempt that is failure_fraction x slowdown x base seconds (the attempt
// died partway through); for the committed attempt, slowdown x base.
struct TaskAttempt {
  double seconds = 0.0;
  double slowdown = 1.0;  // > 1 means this attempt straggled
  bool failed = false;
  bool node_lost = false;  // failed because its simulated node was lost
  // Measured thread-CPU time of the closure. Deliberately last: the fields
  // above are an established aggregate-init order ({seconds, slowdown,
  // failed, node_lost}) that existing call sites rely on.
  double cpu_seconds = 0.0;
};

// Full attempt history of one task; the last attempt is the committed
// (successful) one unless the task exhausted its retries.
struct TaskExecution {
  std::vector<TaskAttempt> attempts;
};

// Where one attempt ran on the modeled cluster: the slot it occupied and
// its start/end on the simulated timeline (seconds since the phase began).
// Produced by ScheduleMakespanAttempts when placement recording is on; the
// trace layer (mr/trace.h) turns these into per-attempt spans.
struct AttemptPlacement {
  int64_t task = 0;
  int attempt = 0;  // 1-based, matching the engine's attempt numbering
  int slot = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  bool failed = false;
};

// Attempt-aware FIFO schedule: each task occupies a slot for every failed
// attempt (re-queued the moment the failure is observed), and a straggling
// attempt simply runs out its slowed time on its slot. The schedule is a
// pure function of the attempt histories and the slot count, and it
// degenerates to ScheduleMakespan for clean single-attempt histories.
struct RecoverySchedule {
  double makespan_seconds = 0.0;
  // Filled only when record_placements is set (the makespan math never
  // depends on it); placements appear in task order, attempts ascending.
  std::vector<AttemptPlacement> placements;
};
RecoverySchedule ScheduleMakespanAttempts(
    const std::vector<TaskExecution>& tasks, int slots,
    bool record_placements = false);

// Everything measured/modeled about one MapReduce job.
struct JobStats {
  std::string name;
  int64_t map_tasks = 0;
  int64_t reduce_tasks = 0;
  int64_t input_bytes = 0;
  int64_t shuffle_bytes = 0;
  int64_t shuffle_records = 0;
  int64_t output_records = 0;
  double map_makespan_seconds = 0.0;     // modeled (slots applied)
  double shuffle_seconds = 0.0;          // modeled transfer time
  double reduce_makespan_seconds = 0.0;  // modeled (slots applied)
  double job_overhead_seconds = 0.0;
  double real_seconds = 0.0;  // wall time this process actually spent
  // Per-task attempt histories, one entry per task in task order. Each
  // attempt's seconds (startup + scaled compute + storage reads, straggler
  // slowdown and failure fraction applied) fed the makespans; they are kept
  // so a run can be *re-scheduled* onto a different slot count without
  // re-executing (see RescheduleJob). A task's committed time is its last
  // attempt's, unless that attempt failed (the task exhausted its retries).
  std::vector<TaskExecution> map_attempts;
  std::vector<TaskExecution> reduce_attempts;
  // Per-task shuffle accounting, recorded lock-free by the worker threads
  // (each task writes only its own slot) and merged in task order: split
  // bytes scanned and shuffle bytes/records produced per map task, shuffle
  // partition bytes/records consumed and records produced per reduce task.
  // Drives the trace spans' bytes in/out (mr/trace.h) and the per-reducer
  // skew metrics. A job that exhausted its map retries has attempt
  // histories but empty per-task byte vectors.
  std::vector<double> map_task_in_bytes;
  std::vector<int64_t> map_task_out_bytes;
  std::vector<int64_t> map_task_records;
  std::vector<int64_t> reduce_task_in_bytes;
  std::vector<int64_t> reduce_task_records;
  std::vector<int64_t> reduce_task_out_records;
  // Fault/recovery accounting (all zero on a fault-free run).
  int64_t task_attempts = 0;       // attempts launched, map + reduce
  int64_t failed_attempts = 0;     // attempts that fail-stopped or were killed
  int64_t node_loss_kills = 0;     // failed attempts due to node loss
  int64_t straggler_attempts = 0;  // attempts that ran slowed

  double sim_seconds() const {
    return map_makespan_seconds + shuffle_seconds + reduce_makespan_seconds +
           job_overhead_seconds;
  }
};

// One named slab of driver-side work (e.g. dgreedy's genRootSets), with
// its position in the job sequence so the trace can place it between the
// jobs it actually ran between.
struct DriverSpan {
  std::string name;
  double seconds = 0.0;
  int64_t after_job = 0;  // number of jobs completed when the work ran
};

// Accumulated report for a (possibly multi-job) distributed algorithm run.
struct SimReport {
  std::vector<JobStats> jobs;
  // Work executed on the driver between jobs (e.g. genRootSets), measured.
  // Kept as the canonical total; AddDriverSpan updates it alongside the
  // named spans below.
  double driver_seconds = 0.0;
  // Named driver-side phases in execution order; sums to driver_seconds
  // for drivers that attribute all of their work (the trace layer renders
  // any unattributed remainder as one anonymous span).
  std::vector<DriverSpan> driver_spans;

  // Records a named driver phase at the current point in the job sequence.
  void AddDriverSpan(const std::string& name, double seconds) {
    driver_spans.push_back(
        {name, seconds, static_cast<int64_t>(jobs.size())});
    driver_seconds += seconds;
  }

  // Appends another report's jobs and driver spans (sub-pipelines such as
  // DIndirectHaar's probes), keeping span positions consistent.
  void Append(const SimReport& other) {
    const int64_t base = static_cast<int64_t>(jobs.size());
    for (const DriverSpan& span : other.driver_spans) {
      driver_spans.push_back(
          {span.name, span.seconds, base + span.after_job});
    }
    driver_seconds += other.driver_seconds;
    jobs.insert(jobs.end(), other.jobs.begin(), other.jobs.end());
  }

  double total_sim_seconds() const {
    double total = driver_seconds;
    for (const JobStats& j : jobs) total += j.sim_seconds();
    return total;
  }
  int64_t total_shuffle_bytes() const {
    int64_t total = 0;
    for (const JobStats& j : jobs) total += j.shuffle_bytes;
    return total;
  }
  int64_t total_jobs() const { return static_cast<int64_t>(jobs.size()); }
};

// The one derivation of a job's *modeled* time from its recorded
// measurements under `config`: map/reduce makespans from the attempt
// histories through the attempt-aware scheduler (failed-attempt occupancy,
// straggler run-outs), shuffle_seconds from shuffle_bytes, and
// job_overhead_seconds. RunJobOr calls it on every return that recorded
// attempts, a doomed job's included.
void ModelJobTime(const ClusterConfig& config, JobStats* job);

// A copy of `job` passed through ModelJobTime under another cluster's
// config; onto the run's own config it reproduces the modeled times. The
// recorded attempt times (startup + scaled compute + storage reads) are
// *not* adjusted, so reschedule onto configs that differ only in slots,
// network bandwidth or job overhead. RescheduleReport carries the driver's
// measured work (driver_seconds and driver_spans) over unchanged.
JobStats RescheduleJob(const JobStats& job, const ClusterConfig& config);
SimReport RescheduleReport(const SimReport& report,
                           const ClusterConfig& config);

}  // namespace dwm::mr

#endif  // DWMAXERR_MR_CLUSTER_H_
