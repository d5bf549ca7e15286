// The MapReduce job engine. Deterministic, multi-threaded single-process
// execution with real per-task time measurement and byte-accurate shuffles;
// the cluster cost model (cluster.h) turns those into simulated job times.
//
// Semantics mirror Hadoop's: map tasks run over input splits and emit typed
// (K, V) pairs, the engine serializes each pair into the buffer of the
// reducer selected by the partitioner, reducers sort their input by key and
// invoke reduce once per distinct key. Reducers may start only after all
// maps finish (no slowstart), which is what the paper's job-time plots show.
//
// Execution model (ClusterConfig::worker_threads): map tasks run
// concurrently on a thread pool, each serializing into its own per-task,
// per-reducer emit buffers; the driver thread then merges those buffers
// into the shuffle in task order, so the shuffle is byte-identical to a
// sequential run. Reducers likewise run concurrently with their outputs
// concatenated in reducer order. Consequences for job authors:
//   - map closures may freely *read* shared state but must not mutate it
//     (emit is task-local and always safe);
//   - reduce closures run concurrently when num_reducers > 1; they write
//     only through their `out` vector. A driver that needs results folds
//     RunJobOr's output after it returns: outputs concatenate in reducer
//     order with keys ascending within a reducer, so the fold sees exactly
//     the reduce-call order at every thread count;
//   - per-task compute is charged by a per-thread CPU clock
//     (ThreadCpuStopwatch), so measured task times stay meaningful when
//     worker threads oversubscribe the machine's cores.
//
// Fault model (mr/faults.h): RunJobOr runs every task through an attempt
// loop with Hadoop semantics — up to ClusterConfig::max_task_attempts
// attempts per task, exhaustion fails the *job* with a non-OK Status. Map
// attempts are genuinely re-executed (maps are pure readers with task-local
// emit, so a retry reproduces the exact same bytes; DWM_AUDIT verifies
// this). Reduce attempts are cost-modeled only: the reduce closure runs
// exactly once, as the committed attempt. A reducer writes only its `out`,
// so a re-executed attempt would reproduce the same output; running it
// once saves the work and yields the same bytes (DESIGN.md).
// Because the FaultPlan is a pure function and failed map attempts' buffers
// are discarded, reducer outputs, shuffle bytes, record order and JobStats'
// non-fault tallies are byte-identical to the fault-free run for any plan
// that does not exhaust retries.
#ifndef DWMAXERR_MR_JOB_H_
#define DWMAXERR_MR_JOB_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/sealed_file.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "mr/thread_pool.h"

namespace dwm::mr {

// Deterministic bytewise FNV-1a, the default partitioner hash.
inline uint64_t FnvHash(const uint8_t* data, size_t len) {
  return Fnv1a(kFnv1aOffset, data, len);
}

template <typename K>
int HashPartition(const K& key, int num_reducers) {
  ByteBuffer buf;
  Serde<K>::Put(buf, key);
  return static_cast<int>(FnvHash(buf.data(), buf.size()) %
                          static_cast<uint64_t>(num_reducers));
}

template <typename Split, typename K, typename V, typename Out>
struct JobSpec {
  std::string name;
  // map(task_id, split, emit): called once per split, possibly concurrently
  // with other tasks — it must not mutate state shared across tasks. Under
  // fault injection a failed attempt re-runs the closure, so it must also
  // be idempotent w.r.t. captured state (pure readers always are).
  std::function<void(int64_t, const Split&,
                     const std::function<void(const K&, const V&)>&)>
      map;
  // reduce(key, values, out): called once per distinct key, keys ascending
  // within a reducer; reducers may run concurrently (see the header note).
  // Writes only `out`: drivers fold the job's output, never captures.
  std::function<void(const K&, std::vector<V>&, std::vector<Out>*)> reduce;
  int num_reducers = 1;
  // reducer index for a key; defaults to hash partitioning. Must be a pure
  // function of the key (it is evaluated from worker threads).
  std::function<int(const K&)> partition;
  // bytes scanned from storage by a map task; drives the HDFS-read cost.
  std::function<double(const Split&)> split_bytes;
};

namespace job_internal {

// Everything one map task produces, written only by the task that owns it;
// the driver merges these in task order after the map phase joins.
struct MapTaskOutput {
  std::vector<ByteBuffer> per_reducer;
  int64_t records = 0;
  double in_bytes = 0.0;
  TaskExecution execution;    // every attempt, failed ones included
  bool committed = false;     // false = retries exhausted
};

inline const char* FailureKind(const TaskAttempt& attempt) {
  return attempt.node_lost ? "node loss" : "fail-stop";
}

// Accumulates the fault tallies from a phase's attempt histories.
inline void CountFaultStats(JobStats& stats,
                            const std::vector<TaskExecution>& tasks) {
  for (const TaskExecution& task : tasks) {
    for (const TaskAttempt& attempt : task.attempts) {
      ++stats.task_attempts;
      if (attempt.failed) ++stats.failed_attempts;
      if (attempt.node_lost) ++stats.node_loss_kills;
      if (attempt.slowdown > 1.0) ++stats.straggler_attempts;
    }
  }
}

// Publishes one completed job's cost-model accounting into the process
// metrics registry (metrics::Default()): task/byte/record counters, the
// reducer-skew gauge (all kStable — pure functions of inputs + cost
// model), plus the measured phase timings and task-duration histograms
// (kMeasured). With `faults_active` the dwm_faults_* tallies publish too
// (PublishFaultTallies). Defined in mr/job.cc — non-template, so the
// header-only engine stays light.
void PublishJobMetrics(const JobStats& stats, bool faults_active);

}  // namespace job_internal

// Runs the job and stores the concatenated reducer outputs (in reducer
// order) into *output. Fills `stats` (required). Results are
// byte-identical for every config.worker_threads value and every FaultPlan
// that does not exhaust retries. Returns InvalidArgument if
// config.Validate() fails and Aborted if any task fails max_task_attempts
// times or a reducer's shuffle stream fails to deserialize (corrupt length
// prefix / truncated record); *output is empty on error and `stats` still
// carries the attempt histories of the doomed run and the modeled time
// ModelJobTime derives from them.
template <typename Split, typename K, typename V, typename Out>
[[nodiscard]] Status RunJobOr(const JobSpec<Split, K, V, Out>& spec,
                              const std::vector<Split>& splits,
                              const ClusterConfig& config,
                              std::vector<Out>* output, JobStats* stats) {
  DWM_CHECK(output != nullptr);
  DWM_CHECK(stats != nullptr);
  DWM_CHECK_GE(spec.num_reducers, 1);
  DWM_RETURN_NOT_OK(config.Validate());
  const FaultPlan& faults = EffectiveFaultPlan(config.faults);
  const int max_attempts = config.max_task_attempts;
  const int num_reducers = spec.num_reducers;
  const int64_t num_map_tasks = static_cast<int64_t>(splits.size());

  output->clear();
  // Reset the stats outright: every field below accumulates with +=, so a
  // JobStats reused across jobs must not carry the previous job's totals.
  *stats = JobStats{};
  stats->name = spec.name;
  stats->map_tasks = num_map_tasks;
  stats->reduce_tasks = num_reducers;
  // Every later return has recorded attempts, so each one derives the
  // modeled time first: a doomed job's failed attempts occupied slots too.
  const auto aborted = [&](const std::string& message) {
    ModelJobTime(config, stats);
    return Status::Aborted(message);
  };

  Stopwatch total_clock;
  // One pool serves both phases; capping at the widest phase avoids
  // spawning threads that could never claim a task.
  ThreadPool pool(static_cast<int>(std::min<int64_t>(
      ResolveWorkerThreads(config.worker_threads),
      std::max<int64_t>({int64_t{1}, num_map_tasks,
                         static_cast<int64_t>(num_reducers)}))));

  // ---- Map phase: concurrent tasks, task-local emit buffers, Hadoop-style
  // attempt loop. A failed attempt's buffers are discarded and the map
  // closure re-runs from scratch, exactly like a Hadoop task retry. ----
  std::vector<job_internal::MapTaskOutput> map_outputs(
      static_cast<size_t>(num_map_tasks));
  pool.ParallelFor(num_map_tasks, [&](int64_t task) {
    const Split& split = splits[static_cast<size_t>(task)];
    job_internal::MapTaskOutput& out =
        map_outputs[static_cast<size_t>(task)];
    ByteBuffer key_bytes;  // per-record scratch, reused across emits
    // Under DWM_AUDIT a failed attempt's buffers are kept so the retry can
    // be byte-compared against them: re-execution must be a pure replay.
    [[maybe_unused]] std::vector<ByteBuffer> audit_prev_attempt;
    [[maybe_unused]] bool audit_have_prev = false;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      const FaultDecision fate =
          faults.Decide(spec.name, TaskPhase::kMap, task, attempt);
      out.per_reducer.clear();
      out.per_reducer.resize(static_cast<size_t>(num_reducers));
      out.records = 0;
      out.in_bytes = spec.split_bytes ? spec.split_bytes(split) : 0.0;
      ThreadCpuStopwatch clock;
      auto emit = [&](const K& key, const V& value) {
        // Serialize the key once: the same bytes feed the default
        // partitioner's hash and the reducer buffer.
        key_bytes.clear();
        Serde<K>::Put(key_bytes, key);
        const int r =
            spec.partition
                ? spec.partition(key)
                : static_cast<int>(
                      FnvHash(key_bytes.data(), key_bytes.size()) %
                      static_cast<uint64_t>(num_reducers));
        DWM_CHECK_GE(r, 0);
        DWM_CHECK_LT(r, num_reducers);
        ByteBuffer& buf = out.per_reducer[static_cast<size_t>(r)];
        const size_t record_start = buf.size();
        buf.PutRaw(key_bytes.data(), key_bytes.size());
        const size_t value_start = buf.size();
        Serde<V>::Put(buf, value);
        if constexpr (audit::kEnabled) {
          // Partitioner stability: a second evaluation must route the same
          // key to the same reducer (and the optimized default path must
          // agree with the public HashPartition).
          if (spec.partition) {
            DWM_AUDIT_CHECK(spec.partition(key) == r);
          } else {
            DWM_AUDIT_CHECK(HashPartition<K>(key, num_reducers) == r);
          }
          // Serde round-trip self-verification on the record just written:
          // Get must consume exactly the bytes Put produced for the key and
          // for the value, and re-encoding the decoded pair must reproduce
          // the same bytes. Runs on the worker thread over task-local
          // buffers, so it stays race-free under the concurrent executor.
          const size_t record_size = buf.size() - record_start;
          ByteReader reader(buf.data() + record_start, record_size);
          const K decoded_key = Serde<K>::Get(reader);
          DWM_AUDIT_CHECK(record_size - reader.remaining() ==
                          value_start - record_start);
          const V decoded_value = Serde<V>::Get(reader);
          DWM_AUDIT_CHECK(reader.Done());
          ByteBuffer reencoded;
          Serde<K>::Put(reencoded, decoded_key);
          Serde<V>::Put(reencoded, decoded_value);
          DWM_AUDIT_CHECK(reencoded.size() == record_size);
          DWM_AUDIT_CHECK(std::memcmp(reencoded.data(),
                                      buf.data() + record_start,
                                      record_size) == 0);
        }
        ++out.records;
      };
      spec.map(task, split, emit);
      const double cpu_seconds = clock.ElapsedSeconds();
      const double base_seconds =
          cpu_seconds * config.compute_scale + config.task_startup_seconds +
          out.in_bytes / config.storage_bytes_per_second;
      TaskAttempt record;
      record.cpu_seconds = cpu_seconds;
      record.slowdown = fate.slowdown;
      record.failed = fate.failed();
      record.node_lost = fate.node_lost;
      record.seconds = base_seconds * fate.slowdown *
                       (fate.failed() ? fate.failure_fraction : 1.0);
      out.execution.attempts.push_back(record);
      if (fate.failed()) {
        if constexpr (audit::kEnabled) {
          audit_prev_attempt = std::move(out.per_reducer);
          audit_have_prev = true;
        }
        continue;  // discard this attempt's output; re-queue the task
      }
      if constexpr (audit::kEnabled) {
        // Retry determinism: the re-executed attempt must reproduce the
        // failed attempt's bytes exactly (maps are pure functions of their
        // split). This is the mechanism behind the byte-identical-under-
        // faults invariant.
        if (audit_have_prev) {
          DWM_AUDIT_CHECK(audit_prev_attempt.size() == out.per_reducer.size());
          for (size_t r = 0; r < out.per_reducer.size(); ++r) {
            DWM_AUDIT_CHECK(audit_prev_attempt[r].size() ==
                            out.per_reducer[r].size());
            DWM_AUDIT_CHECK(std::memcmp(audit_prev_attempt[r].data(),
                                        out.per_reducer[r].data(),
                                        out.per_reducer[r].size()) == 0);
          }
        }
      }
      out.committed = true;
      break;
    }
  });

  // Surface retry exhaustion as a job failure (Hadoop: one task exceeding
  // maxattempts fails the job). Deterministic: the lowest-indexed doomed
  // task is reported regardless of execution interleaving.
  for (int64_t task = 0; task < num_map_tasks; ++task) {
    job_internal::MapTaskOutput& out = map_outputs[static_cast<size_t>(task)];
    if (out.committed) continue;
    for (job_internal::MapTaskOutput& o : map_outputs) {
      stats->map_attempts.push_back(std::move(o.execution));
    }
    job_internal::CountFaultStats(*stats, stats->map_attempts);
    const TaskAttempt& last = stats->map_attempts[static_cast<size_t>(task)]
                                  .attempts.back();
    return aborted(
        "job '" + spec.name + "': map task " + std::to_string(task) +
        " failed permanently after " + std::to_string(max_attempts) +
        " attempts (last failure: " + job_internal::FailureKind(last) + ")");
  }

  // ---- Shuffle merge: driver-side, in task order, so the per-reducer
  // frames are byte-identical to a sequential execution. ----
  std::vector<ByteBuffer> shuffle(static_cast<size_t>(num_reducers));
  stats->map_attempts.reserve(static_cast<size_t>(num_map_tasks));
  stats->map_task_in_bytes.reserve(static_cast<size_t>(num_map_tasks));
  stats->map_task_out_bytes.reserve(static_cast<size_t>(num_map_tasks));
  stats->map_task_records.reserve(static_cast<size_t>(num_map_tasks));
  int64_t shuffle_records = 0;
  double input_bytes = 0.0;  // in double: int64 truncation per split would
                             // under-count by up to a byte per task
  for (job_internal::MapTaskOutput& out : map_outputs) {
    input_bytes += out.in_bytes;
    shuffle_records += out.records;
    stats->map_attempts.push_back(std::move(out.execution));
    int64_t task_out_bytes = 0;
    for (int r = 0; r < num_reducers; ++r) {
      const ByteBuffer& buf = out.per_reducer[static_cast<size_t>(r)];
      task_out_bytes += static_cast<int64_t>(buf.size());
      if (buf.size() != 0) {
        shuffle[static_cast<size_t>(r)].PutRaw(buf.data(), buf.size());
      }
    }
    stats->map_task_in_bytes.push_back(out.in_bytes);
    stats->map_task_out_bytes.push_back(task_out_bytes);
    stats->map_task_records.push_back(out.records);
    out.per_reducer.clear();
    out.per_reducer.shrink_to_fit();  // cap peak memory at ~one extra task
  }
  stats->input_bytes = std::llround(input_bytes);

  int64_t shuffle_bytes = 0;
  for (const ByteBuffer& buf : shuffle) {
    shuffle_bytes += static_cast<int64_t>(buf.size());
  }
  stats->shuffle_bytes = shuffle_bytes;
  stats->shuffle_records = shuffle_records;

  // ---- Reduce phase. Attempt chains are decided up front (they are a pure
  // function of the plan, independent of execution): failed attempts are
  // cost-modeled only, and the closure runs exactly once as the committed
  // attempt — a reducer writes only `out`, so a replay would reproduce it
  // (see the header note). A task whose whole chain fails aborts the job
  // *before* any reducer runs, so a doomed job spends no reduce work. ----
  std::vector<std::vector<FaultDecision>> reduce_failures(
      static_cast<size_t>(num_reducers));
  std::vector<FaultDecision> reduce_committed(
      static_cast<size_t>(num_reducers));
  for (int r = 0; r < num_reducers; ++r) {
    bool committed = false;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      const FaultDecision fate =
          faults.Decide(spec.name, TaskPhase::kReduce, r, attempt);
      if (fate.failed()) {
        reduce_failures[static_cast<size_t>(r)].push_back(fate);
      } else {
        reduce_committed[static_cast<size_t>(r)] = fate;
        committed = true;
        break;
      }
    }
    if (!committed) {
      // Record the doomed chains (seconds unknown — the closures never
      // ran), then fail the job.
      stats->reduce_attempts.resize(static_cast<size_t>(num_reducers));
      for (int t = 0; t < num_reducers; ++t) {
        for (const FaultDecision& fate :
             reduce_failures[static_cast<size_t>(t)]) {
          TaskAttempt record;
          record.slowdown = fate.slowdown;
          record.failed = true;
          record.node_lost = fate.node_lost;
          stats->reduce_attempts[static_cast<size_t>(t)].attempts.push_back(
              record);
        }
      }
      job_internal::CountFaultStats(*stats, stats->map_attempts);
      job_internal::CountFaultStats(*stats, stats->reduce_attempts);
      const TaskAttempt& last =
          stats->reduce_attempts[static_cast<size_t>(r)].attempts.back();
      return aborted(
          "job '" + spec.name + "': reduce task " + std::to_string(r) +
          " failed permanently after " + std::to_string(max_attempts) +
          " attempts (last failure: " + job_internal::FailureKind(last) +
          ")");
    }
  }

  std::vector<std::vector<Out>> reducer_outputs(
      static_cast<size_t>(num_reducers));
  stats->reduce_attempts.assign(static_cast<size_t>(num_reducers),
                                TaskExecution{});
  stats->reduce_task_in_bytes.assign(static_cast<size_t>(num_reducers), 0);
  stats->reduce_task_records.assign(static_cast<size_t>(num_reducers), 0);
  stats->reduce_task_out_records.assign(static_cast<size_t>(num_reducers), 0);
  // Per-reducer corrupt-stream flags, written lock-free (each reducer owns
  // its slot). The shuffle bytes the engine itself built are trusted, but
  // the deserialization path is shared with replayed/file-backed streams,
  // so a bad length prefix must surface as a Status, not an abort.
  std::vector<uint8_t> corrupt_reducers(static_cast<size_t>(num_reducers), 0);
  pool.ParallelFor(num_reducers, [&](int64_t r) {
    ThreadCpuStopwatch clock;
    const ByteBuffer& buf = shuffle[static_cast<size_t>(r)];
    ByteReader reader(buf);
    std::vector<std::pair<K, V>> pairs;
    while (!reader.Done()) {
      K key = Serde<K>::Get(reader);
      V value = Serde<V>::Get(reader);
      pairs.emplace_back(std::move(key), std::move(value));
    }
    if (!reader.ok()) {
      // Corrupt stream: the decoded tail is meaningless, so the reduce
      // closure never sees it.
      corrupt_reducers[static_cast<size_t>(r)] = 1;
      return;
    }
    stats->reduce_task_in_bytes[static_cast<size_t>(r)] =
        static_cast<int64_t>(buf.size());
    stats->reduce_task_records[static_cast<size_t>(r)] =
        static_cast<int64_t>(pairs.size());
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                       return a.first < b.first;
                     });
    std::vector<Out>* out = &reducer_outputs[static_cast<size_t>(r)];
    size_t i = 0;
    while (i < pairs.size()) {
      size_t j = i + 1;
      // Sorted, so pairs[j] never orders before pairs[i]: the group runs
      // while pairs[i] does not order before it either.
      while (j < pairs.size() && !(pairs[i].first < pairs[j].first)) ++j;
      std::vector<V> values;
      values.reserve(j - i);
      for (size_t t = i; t < j; ++t) values.push_back(std::move(pairs[t].second));
      spec.reduce(pairs[i].first, values, out);
      i = j;
    }
    stats->reduce_task_out_records[static_cast<size_t>(r)] =
        static_cast<int64_t>(out->size());
    // Decode + sort + reduce, all charged to the committed attempt.
    const double cpu_seconds = clock.ElapsedSeconds();
    const double base_seconds =
        cpu_seconds * config.compute_scale + config.task_startup_seconds;
    // Materialize the attempt chain now that the base time is measured:
    // every failed attempt is charged its failure fraction of its own
    // (possibly slowed) runtime, the committed attempt its full runtime.
    TaskExecution& exec = stats->reduce_attempts[static_cast<size_t>(r)];
    for (const FaultDecision& fate : reduce_failures[static_cast<size_t>(r)]) {
      TaskAttempt record;
      record.slowdown = fate.slowdown;
      record.failed = true;
      record.node_lost = fate.node_lost;
      record.seconds = base_seconds * fate.slowdown * fate.failure_fraction;
      exec.attempts.push_back(record);
    }
    const FaultDecision& fate = reduce_committed[static_cast<size_t>(r)];
    TaskAttempt record;
    record.cpu_seconds = cpu_seconds;
    record.slowdown = fate.slowdown;
    record.seconds = base_seconds * fate.slowdown;
    exec.attempts.push_back(record);
  });

  // Surface corrupt shuffle streams as a job failure after the pool joins;
  // like retry exhaustion, the lowest-indexed corrupt reducer is reported
  // regardless of execution interleaving.
  for (int r = 0; r < num_reducers; ++r) {
    if (corrupt_reducers[static_cast<size_t>(r)] != 0) {
      return aborted(
          "job '" + spec.name + "': reduce task " + std::to_string(r) +
          ": corrupt shuffle stream (truncated record or bad length prefix)");
    }
  }

  // Concatenate in reducer order (identical to the sequential run).
  size_t total_outputs = 0;
  for (const std::vector<Out>& part : reducer_outputs) {
    total_outputs += part.size();
  }
  output->reserve(total_outputs);
  for (std::vector<Out>& part : reducer_outputs) {
    std::move(part.begin(), part.end(), std::back_inserter(*output));
  }
  stats->output_records = static_cast<int64_t>(output->size());

  ModelJobTime(config, stats);
  // Fault accounting stays all-zero on a fault-free run (the JobStats
  // contract): a clean task_attempts == tasks tally would read as one
  // retry-free attempt per task, but it would also make fault-free stats
  // differ from pre-fault-model stats for no information gain.
  if (faults.active()) {
    job_internal::CountFaultStats(*stats, stats->map_attempts);
    job_internal::CountFaultStats(*stats, stats->reduce_attempts);
  }
  stats->real_seconds = total_clock.ElapsedSeconds();
  job_internal::PublishJobMetrics(*stats, faults.active());
  return Status::OK();
}

}  // namespace dwm::mr

#endif  // DWMAXERR_MR_JOB_H_
