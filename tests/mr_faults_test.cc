// Tests for deterministic fault injection and recovery in the MR runtime:
// the FaultPlan hash/parse layer, ClusterConfig::Validate, the
// attempt-aware scheduler, and RunJobOr's headline invariant — for any
// fault plan that does not exhaust retries, reducer outputs, shuffle
// bytes, record order and JobStats' non-fault tallies are byte-identical
// to the fault-free run at every worker_threads setting.
//
// Every baseline here uses FaultPlan::Disabled() so the suite stays
// correct when CI runs it under a process-wide DWM_FAULTS knob.
#include "mr/faults.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "dist/dcon.h"
#include "dist/dgreedy.h"
#include "mr/cluster.h"
#include "mr/job.h"
#include "mr/trace.h"

namespace dwm::mr {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: spec parsing.
// ---------------------------------------------------------------------------

TEST(FaultPlanParseTest, BareSeedAppliesDefaultChaosProfile) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("7", &plan).ok());
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_DOUBLE_EQ(plan.spec().map_failure_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.spec().reduce_failure_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.spec().straggler_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.spec().straggler_slowdown, 4.0);
  EXPECT_DOUBLE_EQ(plan.spec().node_loss_rate, 0.01);
  EXPECT_EQ(plan.spec().num_nodes, 8);
}

TEST(FaultPlanParseTest, SeedZeroIsValidAndActive) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("0", &plan).ok());
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.seed(), 0u);
}

TEST(FaultPlanParseTest, ExplicitKeysOverrideProfile) {
  FaultPlan plan;
  ASSERT_TRUE(
      FaultPlan::Parse("3:fail=0.1,slowdown=2.5,node_loss=0,nodes=4", &plan)
          .ok());
  EXPECT_EQ(plan.seed(), 3u);
  // `fail` sets both phases at once.
  EXPECT_DOUBLE_EQ(plan.spec().map_failure_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.spec().reduce_failure_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.spec().straggler_slowdown, 2.5);
  EXPECT_DOUBLE_EQ(plan.spec().node_loss_rate, 0.0);
  EXPECT_EQ(plan.spec().num_nodes, 4);

  ASSERT_TRUE(
      FaultPlan::Parse("5:map_fail=0.2,reduce_fail=0.3,straggle=0.4", &plan)
          .ok());
  EXPECT_DOUBLE_EQ(plan.spec().map_failure_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.spec().reduce_failure_rate, 0.3);
  EXPECT_DOUBLE_EQ(plan.spec().straggler_rate, 0.4);
}

TEST(FaultPlanParseTest, MalformedTextRejectedWithoutTouchingPlan) {
  const char* kBad[] = {
      "",          "abc",        "-1",          "1.5",
      "1:bogus=1", "1:fail=1.5", "1:fail=-0.1", "1:slowdown=0.5",
      "1:nodes=0", "1:fail",     "1:fail=abc",  "1:",
  };
  for (const char* text : kBad) {
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::Parse("11:fail=0.25", &plan).ok());
    const Status status = FaultPlan::Parse(text, &plan);
    EXPECT_FALSE(status.ok()) << "'" << text << "' should be rejected";
    // A rejected spec leaves the previously-parsed plan intact.
    EXPECT_EQ(plan.seed(), 11u) << "'" << text << "' clobbered the plan";
    EXPECT_DOUBLE_EQ(plan.spec().map_failure_rate, 0.25);
  }
}

// ---------------------------------------------------------------------------
// FaultPlan: decisions are pure functions of (seed, job, phase, task,
// attempt) — the whole determinism story rests on this.
// ---------------------------------------------------------------------------

TEST(FaultPlanDecideTest, DecisionsAreReproducibleAcrossPlanObjects) {
  FaultSpec spec;
  spec.map_failure_rate = 0.5;
  spec.reduce_failure_rate = 0.5;
  spec.straggler_rate = 0.5;
  spec.node_loss_rate = 0.2;
  const FaultPlan a(/*seed=*/42, spec);
  const FaultPlan b(/*seed=*/42, spec);
  int failures = 0, stragglers = 0;
  for (int64_t task = 0; task < 32; ++task) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const FaultDecision da = a.Decide("job", TaskPhase::kMap, task, attempt);
      const FaultDecision db = b.Decide("job", TaskPhase::kMap, task, attempt);
      EXPECT_EQ(da.fail_stop, db.fail_stop);
      EXPECT_EQ(da.node_lost, db.node_lost);
      EXPECT_DOUBLE_EQ(da.slowdown, db.slowdown);
      EXPECT_DOUBLE_EQ(da.failure_fraction, db.failure_fraction);
      failures += da.failed() ? 1 : 0;
      stragglers += da.slowdown > 1.0 ? 1 : 0;
    }
  }
  // At these rates the streams must actually fire.
  EXPECT_GT(failures, 0);
  EXPECT_GT(stragglers, 0);
}

TEST(FaultPlanDecideTest, SeedAndCoordinatesChangeDecisions) {
  FaultSpec spec;
  spec.map_failure_rate = 0.5;
  const FaultPlan a(1, spec);
  const FaultPlan b(2, spec);
  int differing = 0;
  for (int64_t task = 0; task < 64; ++task) {
    if (a.Decide("j", TaskPhase::kMap, task, 1).fail_stop !=
        b.Decide("j", TaskPhase::kMap, task, 1).fail_stop) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0) << "seed must enter the decision hash";
  // Attempts get independent coins: a failed first attempt's retry is not
  // doomed to the same fate.
  int retry_survives = 0;
  for (int64_t task = 0; task < 64; ++task) {
    if (a.Decide("j", TaskPhase::kMap, task, 1).fail_stop &&
        !a.Decide("j", TaskPhase::kMap, task, 2).fail_stop) {
      ++retry_survives;
    }
  }
  EXPECT_GT(retry_survives, 0);
}

TEST(FaultPlanDecideTest, InertAndDisabledInjectNothing) {
  for (const FaultPlan& plan : {FaultPlan(), FaultPlan::Disabled()}) {
    EXPECT_FALSE(plan.active());
    const FaultDecision d = plan.Decide("j", TaskPhase::kMap, 0, 1);
    EXPECT_FALSE(d.failed());
    EXPECT_DOUBLE_EQ(d.slowdown, 1.0);
  }
  EXPECT_TRUE(FaultPlan::Disabled().disabled());
  EXPECT_FALSE(FaultPlan().disabled());
}

TEST(FaultPlanDecideTest, EffectivePlanHonorsExplicitAndDisabled) {
  // These assertions hold whether or not DWM_FAULTS is set for the process
  // (the CI fault leg runs this suite with it set).
  FaultSpec spec;
  spec.map_failure_rate = 0.5;
  const FaultPlan explicit_plan(9, spec);
  EXPECT_TRUE(EffectiveFaultPlan(explicit_plan).active());
  EXPECT_EQ(EffectiveFaultPlan(explicit_plan).seed(), 9u);
  EXPECT_FALSE(EffectiveFaultPlan(FaultPlan::Disabled()).active());
}

// ---------------------------------------------------------------------------
// ClusterConfig::Validate — misconfiguration becomes a Status, not an abort.
// ---------------------------------------------------------------------------

TEST(ClusterValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(ClusterConfig().Validate().ok());
}

TEST(ClusterValidateTest, EachBadKnobNamesItself) {
  const auto expect_bad = [](ClusterConfig config, const std::string& token) {
    const Status status = config.Validate();
    ASSERT_FALSE(status.ok()) << token;
    EXPECT_NE(status.ToString().find(token), std::string::npos)
        << status.ToString();
  };
  ClusterConfig c;
  c.map_slots = 0;
  expect_bad(c, "map_slots");
  c = ClusterConfig();
  c.reduce_slots = -1;
  expect_bad(c, "reduce_slots");
  c = ClusterConfig();
  c.network_bytes_per_second = 0.0;
  expect_bad(c, "network_bytes_per_second");
  c = ClusterConfig();
  c.storage_bytes_per_second = -1.0;
  expect_bad(c, "storage_bytes_per_second");
  c = ClusterConfig();
  c.compute_scale = 0.0;
  expect_bad(c, "compute_scale");
  c = ClusterConfig();
  c.task_startup_seconds = -0.5;
  expect_bad(c, "task_startup_seconds");
  c = ClusterConfig();
  c.job_overhead_seconds = -1.0;
  expect_bad(c, "job_overhead_seconds");
  c = ClusterConfig();
  c.max_task_attempts = 0;
  expect_bad(c, "max_task_attempts");
  c = ClusterConfig();
  c.worker_threads = -2;
  expect_bad(c, "worker_threads");
  c = ClusterConfig();
  c.speculative_slowness_threshold = 0.5;
  expect_bad(c, "speculative_slowness_threshold");
  // Zero overheads and a zero threshold (speculation off) are legal.
  c = ClusterConfig();
  c.task_startup_seconds = 0.0;
  c.job_overhead_seconds = 0.0;
  c.speculative_slowness_threshold = 0.0;
  EXPECT_TRUE(c.Validate().ok());
}

// ---------------------------------------------------------------------------
// Attempt-aware scheduling.
// ---------------------------------------------------------------------------

TaskExecution CleanTask(double seconds) {
  TaskExecution t;
  t.attempts.push_back({seconds, 1.0, false, false});
  return t;
}

TEST(ScheduleAttemptsTest, CleanHistoriesMatchScheduleMakespan) {
  const std::vector<double> seconds = {1.0, 2.0, 3.0, 0.5};
  std::vector<TaskExecution> tasks;
  for (double s : seconds) tasks.push_back(CleanTask(s));
  for (int slots : {1, 2, 3, 10}) {
    const RecoverySchedule sched =
        ScheduleMakespanAttempts(tasks, slots, /*slowness_threshold=*/1.5);
    EXPECT_DOUBLE_EQ(sched.makespan_seconds, ScheduleMakespan(seconds, slots))
        << slots << " slots";
    EXPECT_EQ(sched.speculative_backups, 0);
  }
}

TEST(ScheduleAttemptsTest, EmptyTasksAndNegativeSecondsAreHarmless) {
  EXPECT_DOUBLE_EQ(ScheduleMakespanAttempts({}, 4, 1.5).makespan_seconds, 0.0);
  // Clock jitter can hand the scheduler a (tiny) negative measurement; it
  // must clamp, not propagate a negative makespan.
  TaskExecution bad;
  bad.attempts.push_back({-5.0, 1.0, false, false});
  const RecoverySchedule sched = ScheduleMakespanAttempts({bad}, 1, 1.5);
  EXPECT_DOUBLE_EQ(sched.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(ScheduleMakespan({-1.0, 2.0}, 1), 2.0);
}

TEST(ScheduleAttemptsTest, FailedAttemptOccupiesSlotAndRequeues) {
  // One task: a failure observed at t=1, then a 2s committed retry. The
  // retry cannot start before the failure is observed, so even with spare
  // slots the makespan is 3.
  TaskExecution task;
  task.attempts.push_back({1.0, 1.0, true, false});
  task.attempts.push_back({2.0, 1.0, false, false});
  for (int slots : {1, 2, 4}) {
    EXPECT_DOUBLE_EQ(
        ScheduleMakespanAttempts({task}, slots, 1.5).makespan_seconds, 3.0)
        << slots << " slots";
  }
  // A second clean 1s task fills the gap when a slot is free.
  const RecoverySchedule two =
      ScheduleMakespanAttempts({task, CleanTask(1.0)}, 2, 1.5);
  EXPECT_DOUBLE_EQ(two.makespan_seconds, 3.0);
}

TEST(ScheduleAttemptsTest, SpeculativeBackupRacesAndWins) {
  // A 4x straggler whose fault-free time is 1s: declared slow at t=1.5, the
  // backup runs 1.5..2.5 and beats the original's t=4 finish.
  TaskExecution task;
  task.attempts.push_back({4.0, 4.0, false, false});
  const RecoverySchedule with_spare =
      ScheduleMakespanAttempts({task}, /*slots=*/2, /*slowness_threshold=*/1.5);
  EXPECT_DOUBLE_EQ(with_spare.makespan_seconds, 2.5);
  EXPECT_EQ(with_spare.speculative_backups, 1);
  // No spare slot: the straggler just runs out.
  const RecoverySchedule one_slot = ScheduleMakespanAttempts({task}, 1, 1.5);
  EXPECT_DOUBLE_EQ(one_slot.makespan_seconds, 4.0);
  EXPECT_EQ(one_slot.speculative_backups, 0);
  // Speculation off (threshold 0): same as one slot.
  const RecoverySchedule off = ScheduleMakespanAttempts({task}, 2, 0.0);
  EXPECT_DOUBLE_EQ(off.makespan_seconds, 4.0);
  EXPECT_EQ(off.speculative_backups, 0);
}

TEST(ScheduleAttemptsTest, BackupNotLaunchedWhenItCannotWin) {
  // A 1.6x straggler: declared slow at t=1.5, backup would finish at 2.5 —
  // later than the original's 1.6. The scheduler must not launch it.
  TaskExecution task;
  task.attempts.push_back({1.6, 1.6, false, false});
  const RecoverySchedule sched = ScheduleMakespanAttempts({task}, 2, 1.5);
  EXPECT_DOUBLE_EQ(sched.makespan_seconds, 1.6);
  EXPECT_EQ(sched.speculative_backups, 0);
}

TEST(ScheduleAttemptsTest, RescheduleJobRederivesFromAttemptHistories) {
  JobStats job;
  job.name = "recovery";
  job.shuffle_bytes = 200;
  // Task 0 fails once (1s) then commits (2s); task 1 is a clean 4x
  // straggler (4s, base 1s); task 2 is clean.
  TaskExecution t0;
  t0.attempts.push_back({1.0, 1.0, true, false});
  t0.attempts.push_back({2.0, 1.0, false, false});
  TaskExecution t1;
  t1.attempts.push_back({4.0, 4.0, false, false});
  job.map_attempts = {t0, t1, CleanTask(1.0)};

  ClusterConfig config;
  config.network_bytes_per_second = 100.0;
  config.job_overhead_seconds = 7.0;
  config.speculative_slowness_threshold = 1.5;

  config.map_slots = 1;
  const JobStats serial = RescheduleJob(job, config);
  // Serial: 1 (failure) + 2 (retry) + 4 (straggler, no spare slot) + 1 = 8.
  EXPECT_DOUBLE_EQ(serial.map_makespan_seconds, 8.0);
  EXPECT_EQ(serial.speculative_backups, 0);
  EXPECT_DOUBLE_EQ(serial.shuffle_seconds, 2.0);
  EXPECT_DOUBLE_EQ(serial.job_overhead_seconds, 7.0);

  config.map_slots = 4;
  const JobStats wide = RescheduleJob(job, config);
  // Wide: task 0 finishes at 3; the straggler is declared slow at 1.5 and
  // its backup finishes at 2.5; makespan 3, one backup launched.
  EXPECT_DOUBLE_EQ(wide.map_makespan_seconds, 3.0);
  EXPECT_EQ(wide.speculative_backups, 1);
}

// ---------------------------------------------------------------------------
// Strict DWM_THREADS parsing.
// ---------------------------------------------------------------------------

TEST(ResolveWorkerThreadsStrictTest, MalformedEnvFallsBackToAuto) {
  ASSERT_EQ(unsetenv("DWM_THREADS"), 0);
  const int auto_threads = ResolveWorkerThreads(0);
  ASSERT_GE(auto_threads, 1);
  ASSERT_EQ(setenv("DWM_THREADS", "16", 1), 0);
  EXPECT_EQ(ResolveWorkerThreads(0), 16);
  // Garbage must not be misread as its numeric prefix (or as 0): each of
  // these warns (once) and uses auto.
  for (const char* bad : {"abc", "-3", "0x10", "16abc", " 8", "8 ", "++2"}) {
    ASSERT_EQ(setenv("DWM_THREADS", bad, 1), 0);
    EXPECT_EQ(ResolveWorkerThreads(0), auto_threads) << "'" << bad << "'";
  }
  // "0" is the documented explicit-auto spelling.
  ASSERT_EQ(setenv("DWM_THREADS", "0", 1), 0);
  EXPECT_EQ(ResolveWorkerThreads(0), auto_threads);
  // An explicit config value always wins over the env.
  ASSERT_EQ(setenv("DWM_THREADS", "16", 1), 0);
  EXPECT_EQ(ResolveWorkerThreads(3), 3);
  ASSERT_EQ(unsetenv("DWM_THREADS"), 0);
}

// ---------------------------------------------------------------------------
// RunJobOr under injected faults: the headline determinism invariant.
// ---------------------------------------------------------------------------

struct FaultRun {
  Status status;
  std::vector<std::pair<int64_t, std::vector<int64_t>>> output;
  JobStats stats;
  int reduce_calls = 0;
};

// The representative job from mr_parallel_test (keys folded mod 97,
// partitioner, several reducers, value order exposed in the output), run
// through RunJobOr under an explicit fault plan.
FaultRun RunFaultyJob(const FaultPlan& plan, int worker_threads,
                      int max_task_attempts = 8,
                      const std::string& name = "faulty") {
  using Split = std::vector<int64_t>;
  std::vector<Split> splits;
  for (int64_t task = 0; task < 16; ++task) {
    Split split;
    for (int64_t i = 0; i < 200; ++i) {
      split.push_back((task * 977 + i * 131) % 1000);
    }
    splits.push_back(std::move(split));
  }

  FaultRun run;
  JobSpec<Split, int64_t, int64_t, std::pair<int64_t, std::vector<int64_t>>>
      spec;
  spec.name = name;
  spec.num_reducers = 5;
  spec.map = [](int64_t task, const Split& split, const auto& emit) {
    for (int64_t v : split) emit(v % 97, v * 3 + task);
  };
  spec.partition = [](const int64_t& key) {
    return static_cast<int>((key / 7) % 5);
  };
  spec.split_bytes = [](const Split& split) {
    return static_cast<double>(split.size()) * 8.25;
  };
  // Reducers run concurrently (job-author contract), so the call tally
  // must be atomic; it lands in the plain struct field after the join.
  std::atomic<int> reduce_calls{0};
  spec.reduce = [&reduce_calls](
                    const int64_t& key, std::vector<int64_t>& values,
                    std::vector<std::pair<int64_t, std::vector<int64_t>>>*
                        out) {
    reduce_calls.fetch_add(1, std::memory_order_relaxed);
    out->push_back({key, values});
  };

  ClusterConfig config;
  config.worker_threads = worker_threads;
  config.max_task_attempts = max_task_attempts;
  config.faults = plan;
  run.status = RunJobOr(spec, splits, config, &run.output, &run.stats);
  run.reduce_calls = reduce_calls.load();
  return run;
}

void ExpectMatchesBaseline(const FaultRun& run, const FaultRun& baseline,
                           const std::string& label) {
  ASSERT_TRUE(run.status.ok()) << label << ": " << run.status.ToString();
  EXPECT_EQ(run.output, baseline.output) << label;
  EXPECT_EQ(run.stats.shuffle_bytes, baseline.stats.shuffle_bytes) << label;
  EXPECT_EQ(run.stats.shuffle_records, baseline.stats.shuffle_records)
      << label;
  EXPECT_EQ(run.stats.input_bytes, baseline.stats.input_bytes) << label;
  EXPECT_EQ(run.stats.output_records, baseline.stats.output_records) << label;
  EXPECT_EQ(run.stats.map_tasks, baseline.stats.map_tasks) << label;
  EXPECT_EQ(run.stats.reduce_tasks, baseline.stats.reduce_tasks) << label;
}

TEST(FaultRecoveryTest, FaultFreeRunHasNoFaultAccounting) {
  const FaultRun baseline = RunFaultyJob(FaultPlan::Disabled(), 1);
  ASSERT_TRUE(baseline.status.ok());
  EXPECT_GT(baseline.stats.shuffle_records, 0);
  EXPECT_EQ(baseline.stats.task_attempts, 0);
  EXPECT_EQ(baseline.stats.failed_attempts, 0);
  EXPECT_EQ(baseline.stats.node_loss_kills, 0);
  EXPECT_EQ(baseline.stats.straggler_attempts, 0);
  EXPECT_EQ(baseline.stats.speculative_backups, 0);
  // One committed attempt per task in the histories.
  ASSERT_EQ(baseline.stats.map_attempts.size(), 16u);
  for (const TaskExecution& task : baseline.stats.map_attempts) {
    ASSERT_EQ(task.attempts.size(), 1u);
    EXPECT_FALSE(task.attempts[0].failed);
  }
}

TEST(FaultRecoveryTest, RetryableFailuresAreByteIdentical) {
  const FaultRun baseline = RunFaultyJob(FaultPlan::Disabled(), 1);
  FaultSpec spec;
  spec.map_failure_rate = 0.3;
  spec.reduce_failure_rate = 0.3;
  const FaultPlan plan(/*seed=*/5, spec);
  for (const int worker_threads : {1, 8}) {
    const FaultRun run = RunFaultyJob(plan, worker_threads);
    ExpectMatchesBaseline(run, baseline,
                          "failures@" + std::to_string(worker_threads));
    EXPECT_GT(run.stats.failed_attempts, 0);
    EXPECT_GT(run.stats.task_attempts,
              run.stats.map_tasks + run.stats.reduce_tasks);
    EXPECT_EQ(run.stats.node_loss_kills, 0);
    // Duration stats count each task once, at its committed attempt: the
    // failed attempts occupy slots but are not task durations.
    const DurationStats map_stats =
        PhaseDurationStats(run.stats, TaskPhase::kMap);
    EXPECT_EQ(map_stats.count, run.stats.map_tasks);
    size_t map_attempts = 0;
    double committed_total = 0.0;
    for (const TaskExecution& task : run.stats.map_attempts) {
      map_attempts += task.attempts.size();
      committed_total += task.attempts.back().seconds;
    }
    EXPECT_GT(map_attempts, run.stats.map_attempts.size());  // maps retried
    // Summed in another order than TaskDurationStats sums, hence NEAR.
    EXPECT_NEAR(map_stats.total_seconds, committed_total,
                1e-9 * committed_total);
    // The injected fault pattern replays identically at any thread count
    // (per-attempt seconds are *measured* and so jitter; the decisions and
    // the attempt structure may not).
    const FaultRun serial = RunFaultyJob(plan, 1);
    EXPECT_EQ(run.stats.failed_attempts, serial.stats.failed_attempts);
    ASSERT_EQ(run.stats.map_attempts.size(),
              serial.stats.map_attempts.size());
    for (size_t t = 0; t < run.stats.map_attempts.size(); ++t) {
      const auto& a = run.stats.map_attempts[t].attempts;
      const auto& b = serial.stats.map_attempts[t].attempts;
      ASSERT_EQ(a.size(), b.size()) << "task " << t;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].failed, b[i].failed);
        EXPECT_EQ(a[i].node_lost, b[i].node_lost);
        EXPECT_DOUBLE_EQ(a[i].slowdown, b[i].slowdown);
      }
    }
  }
}

TEST(FaultRecoveryTest, StragglersAndSpeculationAreByteIdentical) {
  const FaultRun baseline = RunFaultyJob(FaultPlan::Disabled(), 1);
  FaultSpec spec;
  spec.straggler_rate = 0.5;
  spec.straggler_slowdown = 8.0;
  const FaultPlan plan(/*seed=*/3, spec);
  for (const int worker_threads : {1, 8}) {
    const FaultRun run = RunFaultyJob(plan, worker_threads);
    ExpectMatchesBaseline(run, baseline,
                          "stragglers@" + std::to_string(worker_threads));
    EXPECT_GT(run.stats.straggler_attempts, 0);
    // An 8x straggler against the default 1.5x threshold always admits a
    // winning backup on the 40-slot default cluster.
    EXPECT_GT(run.stats.speculative_backups, 0);
    EXPECT_EQ(run.stats.failed_attempts, 0);
    // Speculation shortens the modeled makespan versus letting the
    // stragglers run out.
    const RecoverySchedule no_spec = ScheduleMakespanAttempts(
        run.stats.map_attempts, /*slots=*/40, /*slowness_threshold=*/0.0);
    EXPECT_LT(run.stats.map_makespan_seconds, no_spec.makespan_seconds);
  }
}

TEST(FaultRecoveryTest, NodeLossIsByteIdentical) {
  const FaultRun baseline = RunFaultyJob(FaultPlan::Disabled(), 1);
  FaultSpec spec;
  spec.node_loss_rate = 0.5;
  spec.num_nodes = 4;
  const FaultPlan plan(/*seed=*/1, spec);
  for (const int worker_threads : {1, 8}) {
    const FaultRun run = RunFaultyJob(plan, worker_threads);
    ExpectMatchesBaseline(run, baseline,
                          "node-loss@" + std::to_string(worker_threads));
    EXPECT_GT(run.stats.node_loss_kills, 0);
    EXPECT_EQ(run.stats.node_loss_kills, run.stats.failed_attempts);
  }
}

TEST(FaultRecoveryTest, MapRetryExhaustionReturnsStatusNotAbort) {
  FaultSpec spec;
  spec.map_failure_rate = 1.0;
  const FaultRun run =
      RunFaultyJob(FaultPlan(1, spec), /*worker_threads=*/4,
                   /*max_task_attempts=*/3, /*name=*/"doomed_map");
  ASSERT_FALSE(run.status.ok());
  const std::string message = run.status.ToString();
  EXPECT_NE(message.find("doomed_map"), std::string::npos) << message;
  EXPECT_NE(message.find("map task"), std::string::npos) << message;
  EXPECT_NE(message.find("3 attempts"), std::string::npos) << message;
  EXPECT_TRUE(run.output.empty());
  EXPECT_EQ(run.reduce_calls, 0);
  // Every map task burned its full attempt budget.
  EXPECT_EQ(run.stats.task_attempts, 16 * 3);
  EXPECT_EQ(run.stats.failed_attempts, 16 * 3);
}

TEST(FaultRecoveryTest, ReduceRetryExhaustionRunsNoReducer) {
  FaultSpec spec;
  spec.reduce_failure_rate = 1.0;
  const FaultRun run =
      RunFaultyJob(FaultPlan(1, spec), /*worker_threads=*/4,
                   /*max_task_attempts=*/3, /*name=*/"doomed_reduce");
  ASSERT_FALSE(run.status.ok());
  const std::string message = run.status.ToString();
  EXPECT_NE(message.find("doomed_reduce"), std::string::npos) << message;
  EXPECT_NE(message.find("reduce task"), std::string::npos) << message;
  // Reducers hold non-idempotent driver-side captures, so a doomed job must
  // abort before running any of them.
  EXPECT_EQ(run.reduce_calls, 0);
  EXPECT_TRUE(run.output.empty());
}

TEST(FaultRecoveryTest, ReduceFailuresRecoverWithIdenticalOutput) {
  const FaultRun baseline = RunFaultyJob(FaultPlan::Disabled(), 1);
  FaultSpec spec;
  spec.reduce_failure_rate = 0.4;
  const FaultPlan plan(/*seed=*/3, spec);
  const FaultRun run = RunFaultyJob(plan, 4);
  ExpectMatchesBaseline(run, baseline, "reduce-failures");
  EXPECT_GT(run.stats.failed_attempts, 0);
  // The reduce closure ran exactly once per reducer despite the retries
  // (failed reduce attempts are cost-modeled, not re-executed).
  EXPECT_EQ(run.reduce_calls, baseline.reduce_calls);
}

// ---------------------------------------------------------------------------
// Dist-layer propagation: drivers surface the failing job's name and keep
// producing byte-identical synopses under recoverable fault plans.
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, DistDriversSurfaceFailingJobName) {
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  FaultSpec spec;
  spec.map_failure_rate = 1.0;
  ClusterConfig cluster;
  cluster.faults = FaultPlan(1, spec);

  DGreedyOptions options;
  options.budget = 32;
  options.base_leaves = 128;
  const DGreedyResult greedy = DGreedyAbs(data, options, cluster);
  ASSERT_FALSE(greedy.status.ok());
  EXPECT_NE(greedy.status.ToString().find("dgreedyabs_transform"),
            std::string::npos)
      << greedy.status.ToString();
  // The report covers only jobs that ran (the failed one included).
  ASSERT_EQ(greedy.report.total_jobs(), 1);
  EXPECT_GT(greedy.report.jobs[0].failed_attempts, 0);

  const DistSynopsisResult con = RunCon(data, 32, 128, cluster);
  ASSERT_FALSE(con.status.ok());
  EXPECT_NE(con.status.ToString().find("'con'"), std::string::npos)
      << con.status.ToString();
}

TEST(FaultRecoveryTest, DistSynopsisIdenticalUnderRecoverableFaults) {
  const std::vector<double> data = MakeUniform(1 << 12, 1000.0, 7);
  DGreedyOptions options;
  options.budget = 64;
  options.base_leaves = 256;

  ClusterConfig clean;
  clean.faults = FaultPlan::Disabled();
  const DGreedyResult base = DGreedyAbs(data, options, clean);
  ASSERT_TRUE(base.status.ok());

  FaultPlan plan;
  ASSERT_TRUE(
      FaultPlan::Parse("7:fail=0.2,straggle=0.3,slowdown=4", &plan).ok());
  ClusterConfig faulty;
  faulty.faults = plan;
  const DGreedyResult run = DGreedyAbs(data, options, faulty);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.synopsis.coefficients(), base.synopsis.coefficients());
  EXPECT_DOUBLE_EQ(run.estimated_error, base.estimated_error);
  EXPECT_EQ(run.report.total_shuffle_bytes(),
            base.report.total_shuffle_bytes());
  int64_t failed = 0;
  for (const JobStats& job : run.report.jobs) failed += job.failed_attempts;
  EXPECT_GT(failed, 0);
}

TEST(FaultRecoveryTest, RunJobOrRejectsInvalidConfigWithStatus) {
  ClusterConfig config;
  config.map_slots = 0;
  using Split = std::vector<int64_t>;
  JobSpec<Split, int64_t, int64_t, std::pair<int64_t, std::vector<int64_t>>>
      spec;
  spec.name = "invalid_config";
  spec.num_reducers = 1;
  spec.map = [](int64_t, const Split&, const auto&) {};
  spec.reduce = [](const int64_t&, std::vector<int64_t>&,
                   std::vector<std::pair<int64_t, std::vector<int64_t>>>*) {};
  std::vector<std::pair<int64_t, std::vector<int64_t>>> output;
  JobStats stats;
  const Status status =
      RunJobOr(spec, std::vector<Split>{{1, 2}}, config, &output, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("map_slots"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace dwm::mr
