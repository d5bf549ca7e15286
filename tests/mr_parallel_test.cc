// Tests for the threaded MR executor: the thread pool itself, and the
// engine's core guarantee that every job is byte-identical at every
// worker_threads setting (per-task emit buffers merged in task order,
// reducer outputs concatenated in reducer order).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "data/generators.h"
#include "dist/dcon.h"
#include "dist/dgreedy.h"
#include "mr/job.h"
#include "mr/thread_pool.h"

namespace dwm::mr {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr int64_t kCount = 4096;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kCount, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1);
  std::vector<int64_t> order;
  pool.ParallelFor(5, [&](int64_t i) { order.push_back(i); });
  // No workers: the calling thread executes indices in order.
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyCounts) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // count == 1 stays on the calling thread (helpers = count - 1 = 0), so a
  // plain int capture is safe.
  pool.ParallelFor(1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossParallelForCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadCpuStopwatchTest, MeasuresNonNegativeMonotoneTime) {
  ThreadCpuStopwatch clock;
  const double a = clock.ElapsedSeconds();
  // Burn a little CPU so the second reading can only move forward.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const double b = clock.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(ResolveWorkerThreadsTest, ExplicitValueWinsAndAutoIsPositive) {
  EXPECT_EQ(ResolveWorkerThreads(3), 3);
  EXPECT_EQ(ResolveWorkerThreads(1), 1);
  EXPECT_GE(ResolveWorkerThreads(0), 1);
}

TEST(ResolveWorkerThreadsTest, AutoHonorsDwmThreadsEnv) {
  ASSERT_EQ(setenv("DWM_THREADS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveWorkerThreads(0), 5);
  EXPECT_EQ(ResolveWorkerThreads(2), 2);  // explicit value still wins
  ASSERT_EQ(setenv("DWM_THREADS", "-4", 1), 0);
  EXPECT_GE(ResolveWorkerThreads(0), 1);  // garbage falls back to auto
  ASSERT_EQ(unsetenv("DWM_THREADS"), 0);
}

// A representative job exercising every customization point at once:
// many values per key (keys fold mod 97), custom partitioner, several
// reducers, and reducers that expose the grouped value order in their
// output.
struct RepresentativeRun {
  std::vector<std::pair<int64_t, std::vector<int64_t>>> output;
  JobStats stats;
};

RepresentativeRun RunRepresentativeJob(int worker_threads) {
  using Split = std::vector<int64_t>;
  std::vector<Split> splits;
  for (int64_t task = 0; task < 16; ++task) {
    Split split;
    for (int64_t i = 0; i < 200; ++i) {
      split.push_back((task * 977 + i * 131) % 1000);
    }
    splits.push_back(std::move(split));
  }

  JobSpec<Split, int64_t, int64_t,
          std::pair<int64_t, std::vector<int64_t>>>
      spec;
  spec.name = "representative";
  spec.num_reducers = 5;
  spec.map = [](int64_t task, const Split& split, const auto& emit) {
    for (int64_t v : split) emit(v % 97, v * 3 + task);
  };
  spec.partition = [](const int64_t& key) {
    return static_cast<int>((key / 7) % 5);
  };
  spec.split_bytes = [](const Split& split) {
    // Fractional bytes: the engine must accumulate these in double.
    return static_cast<double>(split.size()) * 8.25;
  };
  // Expose both the group's key and its values in arrival order: equality
  // of outputs then certifies per-reducer record order, not just totals.
  spec.reduce = [](const int64_t& key, std::vector<int64_t>& values,
                   std::vector<std::pair<int64_t, std::vector<int64_t>>>* out) {
    out->push_back({key, values});
  };

  ClusterConfig config;
  config.worker_threads = worker_threads;
  RepresentativeRun run;
  EXPECT_TRUE(RunJobOr(spec, splits, config, &run.output, &run.stats).ok());
  return run;
}

TEST(JobDeterminismTest, RepresentativeJobIdenticalAcrossThreadCounts) {
  const RepresentativeRun baseline = RunRepresentativeJob(1);
  EXPECT_GT(baseline.stats.shuffle_records, 0);
  // 16 tasks x 200 values x 8.25 B = 26400 B exactly; per-split int64
  // truncation would lose the fraction (16 * 0.25 * 200 = 800 B short).
  EXPECT_EQ(baseline.stats.input_bytes, 26400);
  for (const int worker_threads : {2, 8}) {
    const RepresentativeRun run = RunRepresentativeJob(worker_threads);
    EXPECT_EQ(run.output, baseline.output) << worker_threads << " threads";
    EXPECT_EQ(run.stats.shuffle_bytes, baseline.stats.shuffle_bytes);
    EXPECT_EQ(run.stats.shuffle_records, baseline.stats.shuffle_records);
    EXPECT_EQ(run.stats.input_bytes, baseline.stats.input_bytes);
    EXPECT_EQ(run.stats.output_records, baseline.stats.output_records);
    EXPECT_EQ(run.stats.map_tasks, baseline.stats.map_tasks);
    EXPECT_EQ(run.stats.reduce_tasks, baseline.stats.reduce_tasks);
    // The fault tallies are nonzero under a process-wide DWM_FAULTS plan;
    // they must not depend on the thread count either.
    EXPECT_EQ(run.stats.task_attempts, baseline.stats.task_attempts);
    EXPECT_EQ(run.stats.failed_attempts, baseline.stats.failed_attempts);
    EXPECT_EQ(run.stats.node_loss_kills, baseline.stats.node_loss_kills);
    EXPECT_EQ(run.stats.straggler_attempts,
              baseline.stats.straggler_attempts);
    EXPECT_EQ(run.stats.speculative_backups,
              baseline.stats.speculative_backups);
  }
}

TEST(JobDeterminismTest, DistributedAlgorithmsIdenticalAcrossThreadCounts) {
  const std::vector<double> data = MakeUniform(1 << 12, 1000.0, 7);

  const auto run_dgreedy = [&](int worker_threads) {
    ClusterConfig cluster;
    cluster.worker_threads = worker_threads;
    DGreedyOptions options;
    options.budget = 64;
    options.base_leaves = 256;
    return DGreedyAbs(data, options, cluster);
  };
  const DGreedyResult base = run_dgreedy(1);
  for (const int worker_threads : {2, 8}) {
    const DGreedyResult run = run_dgreedy(worker_threads);
    EXPECT_EQ(run.synopsis.coefficients(), base.synopsis.coefficients());
    EXPECT_DOUBLE_EQ(run.estimated_error, base.estimated_error);
    EXPECT_EQ(run.best_croot_size, base.best_croot_size);
    EXPECT_EQ(run.report.total_shuffle_bytes(),
              base.report.total_shuffle_bytes());
    ASSERT_EQ(run.report.jobs.size(), base.report.jobs.size());
    for (size_t j = 0; j < run.report.jobs.size(); ++j) {
      EXPECT_EQ(run.report.jobs[j].shuffle_records,
                base.report.jobs[j].shuffle_records);
    }
  }

  const auto run_con = [&](int worker_threads) {
    ClusterConfig cluster;
    cluster.worker_threads = worker_threads;
    return RunCon(data, 64, 256, cluster);
  };
  const DistSynopsisResult con_base = run_con(1);
  const DistSynopsisResult con_par = run_con(8);
  EXPECT_EQ(con_par.synopsis.coefficients(),
            con_base.synopsis.coefficients());
  EXPECT_EQ(con_par.report.total_shuffle_bytes(),
            con_base.report.total_shuffle_bytes());
}

}  // namespace
}  // namespace dwm::mr
