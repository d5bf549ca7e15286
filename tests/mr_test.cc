#include "mr/job.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "mr/cluster.h"
#include "mr/trace.h"

namespace dwm::mr {
namespace {

struct NoCtx {};

TEST(BytesTest, ScalarRoundtrip) {
  ByteBuffer buf;
  Serde<int32_t>::Put(buf, -7);
  Serde<int64_t>::Put(buf, int64_t{1} << 40);
  Serde<uint64_t>::Put(buf, ~uint64_t{0});
  Serde<double>::Put(buf, 3.25);
  ByteReader r(buf);
  EXPECT_EQ(Serde<int32_t>::Get(r), -7);
  EXPECT_EQ(Serde<int64_t>::Get(r), int64_t{1} << 40);
  EXPECT_EQ(Serde<uint64_t>::Get(r), ~uint64_t{0});
  EXPECT_DOUBLE_EQ(Serde<double>::Get(r), 3.25);
  EXPECT_TRUE(r.Done());
}

TEST(BytesTest, CompositeRoundtrip) {
  ByteBuffer buf;
  const std::pair<int64_t, std::string> p = {42, "hello"};
  const std::vector<double> v = {1.0, -2.5, 0.0};
  Serde<std::pair<int64_t, std::string>>::Put(buf, p);
  Serde<std::vector<double>>::Put(buf, v);
  ByteReader r(buf);
  EXPECT_EQ((Serde<std::pair<int64_t, std::string>>::Get(r)), p);
  EXPECT_EQ(Serde<std::vector<double>>::Get(r), v);
  EXPECT_TRUE(r.Done());
}

TEST(BytesTest, SizesAreExact) {
  ByteBuffer buf;
  Serde<int32_t>::Put(buf, 1);
  EXPECT_EQ(buf.size(), 4u);
  Serde<double>::Put(buf, 1.0);
  EXPECT_EQ(buf.size(), 12u);
}

TEST(ClusterTest, MakespanSingleSlotIsSum) {
  EXPECT_DOUBLE_EQ(ScheduleMakespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(ClusterTest, MakespanManySlots) {
  EXPECT_DOUBLE_EQ(ScheduleMakespan({1.0, 2.0, 3.0}, 3), 3.0);
  EXPECT_DOUBLE_EQ(ScheduleMakespan({1.0, 2.0, 3.0}, 10), 3.0);
}

TEST(ClusterTest, MakespanWaves) {
  // Four unit tasks on two slots -> two waves.
  EXPECT_DOUBLE_EQ(ScheduleMakespan({1, 1, 1, 1}, 2), 2.0);
  // FIFO: long task first packs better.
  EXPECT_DOUBLE_EQ(ScheduleMakespan({3, 1, 1, 1}, 2), 3.0);
}

TEST(ClusterTest, EmptyTasks) { EXPECT_DOUBLE_EQ(ScheduleMakespan({}, 4), 0.0); }

TEST(ClusterTest, HalvingSlotsRoughlyDoublesTime) {
  std::vector<double> tasks(40, 1.0);
  const double t40 = ScheduleMakespan(tasks, 40);
  const double t20 = ScheduleMakespan(tasks, 20);
  const double t10 = ScheduleMakespan(tasks, 10);
  EXPECT_DOUBLE_EQ(t20, 2.0 * t40);
  EXPECT_DOUBLE_EQ(t10, 2.0 * t20);
}

TEST(ClusterTest, RescheduleReportRecomputesModeledQuantities) {
  const auto clean = [](double seconds) {
    TaskExecution task;
    task.attempts.push_back({seconds, 1.0, false, false});
    return task;
  };
  JobStats job;
  job.name = "j";
  job.map_attempts.assign(4, clean(1.0));
  job.reduce_attempts = {clean(2.0)};
  job.shuffle_bytes = 100;
  job.map_makespan_seconds = 1.0;  // four tasks on four slots
  job.reduce_makespan_seconds = 2.0;
  job.shuffle_seconds = 100.0 / 100.0e6;
  job.job_overhead_seconds = 6.0;
  SimReport report;
  report.AddDriverSpan("setup", 1.0);
  report.jobs.push_back(job);
  report.AddDriverSpan("genRootSets", 2.0);

  ClusterConfig halved;
  halved.map_slots = 2;
  halved.reduce_slots = 1;
  halved.network_bytes_per_second = 50.0;
  halved.job_overhead_seconds = 9.0;
  const SimReport re = RescheduleReport(report, halved);
  EXPECT_DOUBLE_EQ(re.jobs[0].map_makespan_seconds, 2.0);  // two waves
  EXPECT_DOUBLE_EQ(re.jobs[0].reduce_makespan_seconds, 2.0);
  EXPECT_EQ(re.jobs[0].shuffle_bytes, 100);
  // Regression: shuffle and overhead times must follow the *new* config,
  // not echo the original run's values.
  EXPECT_DOUBLE_EQ(re.jobs[0].shuffle_seconds, 2.0);  // 100 B at 50 B/s
  EXPECT_DOUBLE_EQ(re.jobs[0].job_overhead_seconds, 9.0);
  // Measured per-task times are carried over untouched.
  EXPECT_EQ(CommittedTaskSeconds(re.jobs[0], TaskPhase::kMap),
            CommittedTaskSeconds(job, TaskPhase::kMap));
  EXPECT_EQ(CommittedTaskSeconds(re.jobs[0], TaskPhase::kReduce),
            CommittedTaskSeconds(job, TaskPhase::kReduce));
  // Driver work is measured too: the named spans carry over with their
  // positions, still summing to driver_seconds (regression: the spans were
  // dropped, so a trace showed all driver work as unattributed).
  EXPECT_DOUBLE_EQ(re.driver_seconds, 3.0);
  ASSERT_EQ(re.driver_spans.size(), 2u);
  EXPECT_EQ(re.driver_spans[0].name, "setup");
  EXPECT_EQ(re.driver_spans[0].after_job, 0);
  EXPECT_EQ(re.driver_spans[1].name, "genRootSets");
  EXPECT_EQ(re.driver_spans[1].after_job, 1);
  EXPECT_DOUBLE_EQ(re.driver_spans[0].seconds + re.driver_spans[1].seconds,
                   re.driver_seconds);
}

TEST(JobTest, WordCount) {
  // Classic smoke test: splits of words, count occurrences.
  using Split = std::vector<std::string>;
  const std::vector<Split> splits = {
      {"a", "b", "a"}, {"b", "c"}, {"a", "c", "c", "c"}};
  JobSpec<NoCtx, Split, std::string, int64_t, std::pair<std::string, int64_t>>
      spec;
  spec.name = "wordcount";
  spec.num_reducers = 2;
  spec.map = [](const NoCtx&, int64_t, const Split& split, const auto& emit) {
    for (const std::string& w : split) emit(w, 1);
  };
  spec.reduce = [](const NoCtx&, const std::string& key,
                   std::vector<int64_t>& values,
                   std::vector<std::pair<std::string, int64_t>>* out) {
    int64_t total = 0;
    for (int64_t v : values) total += v;
    out->push_back({key, total});
  };
  JobStats stats;
  std::vector<std::pair<std::string, int64_t>> out;
  ASSERT_TRUE(
      RunJobOr(spec, NoCtx{}, splits, ClusterConfig{}, out, stats).ok());
  std::map<std::string, int64_t> counts(out.begin(), out.end());
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 4);
  EXPECT_EQ(stats.map_tasks, 3);
  EXPECT_EQ(stats.reduce_tasks, 2);
  EXPECT_EQ(stats.shuffle_records, 9);
  EXPECT_GT(stats.shuffle_bytes, 0);
  EXPECT_EQ(stats.output_records, 3);
  EXPECT_GT(stats.sim_seconds(), 0.0);
}

TEST(JobTest, ReducerSeesKeysSorted) {
  using Split = std::vector<int64_t>;
  const std::vector<Split> splits = {{5, 1, 9}, {3, 7}};
  JobSpec<NoCtx, Split, int64_t, int64_t, int64_t> spec;
  spec.name = "sorted";
  spec.num_reducers = 1;
  spec.map = [](const NoCtx&, int64_t, const Split& split, const auto& emit) {
    for (int64_t v : split) emit(v, v);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key, std::vector<int64_t>&,
                   std::vector<int64_t>* out) {
    out->push_back(key);
  };
  JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(
      RunJobOr(spec, NoCtx{}, splits, ClusterConfig{}, out, stats).ok());
  EXPECT_EQ(out, (std::vector<int64_t>{1, 3, 5, 7, 9}));
}

TEST(JobTest, CustomPartitionRoutesKeys) {
  using Split = int64_t;
  const std::vector<Split> splits = {0};
  JobSpec<NoCtx, Split, int64_t, int64_t, std::pair<int64_t, int64_t>> spec;
  spec.name = "partition";
  spec.num_reducers = 3;
  spec.map = [](const NoCtx&, int64_t, const Split&, const auto& emit) {
    for (int64_t k = 0; k < 9; ++k) emit(k, k);
  };
  // Reducer r gets keys with k % 3 == r; tag outputs with the reducer order.
  spec.partition = [](const NoCtx&, const int64_t& k) {
    return static_cast<int>(k % 3);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key, std::vector<int64_t>&,
                   std::vector<std::pair<int64_t, int64_t>>* out) {
    out->push_back({key % 3, key});
  };
  JobStats stats;
  std::vector<std::pair<int64_t, int64_t>> out;
  ASSERT_TRUE(
      RunJobOr(spec, NoCtx{}, splits, ClusterConfig{}, out, stats).ok());
  // Outputs arrive reducer by reducer: all %3==0 keys first, then 1, then 2.
  ASSERT_EQ(out.size(), 9u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, static_cast<int64_t>(i / 3));
  }
}

TEST(JobTest, ValuesGroupedPerKeyInArrivalOrder) {
  using Split = std::pair<int64_t, int64_t>;  // (key, value)
  const std::vector<Split> splits = {{1, 10}, {1, 20}, {2, 5}, {1, 30}};
  JobSpec<NoCtx, Split, int64_t, int64_t,
          std::pair<int64_t, std::vector<int64_t>>>
      spec;
  spec.name = "group";
  spec.num_reducers = 1;
  spec.map = [](const NoCtx&, int64_t, const Split& s, const auto& emit) {
    emit(s.first, s.second);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key,
                   std::vector<int64_t>& values,
                   std::vector<std::pair<int64_t, std::vector<int64_t>>>* out) {
    out->push_back({key, values});
  };
  JobStats stats;
  std::vector<std::pair<int64_t, std::vector<int64_t>>> out;
  ASSERT_TRUE(
      RunJobOr(spec, NoCtx{}, splits, ClusterConfig{}, out, stats).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[0].second, (std::vector<int64_t>{10, 20, 30}));
  EXPECT_EQ(out[1].first, 2);
  EXPECT_EQ(out[1].second, (std::vector<int64_t>{5}));
}

TEST(JobTest, SplitBytesFeedStorageCost) {
  using Split = int64_t;
  JobSpec<NoCtx, Split, int64_t, int64_t, int64_t> spec;
  spec.name = "io";
  spec.num_reducers = 1;
  spec.map = [](const NoCtx&, int64_t, const Split&, const auto&) {};
  spec.reduce = [](const NoCtx&, const int64_t&, std::vector<int64_t>&,
                   std::vector<int64_t>*) {};
  // 1s at the default bandwidth.
  spec.split_bytes = [](const NoCtx&, const Split&) { return 400.0e6; };
  ClusterConfig config;
  config.task_startup_seconds = 0.0;
  config.job_overhead_seconds = 0.0;
  JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(RunJobOr(spec, NoCtx{}, std::vector<Split>{0, 1}, config, out,
                       stats).ok());
  EXPECT_EQ(stats.input_bytes, 800000000);
  // Two 1-second scans on 40 slots -> makespan ~1s.
  EXPECT_NEAR(stats.map_makespan_seconds, 1.0, 0.2);
}

TEST(JobTest, StatsFullyResetBetweenJobs) {
  // Regression: RunJobOr must reset a reused JobStats at entry. Accumulating
  // fields (input_bytes, shuffle totals, per-task vectors) previously
  // carried the prior job's totals into the next run.
  using Split = int64_t;
  JobSpec<NoCtx, Split, int64_t, int64_t, int64_t> spec;
  spec.name = "first";
  spec.num_reducers = 2;
  spec.map = [](const NoCtx&, int64_t, const Split&, const auto& emit) {
    for (int64_t k = 0; k < 4; ++k) emit(k, k);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key, std::vector<int64_t>&,
                   std::vector<int64_t>* out) {
    out->push_back(key);
  };
  spec.split_bytes = [](const NoCtx&, const Split&) { return 1000.0; };

  JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(RunJobOr(spec, NoCtx{}, std::vector<Split>{0, 1, 2},
                       ClusterConfig{}, out, stats).ok());
  const int64_t first_input = stats.input_bytes;
  const int64_t first_shuffle_bytes = stats.shuffle_bytes;
  EXPECT_EQ(first_input, 3000);
  EXPECT_EQ(stats.shuffle_records, 12);
  EXPECT_EQ(stats.map_attempts.size(), 3u);

  // Second, smaller job into the *same* stats object.
  spec.name = "second";
  ASSERT_TRUE(RunJobOr(spec, NoCtx{}, std::vector<Split>{7}, ClusterConfig{},
                       out, stats).ok());
  EXPECT_EQ(stats.name, "second");
  EXPECT_EQ(stats.map_tasks, 1);
  EXPECT_EQ(stats.input_bytes, 1000);
  EXPECT_EQ(stats.shuffle_records, 4);
  EXPECT_LT(stats.shuffle_bytes, first_shuffle_bytes);
  EXPECT_EQ(stats.map_attempts.size(), 1u);
  EXPECT_EQ(stats.reduce_attempts.size(), 2u);
  EXPECT_EQ(stats.output_records, 4);
}

TEST(JobTest, EqualKeysGroupInArrivalOrder) {
  // Values 3 and 8 (and 1 and 6) share the mod-5 key; the reducer must see
  // each key once, keys ascending, with its values in arrival order.
  using Split = std::vector<int64_t>;
  const std::vector<Split> splits = {{3, 1}, {8, 6}};
  JobSpec<NoCtx, Split, int64_t, int64_t,
          std::pair<int64_t, std::vector<int64_t>>>
      spec;
  spec.name = "mod_keys";
  spec.num_reducers = 1;
  spec.map = [](const NoCtx&, int64_t, const Split& split, const auto& emit) {
    for (int64_t v : split) emit(v % 5, v);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key,
                   std::vector<int64_t>& values,
                   std::vector<std::pair<int64_t, std::vector<int64_t>>>* out) {
    out->push_back({key, values});
  };
  JobStats stats;
  std::vector<std::pair<int64_t, std::vector<int64_t>>> out;
  ASSERT_TRUE(
      RunJobOr(spec, NoCtx{}, splits, ClusterConfig{}, out, stats).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[0].second, (std::vector<int64_t>{1, 6}));
  EXPECT_EQ(out[1].first, 3);
  EXPECT_EQ(out[1].second, (std::vector<int64_t>{3, 8}));
}

TEST(JobTest, EmptySplitsProduceEmptyOutput) {
  using Split = int64_t;
  JobSpec<NoCtx, Split, int64_t, int64_t, int64_t> spec;
  spec.name = "no_splits";
  spec.num_reducers = 3;
  spec.map = [](const NoCtx&, int64_t, const Split&, const auto& emit) {
    emit(0, 0);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key, std::vector<int64_t>&,
                   std::vector<int64_t>* out) {
    out->push_back(key);
  };
  JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(RunJobOr(spec, NoCtx{}, std::vector<Split>{}, ClusterConfig{},
                       out, stats).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.map_tasks, 0);
  EXPECT_EQ(stats.reduce_tasks, 3);
  EXPECT_EQ(stats.shuffle_records, 0);
  EXPECT_EQ(stats.shuffle_bytes, 0);
  EXPECT_EQ(stats.input_bytes, 0);
}

TEST(JobTest, MapEmittingNothingStillRunsReducers) {
  using Split = int64_t;
  JobSpec<NoCtx, Split, int64_t, int64_t, int64_t> spec;
  spec.name = "silent_maps";
  spec.num_reducers = 2;
  spec.map = [](const NoCtx&, int64_t, const Split&, const auto&) {};
  // Every call would leave an output record.
  spec.reduce = [](const NoCtx&, const int64_t& key, std::vector<int64_t>&,
                   std::vector<int64_t>* out) {
    out->push_back(key);
  };
  JobStats stats;
  std::vector<int64_t> out;
  ASSERT_TRUE(RunJobOr(spec, NoCtx{}, std::vector<Split>{0, 1, 2},
                       ClusterConfig{}, out, stats).ok());
  EXPECT_TRUE(out.empty());  // no keys, so reduce never fires
  EXPECT_EQ(stats.map_tasks, 3);
  EXPECT_EQ(stats.shuffle_records, 0);
  EXPECT_EQ(stats.reduce_attempts.size(), 2u);
}

TEST(JobTest, MoreReducersThanDistinctKeys) {
  using Split = int64_t;
  JobSpec<NoCtx, Split, int64_t, int64_t, std::pair<int64_t, int64_t>> spec;
  spec.name = "wide";
  spec.num_reducers = 16;
  spec.map = [](const NoCtx&, int64_t, const Split&, const auto& emit) {
    emit(1, 10);
    emit(2, 20);
    emit(1, 11);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key,
                   std::vector<int64_t>& values,
                   std::vector<std::pair<int64_t, int64_t>>* out) {
    int64_t total = 0;
    for (int64_t v : values) total += v;
    out->push_back({key, total});
  };
  JobStats stats;
  std::vector<std::pair<int64_t, int64_t>> out;
  ASSERT_TRUE(RunJobOr(spec, NoCtx{}, std::vector<Split>{0}, ClusterConfig{},
                       out, stats).ok());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::pair<int64_t, int64_t>>{{1, 21}, {2, 20}}));
  EXPECT_EQ(stats.reduce_tasks, 16);
  EXPECT_EQ(stats.reduce_attempts.size(), 16u);
}

TEST(JobTest, DefaultPartitionMatchesHashPartition) {
  // The engine's single-serialization fast path must route every key to
  // the reducer HashPartition names, and shuffle exactly key+value bytes.
  using Split = int64_t;
  const int kReducers = 5;
  JobSpec<NoCtx, Split, std::string, int64_t, std::pair<std::string, int64_t>>
      spec;
  spec.name = "routing";
  spec.num_reducers = kReducers;
  spec.map = [](const NoCtx&, int64_t, const Split&, const auto& emit) {
    emit("alpha", 1);
    emit("beta", 2);
    emit("gamma", 3);
  };
  spec.reduce = [](const NoCtx&, const std::string& key,
                   std::vector<int64_t>& values,
                   std::vector<std::pair<std::string, int64_t>>* out) {
    out->push_back({key, values[0]});
  };
  JobStats stats;
  std::vector<std::pair<std::string, int64_t>> out;
  ASSERT_TRUE(RunJobOr(spec, NoCtx{}, std::vector<Split>{0}, ClusterConfig{},
                       out, stats).ok());
  // Outputs arrive in reducer order; each key must sit at the reducer index
  // the public HashPartition computes for it.
  ASSERT_EQ(out.size(), 3u);
  std::map<std::string, size_t> position;
  for (size_t i = 0; i < out.size(); ++i) position[out[i].first] = i;
  const std::vector<std::string> keys = {"alpha", "beta", "gamma"};
  std::vector<std::pair<int, std::string>> expected;
  for (const std::string& key : keys) {
    expected.push_back({HashPartition<std::string>(key, kReducers), key});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i].first, expected[i].second);
  }
  // Byte accounting: each record is exactly len-prefixed key + 8-byte value.
  int64_t want_bytes = 0;
  for (const std::string& key : keys) {
    ByteBuffer buf;
    Serde<std::string>::Put(buf, key);
    Serde<int64_t>::Put(buf, 0);
    want_bytes += static_cast<int64_t>(buf.size());
  }
  EXPECT_EQ(stats.shuffle_bytes, want_bytes);
  EXPECT_EQ(stats.shuffle_records, 3);
}

// A caller's bad reducer count or partitioner is a Status, not an abort,
// and the same Status at any thread count.
JobSpec<NoCtx, int64_t, int64_t, int64_t, int64_t> IdentitySpec() {
  JobSpec<NoCtx, int64_t, int64_t, int64_t, int64_t> spec;
  spec.name = "identity";
  spec.num_reducers = 3;
  spec.map = [](const NoCtx&, int64_t, const int64_t& split, const auto& emit) {
    emit(split, split);
  };
  spec.reduce = [](const NoCtx&, const int64_t& key, std::vector<int64_t>&,
                   std::vector<int64_t>* out) {
    out->push_back(key);
  };
  return spec;
}

TEST(JobTest, NonPositiveReducerCountIsInvalidArgument) {
  JobSpec<NoCtx, int64_t, int64_t, int64_t, int64_t> spec = IdentitySpec();
  spec.num_reducers = 0;
  for (const int threads : {1, 8}) {
    ClusterConfig config;
    config.worker_threads = threads;
    JobStats stats;
    std::vector<int64_t> out = {42};
    const Status status =
        RunJobOr(spec, NoCtx{}, std::vector<int64_t>{0, 1}, config, out, stats);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << threads;
    EXPECT_EQ(status.message(),
              "job 'identity': num_reducers must be >= 1, got 0");
    EXPECT_TRUE(out.empty());
  }
}

TEST(JobTest, OutOfRangePartitionIsInvalidArgumentNamingLowestTask) {
  // Keys 3, 4 and 5 route outside [0, 3): task 3's key is the one named.
  JobSpec<NoCtx, int64_t, int64_t, int64_t, int64_t> spec = IdentitySpec();
  spec.partition = [](const NoCtx&, const int64_t& key) {
    return key < 3 ? static_cast<int>(key) : key == 3 ? -1 : 7;
  };
  for (const int threads : {1, 8}) {
    ClusterConfig config;
    config.worker_threads = threads;
    JobStats stats;
    std::vector<int64_t> out;
    const Status status = RunJobOr(spec, NoCtx{},
                                   std::vector<int64_t>{0, 1, 2, 3, 4, 5},
                                   config, out, stats);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << threads;
    EXPECT_EQ(status.message(),
              "job 'identity': map task 3: partition returned -1, outside "
              "[0, 3)");
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.map_attempts.size(), 6u);
  }
}

}  // namespace
}  // namespace dwm::mr
