// Tests for the checkpointed job-chain recovery layer: the CheckpointStore
// file format (checksummed, versioned, atomic, never trusted when damaged),
// CheckpointFingerprint input binding, JobChain's job-level retry under a
// fresh fault namespace, stage resume with report/counter replay, the
// bounded bad-record quarantine, retry backoff scheduling, and the
// acceptance pin: a DGreedy/DMHS run killed by retry exhaustion at each
// stage k then resumed via the checkpoint directory produces a
// byte-identical synopsis at worker_threads {1, 8}.
//
// Every fault-free baseline uses FaultPlan::Disabled() so the suite stays
// correct when CI runs it under a process-wide DWM_FAULTS knob.
#include "mr/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/sealed_file.h"
#include "data/generators.h"
#include "dist/dcon.h"
#include "dist/dgreedy.h"
#include "dist/dindirect_haar.h"
#include "dist/dmin_haar_space.h"
#include "dist/dmin_max_var.h"
#include "dist/hwtopk.h"
#include "dist/send_coef.h"
#include "dist/send_v.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "mr/counters.h"
#include "mr/job.h"
#include "wavelet/synopsis.h"

namespace dwm::mr {

// Value type with a deliberately asymmetric wire format: a negative tag
// under-writes its frame (Put omits the payload, Get always reads it), so
// such a record reads past its framed end — exactly the shape of a
// truncated shuffle record the quarantine exists to absorb.
struct Lopsided {
  int32_t tag = 0;
  double payload = 0.0;
};

}  // namespace dwm::mr

template <>
struct dwm::Serde<dwm::mr::Lopsided> {
  static void Put(ByteBuffer& b, const mr::Lopsided& v) {
    b.PutScalar<int32_t>(v.tag);
    if (v.tag >= 0) b.PutScalar<double>(v.payload);
  }
  static mr::Lopsided Get(ByteReader& r) {
    mr::Lopsided v;
    v.tag = r.GetScalar<int32_t>();
    v.payload = r.GetScalar<double>();
    return v;
  }
};

namespace dwm::mr {

namespace {

namespace fs = std::filesystem;

// Fresh per-scenario directory under the test temp root.
std::string TestDir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dwm_pipeline_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ClusterConfig FaultFreeConfig() {
  ClusterConfig config;
  config.faults = FaultPlan::Disabled();
  return config;
}

std::vector<uint8_t> ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  return bytes;
}

void WriteFileOrDie(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void FlipByte(const std::string& path, size_t index_from_end) {
  std::vector<uint8_t> bytes = ReadFileOrDie(path);
  ASSERT_GT(bytes.size(), index_from_end);
  bytes[bytes.size() - 1 - index_from_end] ^= 0xFF;
  WriteFileOrDie(path, bytes);
}

void ExpectSameSynopsis(const Synopsis& actual, const Synopsis& expected) {
  ASSERT_EQ(actual.domain_size(), expected.domain_size());
  ASSERT_EQ(actual.size(), expected.size());
  for (int64_t i = 0; i < actual.size(); ++i) {
    const Coefficient& a = actual.coefficients()[static_cast<size_t>(i)];
    const Coefficient& e = expected.coefficients()[static_cast<size_t>(i)];
    EXPECT_EQ(a.index, e.index) << "coefficient " << i;
    // Bitwise, not approximate: resume pins byte-identical output.
    EXPECT_EQ(a.value, e.value) << "coefficient " << i;
  }
}

// ---------------------------------------------------------------------------
// CheckpointStore: format verification, atomicity of trust.
// ---------------------------------------------------------------------------

ByteBuffer SmallPayload() {
  ByteBuffer payload;
  Serde<int64_t>::Put(payload, 41);
  Serde<double>::Put(payload, 2.5);
  return payload;
}

TEST(CheckpointStoreTest, RoundtripHitsAndCleanMismatchesMiss) {
  const std::string dir = TestDir("store_roundtrip");
  const CheckpointStore store(dir, "alpha", /*fingerprint=*/42);
  ASSERT_TRUE(store.Save(0, "build", SmallPayload()).ok());

  std::vector<uint8_t> payload;
  ASSERT_TRUE(store.Load(0, "build", &payload));
  ByteReader reader(payload.data(), payload.size());
  EXPECT_EQ(Serde<int64_t>::Get(reader), 41);
  EXPECT_EQ(Serde<double>::Get(reader), 2.5);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.Done());

  // Wrong stage name, wrong index, wrong fingerprint: all clean misses.
  EXPECT_FALSE(store.Load(0, "other_stage", &payload));
  EXPECT_FALSE(store.Load(1, "build", &payload));
  const CheckpointStore other_input(dir, "alpha", /*fingerprint=*/43);
  EXPECT_FALSE(other_input.Load(0, "build", &payload));
  // A clean mismatch must not delete the frame: the original owner still
  // hits afterwards.
  EXPECT_TRUE(store.Load(0, "build", &payload));
}

TEST(CheckpointStoreTest, DisabledStoreMissesAndNoops) {
  const CheckpointStore store;
  EXPECT_FALSE(store.enabled());
  std::vector<uint8_t> payload;
  EXPECT_FALSE(store.Load(0, "build", &payload));
  EXPECT_TRUE(store.Save(0, "build", SmallPayload()).ok());
}

TEST(CheckpointStoreTest, CorruptChecksumIsDeletedNotTrusted) {
  const std::string dir = TestDir("store_corrupt");
  const CheckpointStore store(dir, "alpha", 42);
  ASSERT_TRUE(store.Save(0, "build", SmallPayload()).ok());
  const std::string path = (fs::path(dir) / "alpha-0.ckpt").string();
  ASSERT_TRUE(fs::exists(path));

  FlipByte(path, /*index_from_end=*/12);  // inside the payload region
  std::vector<uint8_t> payload;
  EXPECT_FALSE(store.Load(0, "build", &payload));
  // Deleted so the damaged frame can never shadow the recomputed stage.
  EXPECT_FALSE(fs::exists(path));
}

TEST(CheckpointStoreTest, TruncatedFileIsDeletedNotTrusted) {
  const std::string dir = TestDir("store_truncated");
  const CheckpointStore store(dir, "alpha", 42);
  ASSERT_TRUE(store.Save(0, "build", SmallPayload()).ok());
  const std::string path = (fs::path(dir) / "alpha-0.ckpt").string();

  std::vector<uint8_t> bytes = ReadFileOrDie(path);
  bytes.resize(bytes.size() / 2);
  WriteFileOrDie(path, bytes);
  std::vector<uint8_t> payload;
  EXPECT_FALSE(store.Load(0, "build", &payload));
  EXPECT_FALSE(fs::exists(path));

  // Shorter than even magic + trailer: same outcome.
  ASSERT_TRUE(store.Save(0, "build", SmallPayload()).ok());
  WriteFileOrDie(path, std::vector<uint8_t>{'D', 'W', 'M'});
  EXPECT_FALSE(store.Load(0, "build", &payload));
  EXPECT_FALSE(fs::exists(path));
}

TEST(CheckpointStoreTest, VersionSkewIsACleanMissNotCorruption) {
  const std::string dir = TestDir("store_version");
  const CheckpointStore store(dir, "alpha", 42);
  ASSERT_TRUE(store.Save(0, "build", SmallPayload()).ok());
  const std::string path = (fs::path(dir) / "alpha-0.ckpt").string();

  // Bump the version field (offset 8, after the magic) and re-seal the
  // checksum: the frame decodes cleanly but belongs to another format (a
  // wrong checksum would be deleted as corruption, the *other* code path).
  std::vector<uint8_t> bytes = ReadFileOrDie(path);
  ASSERT_GT(bytes.size(), 12u + sizeof(uint64_t));
  bytes[8] = 0xFE;
  const uint64_t checksum =
      Fnv1a(kFnv1aOffset, bytes.data(), bytes.size() - sizeof(uint64_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint64_t), &checksum,
              sizeof(uint64_t));
  WriteFileOrDie(path, bytes);

  std::vector<uint8_t> payload;
  EXPECT_FALSE(store.Load(0, "build", &payload));
  // A foreign-format frame is left for Save to overwrite, not deleted.
  EXPECT_TRUE(fs::exists(path));
}

TEST(CheckpointFingerprintTest, BindsDataAndParams) {
  const std::vector<double> data = {1.0, 2.0, 3.0};
  std::vector<double> other = data;
  other[1] = 2.0000001;
  const uint64_t base = CheckpointFingerprint(data, {16, 128});
  EXPECT_EQ(base, CheckpointFingerprint(data, {16, 128}));
  EXPECT_NE(base, CheckpointFingerprint(other, {16, 128}));
  EXPECT_NE(base, CheckpointFingerprint(data, {17, 128}));
  EXPECT_NE(base, CheckpointFingerprint(data, {16}));
}

// ---------------------------------------------------------------------------
// JobChain: job-level retry under a fresh fault namespace.
// ---------------------------------------------------------------------------

JobSpec<int64_t, int32_t, double, double> SumSpec(const std::string& name) {
  JobSpec<int64_t, int32_t, double, double> spec;
  spec.name = name;
  spec.map = [](int64_t, const int64_t& value, const auto& emit) {
    emit(0, static_cast<double>(value));
  };
  spec.reduce = [](const int32_t&, std::vector<double>& values,
                   std::vector<double>* out) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    out->push_back(sum);
  };
  spec.split_bytes = [](const int64_t&) { return 8.0; };
  return spec;
}

TEST(JobChainRetryTest, ResubmissionDrawsFreshFaultDecisions) {
  // Find a seed where the base job name loses a first-attempt map while the
  // renamed re-submission runs clean — pure hash, so the scan is exact.
  FaultSpec flaky;
  flaky.map_failure_rate = 0.5;
  constexpr int64_t kTasks = 4;
  uint64_t chosen = 0;
  for (uint64_t seed = 1; seed <= 4096 && chosen == 0; ++seed) {
    const FaultPlan plan(seed, flaky);
    bool first_fails = false;
    bool second_clean = true;
    for (int64_t t = 0; t < kTasks; ++t) {
      if (plan.Decide("unlucky", TaskPhase::kMap, t, 1).failed()) {
        first_fails = true;
      }
      if (plan.Decide("unlucky@2", TaskPhase::kMap, t, 1).failed()) {
        second_clean = false;
      }
    }
    if (first_fails && second_clean) chosen = seed;
  }
  ASSERT_NE(chosen, 0u) << "no seed in range separates the two job names";

  ClusterConfig config = FaultFreeConfig();
  config.faults = FaultPlan(chosen, flaky);
  config.max_task_attempts = 1;  // first map failure exhausts the task
  const std::vector<int64_t> splits = {1, 2, 3, 4};

  // One submission: the job dies and the failure surfaces.
  {
    SimReport report;
    JobChain chain("retry", config, &report);
    std::vector<double> sums;
    const Status status = chain.RunJob(SumSpec("unlucky"), splits, &sums);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("'unlucky'"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(report.total_jobs(), 1);
  }

  // Two submissions: "unlucky@2" succeeds; both submissions' stats land in
  // the report and the retry is marked on the timeline.
  config.max_job_attempts = 2;
  SimReport report;
  JobChain chain("retry", config, &report);
  std::vector<double> sums;
  ASSERT_TRUE(chain.RunJob(SumSpec("unlucky"), splits, &sums).ok());
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0], 10.0);
  ASSERT_EQ(report.total_jobs(), 2);
  EXPECT_EQ(report.jobs[0].name, "unlucky");
  EXPECT_GT(report.jobs[0].failed_attempts, 0);
  EXPECT_EQ(report.jobs[1].name, "unlucky@2");
  bool marked = false;
  for (const DriverSpan& span : report.driver_spans) {
    if (span.name == "job_retry:unlucky@2") {
      marked = true;
      EXPECT_EQ(span.seconds, 0.0);
    }
  }
  EXPECT_TRUE(marked);
}

TEST(JobChainRetryTest, ExhaustedSubmissionsFailTheChainAndLatch) {
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;
  ClusterConfig config = FaultFreeConfig();
  config.faults = FaultPlan(1, lethal);
  config.max_task_attempts = 1;
  config.max_job_attempts = 3;

  SimReport report;
  JobChain chain("doomed_chain", config, &report);
  bool second_ran = false;
  EXPECT_FALSE(chain.RunStage(
      "build",
      [&]() -> Status {
        std::vector<double> sums;
        return chain.RunJob(SumSpec("doomed"), {1, 2}, &sums);
      },
      nullptr));
  ASSERT_FALSE(chain.ok());
  EXPECT_NE(chain.status().ToString().find("'doomed@3'"), std::string::npos)
      << chain.status().ToString();
  EXPECT_EQ(report.total_jobs(), 3);  // every submission's cost is charged
  // Later stages no-op once the chain failed.
  EXPECT_FALSE(chain.RunStage(
      "next",
      [&]() -> Status {
        second_ran = true;
        return Status::OK();
      },
      nullptr));
  EXPECT_FALSE(second_ran);
}

TEST(JobChainRetryTest, StageFailureLatchesStatus) {
  const ClusterConfig config = FaultFreeConfig();
  SimReport report;
  JobChain chain("latch", config, &report);
  EXPECT_FALSE(chain.RunStage(
      "x", []() { return Status::Aborted("boom"); }, nullptr));
  EXPECT_FALSE(chain.ok());
  EXPECT_NE(chain.status().ToString().find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JobChain: checkpointed resume with report/counter replay.
// ---------------------------------------------------------------------------

constexpr double kUnset = -1.0;

// Two-stage pipeline used by the resume tests; stage "b" consumes stage
// "a"'s state so a wrong restore would corrupt its output.
struct PipeRun {
  Status status = Status::OK();
  double a_total = kUnset;
  double b_total = kUnset;
  bool a_ran = false;
  bool b_ran = false;
  // a_total as stage "a"'s accept() saw it, and as its live run found it.
  double a_total_at_accept = kUnset;
  double a_total_at_run = kUnset;
  int64_t resumed = 0;
  SimReport report;
  Counters counters;
};

PipeRun RunPipe(const ClusterConfig& config, bool reject_restore = false) {
  PipeRun run;
  JobChain chain("pipe", config, &run.report, &run.counters,
                 CheckpointFingerprint({1.0, 2.0}, {7}));
  chain.RunStage(
      "a",
      [&]() -> Status {
        run.a_ran = true;
        run.a_total_at_run = run.a_total;
        std::vector<double> sums;
        DWM_RETURN_NOT_OK(chain.RunJob(SumSpec("pipe_a"), {1, 2, 3, 4}, &sums));
        run.a_total = sums[0];
        chain.AddDriverSpan("a_work", 0.25);
        return Status::OK();
      },
      [&] {
        run.a_total_at_accept = run.a_total;
        return !reject_restore;
      },
      &run.a_total);
  chain.RunStage(
      "b",
      [&]() -> Status {
        run.b_ran = true;
        std::vector<double> sums;
        DWM_RETURN_NOT_OK(chain.RunJob(
            SumSpec("pipe_b"), {static_cast<int64_t>(run.a_total), 5}, &sums));
        run.b_total = sums[0];
        chain.AddDriverSpan("b_work", 0.5);
        return Status::OK();
      },
      [&] { return !reject_restore; }, &run.b_total);
  run.status = chain.status();
  run.resumed = chain.resumed_stages();
  return run;
}

void ExpectPipeOutputs(const PipeRun& run) {
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.a_total, 10.0);
  EXPECT_EQ(run.b_total, 15.0);
}

TEST(JobChainResumeTest, ReplaysReportCountersAndState) {
  const std::string dir = TestDir("resume_replay");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;

  const PipeRun first = RunPipe(config);
  ExpectPipeOutputs(first);
  EXPECT_TRUE(first.a_ran && first.b_ran);
  EXPECT_EQ(first.resumed, 0);

  const PipeRun second = RunPipe(config);
  ExpectPipeOutputs(second);
  EXPECT_FALSE(second.a_ran);
  EXPECT_FALSE(second.b_ran);
  EXPECT_EQ(second.resumed, 2);
  // The replayed cost model matches the original run exactly: same jobs,
  // same spans, same simulated seconds, same counters.
  ASSERT_EQ(second.report.total_jobs(), first.report.total_jobs());
  for (size_t j = 0; j < first.report.jobs.size(); ++j) {
    EXPECT_EQ(second.report.jobs[j].name, first.report.jobs[j].name);
    EXPECT_EQ(second.report.jobs[j].shuffle_bytes,
              first.report.jobs[j].shuffle_bytes);
    EXPECT_EQ(second.report.jobs[j].sim_seconds(),
              first.report.jobs[j].sim_seconds());
  }
  ASSERT_EQ(second.report.driver_spans.size(),
            first.report.driver_spans.size());
  for (size_t s = 0; s < first.report.driver_spans.size(); ++s) {
    EXPECT_EQ(second.report.driver_spans[s].name,
              first.report.driver_spans[s].name);
    EXPECT_EQ(second.report.driver_spans[s].seconds,
              first.report.driver_spans[s].seconds);
    EXPECT_EQ(second.report.driver_spans[s].after_job,
              first.report.driver_spans[s].after_job);
  }
  EXPECT_EQ(second.report.total_sim_seconds(),
            first.report.total_sim_seconds());
  EXPECT_EQ(second.counters.values(), first.counters.values());
}

TEST(JobChainResumeTest, ResumesOnlyAContiguousVerifiedPrefix) {
  const std::string dir = TestDir("resume_prefix");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  ExpectPipeOutputs(RunPipe(config));

  // Stage 0's frame is gone: stage 1's surviving frame must NOT be trusted
  // out of order — both stages recompute.
  ASSERT_TRUE(fs::remove(fs::path(dir) / "pipe-0.ckpt"));
  const PipeRun rerun = RunPipe(config);
  ExpectPipeOutputs(rerun);
  EXPECT_TRUE(rerun.a_ran);
  EXPECT_TRUE(rerun.b_ran);
  EXPECT_EQ(rerun.resumed, 0);
}

TEST(JobChainResumeTest, CorruptFrameRecomputesAndRewrites) {
  const std::string dir = TestDir("resume_corrupt");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  ExpectPipeOutputs(RunPipe(config));

  FlipByte((fs::path(dir) / "pipe-0.ckpt").string(), 3);
  const PipeRun rerun = RunPipe(config);
  ExpectPipeOutputs(rerun);
  EXPECT_TRUE(rerun.a_ran && rerun.b_ran);
  EXPECT_EQ(rerun.resumed, 0);

  // The recompute re-saved a valid frame: a third run resumes fully.
  const PipeRun third = RunPipe(config);
  ExpectPipeOutputs(third);
  EXPECT_EQ(third.resumed, 2);
}

TEST(JobChainResumeTest, FailedRestoreFallsBackToLiveExecution) {
  const std::string dir = TestDir("resume_bad_restore");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  ExpectPipeOutputs(RunPipe(config));

  const PipeRun rerun = RunPipe(config, /*reject_restore=*/true);
  ExpectPipeOutputs(rerun);
  EXPECT_TRUE(rerun.a_ran && rerun.b_ran);
  EXPECT_EQ(rerun.resumed, 0);
  // accept() saw the decoded value in place, rejected it, and the chain
  // swapped the old value back before the stage recomputed live.
  EXPECT_EQ(rerun.a_total_at_accept, 10.0);
  EXPECT_EQ(rerun.a_total_at_run, kUnset);
}

// Runs a one-stage chain whose stage declares `state`; returns true when
// the stage restored from its snapshot instead of running live.
template <typename... State>
bool StageRestored(const ClusterConfig& config, State*... state) {
  SimReport report;
  JobChain chain("typed", config, &report);
  bool ran = false;
  chain.RunStage(
      "only",
      [&]() -> Status {
        ran = true;
        return Status::OK();
      },
      nullptr, state...);
  EXPECT_TRUE(chain.ok());
  return !ran;
}

TEST(JobChainResumeTest, MismatchedStateShapeRecomputes) {
  const std::string dir = TestDir("resume_state_shape");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;

  double total = 10.0;
  int64_t count = 7;
  EXPECT_FALSE(StageRestored(config, &total, &count));
  double restored_total = 0.0;
  int64_t restored_count = 0;
  EXPECT_TRUE(StageRestored(config, &restored_total, &restored_count));
  EXPECT_EQ(restored_total, 10.0);
  EXPECT_EQ(restored_count, 7);

  // The stored blob has trailing bytes for a stage that declares only the
  // double: it recomputes, and the declared state stays untouched.
  double only = kUnset;
  EXPECT_FALSE(StageRestored(config, &only));
  EXPECT_EQ(only, kUnset);
  // That live run re-saved a one-double frame; a stage declaring another
  // type must not decode it either.
  std::string text = "untouched";
  EXPECT_FALSE(StageRestored(config, &text));
  EXPECT_EQ(text, "untouched");
}

TEST(JobChainResumeTest, ScopedChainsUseDistinctFiles) {
  const std::string dir = TestDir("resume_scoped");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  config.checkpoint_scope = "outer/probe1";
  ExpectPipeOutputs(RunPipe(config));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "outer_probe1_pipe-0.ckpt"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "pipe-0.ckpt"));

  // The unscoped chain misses the scoped frames and computes live.
  config.checkpoint_scope.clear();
  const PipeRun unscoped = RunPipe(config);
  ExpectPipeOutputs(unscoped);
  EXPECT_EQ(unscoped.resumed, 0);
}

TEST(JobChainResumeTest, MismatchedFingerprintRecomputes) {
  const std::string dir = TestDir("resume_fingerprint");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  ExpectPipeOutputs(RunPipe(config));

  // Same chain name, different input fingerprint: never silently reused.
  SimReport report;
  JobChain chain("pipe", config, &report, nullptr,
                 CheckpointFingerprint({1.0, 2.0}, {8}));
  bool ran = false;
  chain.RunStage(
      "a",
      [&]() -> Status {
        ran = true;
        return Status::OK();
      },
      nullptr);
  EXPECT_TRUE(ran);
  EXPECT_EQ(chain.resumed_stages(), 0);
}

// ---------------------------------------------------------------------------
// Bounded bad-record quarantine.
// ---------------------------------------------------------------------------

// One map task emitting `tags` in order; a negative tag produces a corrupt
// (under-framed) shuffle record. The reducer records every invocation so
// over-budget aborts can prove they leaked no side effects.
JobSpec<std::vector<int32_t>, int32_t, Lopsided, double> LopsidedSpec(
    std::atomic<int64_t>* reduce_calls) {
  JobSpec<std::vector<int32_t>, int32_t, Lopsided, double> spec;
  spec.name = "quarantined";
  spec.map = [](int64_t, const std::vector<int32_t>& tags, const auto& emit) {
    for (const int32_t tag : tags) {
      emit(tag, Lopsided{tag, static_cast<double>(tag)});
    }
  };
  spec.reduce = [reduce_calls](const int32_t&, std::vector<Lopsided>& values,
                               std::vector<double>* out) {
    reduce_calls->fetch_add(1);
    for (const Lopsided& v : values) out->push_back(v.payload);
  };
  spec.split_bytes = [](const std::vector<int32_t>&) { return 64.0; };
  return spec;
}

struct QuarantineRun {
  Status status;
  std::vector<double> output;
  JobStats stats;
  Counters counters;
  int64_t reduce_calls = 0;
};

QuarantineRun RunLopsided(const std::vector<int32_t>& tags,
                          ClusterConfig config) {
  std::atomic<int64_t> reduce_calls{0};
  QuarantineRun run;
  run.status = RunJobOr(LopsidedSpec(&reduce_calls), {tags}, config,
                        &run.output, &run.stats, &run.counters);
  run.reduce_calls = reduce_calls.load();
  return run;
}

TEST(QuarantineTest, SkipsWithinBudgetAtAnyThreadCount) {
  ASSERT_EQ(unsetenv("DWM_SKIP_BAD_RECORDS"), 0);
  ClusterConfig config = FaultFreeConfig();
  config.max_skipped_bad_records = 2;
  for (const int threads : {1, 8}) {
    config.worker_threads = threads;
    const QuarantineRun run = RunLopsided({1, -1, 2, -2, 3}, config);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.output, (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(run.stats.skipped_bad_records, 2);
    EXPECT_EQ(run.counters.Get("quarantined.skipped_bad_records"), 2);
  }
}

TEST(QuarantineTest, OverBudgetAbortsWithoutReducerSideEffects) {
  ASSERT_EQ(unsetenv("DWM_SKIP_BAD_RECORDS"), 0);
  ClusterConfig config = FaultFreeConfig();
  config.max_skipped_bad_records = 1;
  const QuarantineRun run = RunLopsided({1, -1, 2, -2, 3}, config);
  ASSERT_FALSE(run.status.ok());
  EXPECT_NE(run.status.ToString().find(
                "exceed the quarantine budget (max_skipped_bad_records=1)"),
            std::string::npos)
      << run.status.ToString();
  EXPECT_EQ(run.reduce_calls, 0);  // doomed jobs never leak side effects
  EXPECT_TRUE(run.output.empty());
}

TEST(QuarantineTest, DefaultOffAbortsOnCorruptStream) {
  ASSERT_EQ(unsetenv("DWM_SKIP_BAD_RECORDS"), 0);
  ClusterConfig config = FaultFreeConfig();
  config.max_skipped_bad_records = 0;  // the historical abort-on-first path
  // The corrupt record last keeps the unframed decode deterministic: its
  // over-read runs off the end of the stream.
  const QuarantineRun run = RunLopsided({1, 2, -1}, config);
  ASSERT_FALSE(run.status.ok());
  EXPECT_NE(run.status.ToString().find("corrupt shuffle stream"),
            std::string::npos)
      << run.status.ToString();
  EXPECT_EQ(run.reduce_calls, 0);
}

TEST(QuarantineTest, EnvKnobResolvesTheAutoValue) {
  ASSERT_EQ(setenv("DWM_SKIP_BAD_RECORDS", "4", 1), 0);
  EXPECT_EQ(ResolveMaxSkippedBadRecords(-1), 4);
  EXPECT_EQ(ResolveMaxSkippedBadRecords(0), 0);  // explicit beats env
  EXPECT_EQ(ResolveMaxSkippedBadRecords(7), 7);

  ClusterConfig config = FaultFreeConfig();
  config.max_skipped_bad_records = -1;  // auto
  const QuarantineRun run = RunLopsided({1, -1, 2, -2, 3}, config);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.output, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(run.stats.skipped_bad_records, 2);

  // Malformed values warn and fall back to 0 instead of being misread.
  for (const char* bad : {"4bad", "99999999999999999999", "+4"}) {
    ASSERT_EQ(setenv("DWM_SKIP_BAD_RECORDS", bad, 1), 0);
    EXPECT_EQ(ResolveMaxSkippedBadRecords(-1), 0) << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv("DWM_SKIP_BAD_RECORDS"), 0);
  EXPECT_EQ(ResolveMaxSkippedBadRecords(-1), 0);
}

TEST(QuarantineTest, CleanRunIsIdenticalWithTheKnobOnOrOff) {
  ASSERT_EQ(unsetenv("DWM_SKIP_BAD_RECORDS"), 0);
  ClusterConfig off = FaultFreeConfig();
  off.max_skipped_bad_records = 0;
  ClusterConfig on = off;
  on.max_skipped_bad_records = 5;
  const QuarantineRun base = RunLopsided({1, 2, 3, 4}, off);
  const QuarantineRun guarded = RunLopsided({1, 2, 3, 4}, on);
  ASSERT_TRUE(base.status.ok());
  ASSERT_TRUE(guarded.status.ok());
  EXPECT_EQ(guarded.output, base.output);
  EXPECT_EQ(guarded.stats.shuffle_bytes, base.stats.shuffle_bytes);
  EXPECT_EQ(guarded.stats.shuffle_records, base.stats.shuffle_records);
  EXPECT_EQ(guarded.stats.skipped_bad_records, 0);
  // No .skipped_bad_records key appears on a clean run, so the counter
  // maps are exactly equal.
  EXPECT_EQ(guarded.counters.values(), base.counters.values());
}

// ---------------------------------------------------------------------------
// Retry backoff in the attempt-aware scheduler.
// ---------------------------------------------------------------------------

TEST(ScheduleBackoffTest, BackoffDelaysTheRequeuedAttempt) {
  // Same scenario FailedAttemptOccupiesSlotAndRequeues pins at 3.0 with the
  // historical instant requeue: failure observed at t=1, a 2s retry. With a
  // 2s backoff the retry becomes runnable at t=3 and finishes at t=5.
  TaskExecution task;
  task.attempts.push_back({1.0, 1.0, true, false});
  task.attempts.push_back({2.0, 1.0, false, false});
  for (const int slots : {1, 2, 4}) {
    EXPECT_DOUBLE_EQ(ScheduleMakespanAttempts({task}, slots, 1.5,
                                              /*record_placements=*/false,
                                              /*retry_backoff_seconds=*/2.0)
                         .makespan_seconds,
                     5.0)
        << slots << " slots";
  }
  // Default stays the instant-requeue model.
  EXPECT_DOUBLE_EQ(ScheduleMakespanAttempts({task}, 1, 1.5).makespan_seconds,
                   3.0);
  // Clean attempts never pay the backoff.
  TaskExecution clean;
  clean.attempts.push_back({2.0, 1.0, false, false});
  EXPECT_DOUBLE_EQ(ScheduleMakespanAttempts({clean}, 1, 1.5, false, 2.0)
                       .makespan_seconds,
                   2.0);
}

// ---------------------------------------------------------------------------
// Retry exhaustion surfaces a clean Status from every single-chain driver.
// ---------------------------------------------------------------------------

TEST(DriverRetryExhaustionTest, DriversSurfaceTheFailingJobAtAnyThreads) {
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;
  struct Case {
    const char* job;
    std::function<Status(const ClusterConfig&)> run;
  };
  const std::vector<Case> cases = {
      {"con",
       [&](const ClusterConfig& c) { return RunCon(data, 16, 128, c).status; }},
      {"send_v",
       [&](const ClusterConfig& c) {
         return RunSendV(data, 16, 8, c).status;
       }},
      {"send_coef",
       [&](const ClusterConfig& c) {
         return RunSendCoef(data, 16, 8, c).status;
       }},
      {"hwtopk_r1",
       [&](const ClusterConfig& c) {
         return RunHWTopk(data, 16, 8, c).status;
       }},
  };
  for (const Case& test_case : cases) {
    std::string at_one;
    for (const int threads : {1, 8}) {
      ClusterConfig config = FaultFreeConfig();
      config.faults = FaultPlan(5, lethal);
      config.max_task_attempts = 2;
      config.worker_threads = threads;
      const Status status = test_case.run(config);
      ASSERT_FALSE(status.ok()) << test_case.job;
      EXPECT_NE(status.ToString().find(std::string("'") + test_case.job + "'"),
                std::string::npos)
          << status.ToString();
      if (threads == 1) {
        at_one = status.ToString();
      } else {
        // The surfaced failure is thread-count independent.
        EXPECT_EQ(status.ToString(), at_one) << test_case.job;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Acceptance: kill-and-resume at every stage, byte-identical synopsis.
// ---------------------------------------------------------------------------

// Copies the first `stages` frames of `chain` into a fresh directory —
// exactly the on-disk state of a run killed while executing stage `stages`.
std::string DirWithCommittedPrefix(const std::string& golden_dir,
                                   const std::string& chain, int stages,
                                   const std::string& leaf) {
  const std::string dir = TestDir(leaf);
  for (int i = 0; i < stages; ++i) {
    const std::string file = chain + "-" + std::to_string(i) + ".ckpt";
    fs::copy_file(fs::path(golden_dir) / file, fs::path(dir) / file);
  }
  return dir;
}

int CountFrames(const std::string& dir, const std::string& chain) {
  int count = 0;
  while (fs::exists(fs::path(dir) /
                    (chain + "-" + std::to_string(count) + ".ckpt"))) {
    ++count;
  }
  return count;
}

TEST(KillResumeTest, DGreedyKilledAtEachStageResumesByteIdentical) {
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  DGreedyOptions options;
  options.budget = 24;
  options.base_leaves = 128;
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;

  const std::string golden_dir = TestDir("dgreedy_golden");
  ClusterConfig golden_config = FaultFreeConfig();
  golden_config.checkpoint_dir = golden_dir;
  const DGreedyResult golden = DGreedyAbs(data, options, golden_config);
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  const int stages = CountFrames(golden_dir, "dgreedy_abs");
  ASSERT_EQ(stages, 3);
  ASSERT_EQ(golden.report.total_jobs(), 3);  // one job per stage

  for (const int threads : {1, 8}) {
    for (int k = 0; k < stages; ++k) {
      const std::string dir = DirWithCommittedPrefix(
          golden_dir, "dgreedy_abs", k,
          "dgreedy_k" + std::to_string(k) + "_t" + std::to_string(threads));
      // Kill: every live job exhausts its retries, so the run dies in stage
      // k — and dying there proves stages 0..k-1 restored from checkpoint
      // (a recomputed stage would have died under the same plan).
      ClusterConfig faulty = FaultFreeConfig();
      faulty.checkpoint_dir = dir;
      faulty.worker_threads = threads;
      faulty.max_task_attempts = 1;
      faulty.faults = FaultPlan(11, lethal);
      const DGreedyResult killed = DGreedyAbs(data, options, faulty);
      ASSERT_FALSE(killed.status.ok()) << "stage " << k;
      EXPECT_NE(killed.status.ToString().find(
                    "'" + golden.report.jobs[static_cast<size_t>(k)].name +
                    "'"),
                std::string::npos)
          << killed.status.ToString();

      // Resume: the restarted driver replays the committed prefix and
      // recomputes the rest; the synopsis is byte-identical to fault-free.
      ClusterConfig resume = FaultFreeConfig();
      resume.checkpoint_dir = dir;
      resume.worker_threads = threads;
      const DGreedyResult resumed = DGreedyAbs(data, options, resume);
      ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
      ExpectSameSynopsis(resumed.synopsis, golden.synopsis);
      EXPECT_EQ(resumed.estimated_error, golden.estimated_error);
      EXPECT_EQ(resumed.report.total_jobs(), golden.report.total_jobs());
    }
  }
}

TEST(KillResumeTest, DmhsKilledAtEachStageResumesByteIdentical) {
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  const DmhsOptions options = {/*error_bound=*/200.0, /*quantum=*/50.0,
                               /*subtree_inputs=*/8};
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;

  const std::string golden_dir = TestDir("dmhs_golden");
  ClusterConfig golden_config = FaultFreeConfig();
  golden_config.checkpoint_dir = golden_dir;
  const DmhsResult golden = DMinHaarSpace(data, options, golden_config);
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  ASSERT_TRUE(golden.result.feasible);
  const int stages = CountFrames(golden_dir, "dmhs");
  ASSERT_GE(stages, 2);  // at least one up and one down stage
  ASSERT_EQ(golden.report.total_jobs(), stages);  // one job per stage

  for (const int threads : {1, 8}) {
    for (int k = 0; k < stages; ++k) {
      const std::string dir = DirWithCommittedPrefix(
          golden_dir, "dmhs", k,
          "dmhs_k" + std::to_string(k) + "_t" + std::to_string(threads));
      ClusterConfig faulty = FaultFreeConfig();
      faulty.checkpoint_dir = dir;
      faulty.worker_threads = threads;
      faulty.max_task_attempts = 1;
      faulty.faults = FaultPlan(11, lethal);
      const DmhsResult killed = DMinHaarSpace(data, options, faulty);
      ASSERT_FALSE(killed.status.ok()) << "stage " << k;
      EXPECT_NE(killed.status.ToString().find(
                    "'" + golden.report.jobs[static_cast<size_t>(k)].name +
                    "'"),
                std::string::npos)
          << killed.status.ToString();

      ClusterConfig resume = FaultFreeConfig();
      resume.checkpoint_dir = dir;
      resume.worker_threads = threads;
      const DmhsResult resumed = DMinHaarSpace(data, options, resume);
      ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
      ASSERT_TRUE(resumed.result.feasible);
      ExpectSameSynopsis(resumed.result.synopsis, golden.result.synopsis);
      EXPECT_EQ(resumed.result.count, golden.result.count);
      EXPECT_EQ(resumed.result.max_abs_error, golden.result.max_abs_error);
      EXPECT_EQ(resumed.report.total_jobs(), golden.report.total_jobs());
    }
  }
}

TEST(KillResumeTest, DmmvKilledAtEachStageResumesByteIdentical) {
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  MinMaxVarOptions options;
  options.budget = 24;
  const int64_t base_leaves = 128;
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;

  const std::string golden_dir = TestDir("dmmv_golden");
  ClusterConfig golden_config = FaultFreeConfig();
  golden_config.checkpoint_dir = golden_dir;
  const DMinMaxVarResult golden =
      DMinMaxVar(data, options, base_leaves, golden_config);
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  const int stages = CountFrames(golden_dir, "dmmv");
  ASSERT_EQ(stages, 2);  // up, then the base sub-trees' down re-entry
  ASSERT_EQ(golden.report.total_jobs(), 2);
  // The down stage's checkpointed allotments are part of the result: some
  // allocated node lies below the root sub-tree's n / L nodes.
  const int64_t num_base = static_cast<int64_t>(data.size()) / base_leaves;
  ASSERT_TRUE(std::any_of(
      golden.result.allocations.begin(), golden.result.allocations.end(),
      [&](const auto& allocation) { return allocation.first >= num_base; }));

  const auto expect_golden = [&](const DMinMaxVarResult& run) {
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    ExpectSameSynopsis(run.result.synopsis, golden.result.synopsis);
    EXPECT_EQ(run.result.allocations, golden.result.allocations);
    EXPECT_EQ(run.result.expected_space_units,
              golden.result.expected_space_units);
    EXPECT_EQ(run.report.total_jobs(), golden.report.total_jobs());
  };

  for (const int threads : {1, 8}) {
    // k == stages: every frame is committed, so no job runs live and even
    // the lethal plan completes from the restored state alone.
    for (int k = 0; k <= stages; ++k) {
      const std::string dir = DirWithCommittedPrefix(
          golden_dir, "dmmv", k,
          "dmmv_k" + std::to_string(k) + "_t" + std::to_string(threads));
      ClusterConfig faulty = FaultFreeConfig();
      faulty.checkpoint_dir = dir;
      faulty.worker_threads = threads;
      faulty.max_task_attempts = 1;
      faulty.faults = FaultPlan(11, lethal);
      const DMinMaxVarResult killed =
          DMinMaxVar(data, options, base_leaves, faulty);
      if (k == stages) {
        expect_golden(killed);
        continue;
      }
      ASSERT_FALSE(killed.status.ok()) << "stage " << k;
      EXPECT_NE(killed.status.ToString().find(
                    "'" + golden.report.jobs[static_cast<size_t>(k)].name +
                    "'"),
                std::string::npos)
          << killed.status.ToString();

      ClusterConfig resume = FaultFreeConfig();
      resume.checkpoint_dir = dir;
      resume.worker_threads = threads;
      expect_golden(DMinMaxVar(data, options, base_leaves, resume));
    }
  }
}

TEST(KillResumeTest, DihKilledInTheWinnersDeferredSweepResumesByteIdentical) {
  // DIndirectHaar's probes run only their up stages; the winner's down
  // stages run after the search, in that probe's chain. Kill the run inside
  // them and resume.
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  const DIndirectHaarOptions options = {/*budget=*/64, /*quantum=*/5.0,
                                        /*subtree_inputs=*/8,
                                        /*max_iterations=*/40};
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;

  const std::string golden_dir = TestDir("dih_golden");
  ClusterConfig golden_config = FaultFreeConfig();
  golden_config.checkpoint_dir = golden_dir;
  const DIndirectHaarResult golden =
      DIndirectHaar(data, options, golden_config);
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  ASSERT_TRUE(golden.search.converged);
  int winner = 0;
  for (const DriverSpan& span : golden.report.driver_spans) {
    const std::string marker = "dih_materialize_probe";
    if (span.name.rfind(marker, 0) == 0) {
      winner = std::stoi(span.name.substr(marker.size()));
    }
  }
  ASSERT_GE(winner, 1);
  // 1024 leaves over 8-row sub-trees: 64, 8, then 1 worker per up stage.
  constexpr int kUpStages = 3;
  const auto chain = [](int probe) {
    return "dih_probe" + std::to_string(probe) + "_dmhs";
  };
  for (int probe = 1; probe <= golden.search.solver_runs; ++probe) {
    if (probe != winner) {
      EXPECT_EQ(CountFrames(golden_dir, chain(probe)), kUpStages) << probe;
    }
  }
  const int stages = CountFrames(golden_dir, chain(winner));
  ASSERT_GT(stages, kUpStages);  // the winner also committed its down stages

  for (const int threads : {1, 8}) {
    for (int k = kUpStages; k < stages; ++k) {
      // The on-disk state of a run killed in the winner's stage k: every
      // frame but that stage's and its successors'.
      const std::string dir = TestDir("dih_k" + std::to_string(k) + "_t" +
                                      std::to_string(threads));
      fs::copy(golden_dir, dir, fs::copy_options::recursive);
      for (int later = k; later < stages; ++later) {
        ASSERT_TRUE(fs::remove(fs::path(dir) / (chain(winner) + "-" +
                                                std::to_string(later) +
                                                ".ckpt")));
      }
      ClusterConfig faulty = FaultFreeConfig();
      faulty.checkpoint_dir = dir;
      faulty.worker_threads = threads;
      faulty.max_task_attempts = 1;
      faulty.faults = FaultPlan(11, lethal);
      const DIndirectHaarResult killed = DIndirectHaar(data, options, faulty);
      ASSERT_FALSE(killed.status.ok()) << "stage " << k;
      const std::string down = "'dmhs_down_" +
                               std::to_string(stages - 1 - k) + "'";
      EXPECT_NE(killed.status.ToString().find(down), std::string::npos)
          << killed.status.ToString();

      ClusterConfig resume = FaultFreeConfig();
      resume.checkpoint_dir = dir;
      resume.worker_threads = threads;
      const DIndirectHaarResult resumed = DIndirectHaar(data, options, resume);
      ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
      ASSERT_TRUE(resumed.search.converged);
      ExpectSameSynopsis(resumed.search.synopsis, golden.search.synopsis);
      EXPECT_EQ(resumed.search.max_abs_error, golden.search.max_abs_error);
      EXPECT_EQ(resumed.search.solver_runs, golden.search.solver_runs);
      EXPECT_EQ(resumed.report.total_jobs(), golden.report.total_jobs());
    }
  }
}

TEST(KillResumeTest, FullyCheckpointedRunSurvivesTotalFaultInjection) {
  // With every stage committed, a resume runs no live jobs at all — even a
  // plan that kills every attempt cannot touch it.
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  DGreedyOptions options;
  options.budget = 24;
  options.base_leaves = 128;
  const std::string dir = TestDir("dgreedy_full");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  const DGreedyResult golden = DGreedyAbs(data, options, config);
  ASSERT_TRUE(golden.status.ok());

  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;
  ClusterConfig faulty = config;
  faulty.max_task_attempts = 1;
  faulty.faults = FaultPlan(11, lethal);
  const DGreedyResult resumed = DGreedyAbs(data, options, faulty);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  ExpectSameSynopsis(resumed.synopsis, golden.synopsis);
}

TEST(KillResumeTest, CorruptFrameIsRecomputedNeverTrusted) {
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  DGreedyOptions options;
  options.budget = 24;
  options.base_leaves = 128;
  const std::string dir = TestDir("dgreedy_corrupt");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  const DGreedyResult golden = DGreedyAbs(data, options, config);
  ASSERT_TRUE(golden.status.ok());

  FlipByte((fs::path(dir) / "dgreedy_abs-1.ckpt").string(), 5);
  const DGreedyResult rerun = DGreedyAbs(data, options, config);
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
  ExpectSameSynopsis(rerun.synopsis, golden.synopsis);

  // The recompute replaced the damaged frame with a valid one: a run under
  // a kill-everything plan now restores every stage and succeeds.
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;
  ClusterConfig faulty = config;
  faulty.max_task_attempts = 1;
  faulty.faults = FaultPlan(11, lethal);
  const DGreedyResult resumed = DGreedyAbs(data, options, faulty);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  ExpectSameSynopsis(resumed.synopsis, golden.synopsis);
}

TEST(KillResumeTest, ResealedInvalidSynopsisFrameIsRecomputedNotAborted) {
  const std::vector<double> data = MakeUniform(1 << 10, 1000.0, 7);
  const std::string dir = TestDir("hwtopk_resealed");
  ClusterConfig config = FaultFreeConfig();
  config.checkpoint_dir = dir;
  const DistSynopsisResult golden = RunHWTopk(data, 16, 8, config);
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  ASSERT_GE(golden.synopsis.size(), 2);

  // The synopsis stage's state ends the frame body: domain, count, then
  // (int64 index, double value) per coefficient. Give coefficient 1 the
  // index of coefficient 0 and reseal: the frame passes every checksum but
  // encodes a synopsis with a duplicate index.
  constexpr size_t kCoefficientBytes = sizeof(int64_t) + sizeof(double);
  const std::string path = (fs::path(dir) / "hwtopk-2.ckpt").string();
  std::vector<uint8_t> bytes;
  std::span<const uint8_t> body;
  ASSERT_TRUE(ReadSealedFile(path, "DWMCKPT1", &bytes, &body).ok());
  std::vector<uint8_t> damaged(body.begin(), body.end());
  const size_t first =
      damaged.size() -
      static_cast<size_t>(golden.synopsis.size()) * kCoefficientBytes;
  std::memcpy(damaged.data() + first + kCoefficientBytes,
              damaged.data() + first, sizeof(int64_t));
  ASSERT_TRUE(WriteSealedFile(path, "DWMCKPT1", damaged).ok());

  // Under a kill-everything plan, r1 and r2 restore; r3's frame fails to
  // decode, so r3 runs live and dies by name: a Status, not an abort.
  FaultSpec lethal;
  lethal.map_failure_rate = 1.0;
  ClusterConfig faulty = config;
  faulty.max_task_attempts = 1;
  faulty.faults = FaultPlan(11, lethal);
  const DistSynopsisResult killed = RunHWTopk(data, 16, 8, faulty);
  ASSERT_FALSE(killed.status.ok());
  EXPECT_NE(killed.status.ToString().find("'hwtopk_r3'"), std::string::npos)
      << killed.status.ToString();

  // Fault-free, the stage recomputes and returns the golden synopsis.
  const DistSynopsisResult rerun = RunHWTopk(data, 16, 8, config);
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
  ExpectSameSynopsis(rerun.synopsis, golden.synopsis);
}

}  // namespace
}  // namespace dwm::mr
