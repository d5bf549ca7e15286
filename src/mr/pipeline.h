// Job-chain recovery layer: the stage runner every dist/ driver registers
// its jobs with. A JobChain strings a driver's MapReduce jobs and driver
// work into named *stages*; each committed stage snapshots its outputs and
// engine accounting into the checkpoint store (mr/checkpoint.h) when
// checkpointing is on, and a restarted chain replays verified snapshots —
// outputs and the stage's JobStats and driver spans, so the simulated-time
// cost too — then resumes execution from the first incomplete stage.
//
// A job that exhausts its task retries fails its stage, and the chain
// latches that Status. The doomed job's JobStats still lands in the
// SimReport with its modeled time derived (ModelJobTime), so its failed
// attempts' cost shows up in the makespan and as trace spans.
//
// Determinism: the chain never changes job *results*. A fault-free run, a
// run with recoverable faults and a checkpoint-resumed run all produce
// byte-identical outputs at every DWM_THREADS setting (the kill-and-resume
// tests pin this).
#ifndef DWMAXERR_MR_PIPELINE_H_
#define DWMAXERR_MR_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "mr/checkpoint.h"
#include "mr/cluster.h"
#include "mr/job.h"

namespace dwm::mr {

namespace pipeline_internal {
// Metrics hook (mr/pipeline.cc): resumed stages.
void PublishStageResumed(const std::string& chain, const std::string& stage);
}  // namespace pipeline_internal

class JobChain {
 public:
  // `config` and `report` must outlive the chain.
  // The chain checkpoints into ResolveCheckpointDir(config.checkpoint_dir)
  // (empty = disabled), under the scope-qualified chain name
  // "<config.checkpoint_scope>/<name>". `fingerprint` identifies the input
  // the chain runs over (CheckpointFingerprint): a snapshot written over
  // different input reads as a miss, never as silent reuse.
  JobChain(std::string name, const ClusterConfig& config, SimReport* report,
           uint64_t fingerprint = 0);

  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }
  bool checkpointing() const { return store_.enabled(); }
  // Stages skipped this run because a verified snapshot replayed instead.
  int64_t resumed_stages() const { return resumed_stages_; }

  // Runs one committed stage: `run` executes the stage's jobs (via RunJob)
  // and driver work (via AddDriverSpan). Each `state` points at a driver
  // value later stages need; the stage's snapshot stores their Serde
  // encodings, in argument order, after the chain's own report
  // accounting.
  //
  // With checkpointing on and every earlier stage restored, a verified
  // snapshot short-circuits `run`. The states decode into locals, which
  // must consume the snapshot exactly, and are then swapped into place.
  // `accept` (empty = always) checks the driver's invariants on the
  // swapped-in values; if it rejects them the old values are swapped back
  // and the stage recomputes live, so a failed restore never changes driver
  // state. A restored stage's jobs and driver spans replay into the report
  // so the resumed run's cost model matches the original. Returns false —
  // and latches status() — when the stage failed or an earlier stage
  // already had; later stages then no-op.
  template <typename... State>
  bool RunStage(const std::string& stage, const std::function<Status()>& run,
                const std::function<bool()>& accept, State*... state) {
    return RunEncodedStage(
        stage, run,
        [&](ByteBuffer& out) { (Serde<State>::Put(out, *state), ...); },
        [&](ByteReader& in) {
          // Braced initialization decodes the states in argument order.
          std::tuple<State...> decoded{Serde<State>::Get(in)...};
          if (!in.ok() || !in.Done()) return false;
          const auto swap_all = [&] {
            std::apply(
                [&](auto&... value) { (std::swap(*state, value), ...); },
                decoded);
          };
          swap_all();
          if (!accept || accept()) return true;
          swap_all();
          return false;
        });
  }

  // Runs a job over `ctx` under the chain's config and pushes its JobStats
  // into the report, a failed job's included (see the header note).
  template <typename Ctx, typename Split, typename K, typename V,
            typename Out>
  [[nodiscard]] Status RunJob(const JobSpec<Ctx, Split, K, V, Out>& spec,
                              const Ctx& ctx,
                              const std::vector<Split>& splits,
                              std::vector<Out>* output) {
    JobStats stats;
    Status status = RunJobOr(spec, ctx, splits, *config_, *output, stats);
    report_->jobs.push_back(std::move(stats));
    return status;
  }

  void AddDriverSpan(const std::string& name, double seconds) {
    report_->AddDriverSpan(name, seconds);
  }

  const ClusterConfig& config() const { return *config_; }

 private:
  // RunStage's untyped core: `encode` appends the stage's state to its
  // snapshot, `decode` installs it from a verified one (true on success).
  bool RunEncodedStage(const std::string& stage,
                       const std::function<Status()>& run,
                       const std::function<void(ByteBuffer&)>& encode,
                       const std::function<bool(ByteReader&)>& decode);
  // Replays a snapshot: parses the report delta and hands the state
  // blob to `decode`; commits nothing unless everything verifies.
  bool RestoreSnapshot(const std::vector<uint8_t>& payload,
                       const std::function<bool(ByteReader&)>& decode);

  std::string name_;
  const ClusterConfig* config_;
  SimReport* report_;
  CheckpointStore store_;
  Status status_;
  int stage_index_ = 0;
  // True until the first stage whose snapshot misses or fails
  // verification: a chain resumes only from a contiguous verified prefix,
  // so a stale later snapshot (from a run that died mid-chain and was
  // partially recomputed) can never be trusted out of order.
  bool resume_active_ = true;
  int64_t resumed_stages_ = 0;
};

}  // namespace dwm::mr

#endif  // DWMAXERR_MR_PIPELINE_H_
