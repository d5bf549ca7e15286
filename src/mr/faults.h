// Deterministic fault injection for the MR runtime.
//
// A FaultPlan decides, as a pure function of (seed, job_name, phase, task,
// attempt), whether a task attempt fail-stops, straggles (its modeled
// seconds are multiplied), or dies because the simulated node it was placed
// on is lost. There is no global RNG and no mutable state, so a plan replays
// identically at any ClusterConfig::worker_threads and from any thread —
// the same property the engine's determinism contract already pins for
// concurrency. RunJobOr (mr/job.h) consults the plan inside its attempt
// loop; the attempt-aware scheduler (mr/cluster.h) charges the resulting
// occupancy and retry re-queueing.
//
// Spec text format (DWM_FAULTS env knob and `dwm_cli dbuild --faults`):
//   "<seed>"            seed with the default chaos profile (see Parse)
//   "<seed>:k=v,k=v"    explicit profile; keys: fail, map_fail, reduce_fail,
//                       straggle, slowdown, node_loss, nodes
#ifndef DWMAXERR_MR_FAULTS_H_
#define DWMAXERR_MR_FAULTS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace dwm::metrics {
class Registry;
}  // namespace dwm::metrics

namespace dwm::mr {

struct JobStats;  // mr/cluster.h (which includes this header)

enum class TaskPhase { kMap = 0, kReduce = 1 };

// Stable lower-case phase name ("map", "reduce") used for trace span names
// and counter keys. dwm_lint's trace-phase-span rule pins that every
// enumerator added here gets a span mapping in mr/trace.cc.
const char* TaskPhaseName(TaskPhase phase);

// Injection rates. All rates are probabilities in [0, 1] evaluated
// independently per (job, phase, task, attempt).
struct FaultSpec {
  double map_failure_rate = 0.0;     // fail-stop chance per map attempt
  double reduce_failure_rate = 0.0;  // fail-stop chance per reduce attempt
  double straggler_rate = 0.0;       // chance an attempt straggles
  double straggler_slowdown = 8.0;   // multiplier on a straggler's seconds
  double node_loss_rate = 0.0;       // chance a (job, node) pair is lost
  int num_nodes = 8;                 // simulated nodes tasks are placed on

  bool any() const {
    return map_failure_rate > 0.0 || reduce_failure_rate > 0.0 ||
           straggler_rate > 0.0 || node_loss_rate > 0.0;
  }
};

// Everything the engine needs to know about one task attempt. `failed()`
// attempts are charged `failure_fraction` of their (slowed) runtime as slot
// occupancy — the attempt died partway through.
struct FaultDecision {
  bool fail_stop = false;
  bool node_lost = false;
  double slowdown = 1.0;          // >= 1; > 1 means this attempt straggles
  double failure_fraction = 1.0;  // in (0, 1]; meaningful when failed()

  bool failed() const { return fail_stop || node_lost; }
};

class FaultPlan {
 public:
  // Inert plan: injects nothing, but lets the engine fall back to the
  // process-wide DWM_FAULTS plan (see EffectiveFaultPlan).
  FaultPlan() = default;
  // Active plan with the given seed and rates.
  FaultPlan(uint64_t seed, const FaultSpec& spec);

  // Explicitly disabled: injects nothing AND suppresses the DWM_FAULTS
  // fallback. Use for fault-free baselines that must not be perturbed by
  // the environment (tests pin the determinism invariant against this).
  static FaultPlan Disabled();

  // Parses the spec text format documented at the top of this header. A
  // bare "<seed>" applies the default chaos profile (fail=0.02,
  // straggle=0.05, slowdown=4, node_loss=0.01, nodes=8); seed 0 is valid
  // and still injects. Returns InvalidArgument on malformed text without
  // touching *plan.
  [[nodiscard]] static Status Parse(const std::string& text, FaultPlan* plan);

  // True when this plan can inject at least one fault kind.
  bool active() const { return active_ && spec_.any(); }
  // One-line human-readable description ("inert", "disabled", or
  // "seed 7: map_fail=0.02 ...") for trace metadata and harness headers.
  std::string Summary() const;
  // True when this plan suppresses the DWM_FAULTS fallback.
  bool disabled() const { return disabled_; }
  uint64_t seed() const { return seed_; }
  const FaultSpec& spec() const { return spec_; }

  // The fate of attempt `attempt` (1-based) of `task` in `phase` of the job
  // named `job`. Pure and thread-safe; identical inputs give identical
  // decisions forever.
  FaultDecision Decide(const std::string& job, TaskPhase phase, int64_t task,
                       int attempt) const;

  // Simulated node hosting (job, phase, task, attempt); in [0, num_nodes).
  int Placement(const std::string& job, TaskPhase phase, int64_t task,
                int attempt) const;

  // Whether `node` is lost during `job` (node loss kills every attempt
  // placed on that node for the whole job).
  bool NodeLost(const std::string& job, int node) const;

 private:
  uint64_t seed_ = 0;
  FaultSpec spec_;
  bool active_ = false;
  bool disabled_ = false;
};

// The plan the engine should obey for a job configured with `config_plan`:
// a Disabled() plan wins (no injection), an active plan wins, otherwise the
// process-wide DWM_FAULTS plan (parsed once; unset or empty means inert,
// and a malformed value logs one `env_parse_error` and is treated as
// unset).
const FaultPlan& EffectiveFaultPlan(const FaultPlan& config_plan);

// Publishes one faulted job's injected-fault tallies (attempts launched,
// fail-stops, node-loss kills, stragglers) into the metrics registry as
// dwm_faults_* counters labeled {job=<name>}. The engine calls this after a
// job that ran under an active plan completes; the tallies are a pure
// function of (plan, job), so the exported values are deterministic at any
// worker_threads (the registry's kStable contract).
void PublishFaultTallies(const JobStats& stats, metrics::Registry* registry);

}  // namespace dwm::mr

#endif  // DWMAXERR_MR_FAULTS_H_
