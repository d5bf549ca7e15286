#include "mr/faults.h"

#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "common/metrics.h"
#include "mr/cluster.h"

namespace dwm::mr {
namespace {

// Decision streams: each independent random draw hashes a distinct tag so
// e.g. the fail-stop coin of an attempt is independent of its straggler
// coin.
enum Stream : uint64_t {
  kStreamFail = 1,
  kStreamStraggle = 2,
  kStreamPlacement = 3,
  kStreamFraction = 4,
  kStreamNodeLoss = 5,
};

// Bytewise FNV-1a over the decision coordinates, finalized with a
// splitmix64-style avalanche so low-entropy inputs (small task ids) still
// produce well-distributed uniforms. Numbers are absorbed little-endian
// byte by byte, so the hash is identical across platforms.
uint64_t Absorb(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t AbsorbBytes(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Finalize(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

uint64_t DecisionHash(uint64_t seed, Stream stream, const std::string& job,
                      uint64_t phase, uint64_t task, uint64_t attempt) {
  uint64_t h = 1469598103934665603ULL;
  h = Absorb(h, seed);
  h = Absorb(h, static_cast<uint64_t>(stream));
  h = AbsorbBytes(h, job);
  h = Absorb(h, phase);
  h = Absorb(h, task);
  h = Absorb(h, attempt);
  return Finalize(h);
}

// Uniform in [0, 1) from the top 53 bits of the hash.
double U01(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Strict full-string number parsing (the spec format rejects garbage).
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool ParseSeed(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  if (text[0] == '-' || text[0] == '+') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

const char* TaskPhaseName(TaskPhase phase) {
  switch (phase) {
    case TaskPhase::kMap:
      return "map";
    case TaskPhase::kReduce:
      return "reduce";
  }
  return "unknown";
}

FaultPlan::FaultPlan(uint64_t seed, const FaultSpec& spec)
    : seed_(seed), spec_(spec), active_(true) {}

FaultPlan FaultPlan::Disabled() {
  FaultPlan plan;
  plan.disabled_ = true;
  return plan;
}

Status FaultPlan::Parse(const std::string& text, FaultPlan* plan) {
  const size_t colon = text.find(':');
  const std::string seed_text = text.substr(0, colon);
  uint64_t seed = 0;
  if (!ParseSeed(seed_text, &seed)) {
    return Status::InvalidArgument("fault spec '" + text +
                                   "': seed must be a non-negative integer");
  }

  FaultSpec spec;
  if (colon == std::string::npos) {
    // Bare seed: the default chaos profile (documented in faults.h).
    spec.map_failure_rate = 0.02;
    spec.reduce_failure_rate = 0.02;
    spec.straggler_rate = 0.05;
    spec.straggler_slowdown = 4.0;
    spec.node_loss_rate = 0.01;
    spec.num_nodes = 8;
  } else {
    std::string rest = text.substr(colon + 1);
    if (rest.empty()) {
      return Status::InvalidArgument("fault spec '" + text +
                                     "': empty key list after ':'");
    }
    size_t pos = 0;
    while (pos <= rest.size()) {
      const size_t comma = rest.find(',', pos);
      const std::string kv =
          rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
      pos = comma == std::string::npos ? rest.size() + 1 : comma + 1;
      const size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument("fault spec '" + text +
                                       "': expected key=value, got '" + kv +
                                       "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      double num = 0.0;
      if (!ParseDouble(val, &num)) {
        return Status::InvalidArgument("fault spec '" + text +
                                       "': bad number '" + val + "' for '" +
                                       key + "'");
      }
      auto rate_ok = [&num] { return num >= 0.0 && num <= 1.0; };
      if (key == "fail") {
        if (!rate_ok()) {
          return Status::InvalidArgument("fault spec '" + text +
                                         "': fail must be in [0,1]");
        }
        spec.map_failure_rate = num;
        spec.reduce_failure_rate = num;
      } else if (key == "map_fail") {
        if (!rate_ok()) {
          return Status::InvalidArgument("fault spec '" + text +
                                         "': map_fail must be in [0,1]");
        }
        spec.map_failure_rate = num;
      } else if (key == "reduce_fail") {
        if (!rate_ok()) {
          return Status::InvalidArgument("fault spec '" + text +
                                         "': reduce_fail must be in [0,1]");
        }
        spec.reduce_failure_rate = num;
      } else if (key == "straggle") {
        if (!rate_ok()) {
          return Status::InvalidArgument("fault spec '" + text +
                                         "': straggle must be in [0,1]");
        }
        spec.straggler_rate = num;
      } else if (key == "slowdown") {
        if (num < 1.0) {
          return Status::InvalidArgument("fault spec '" + text +
                                         "': slowdown must be >= 1");
        }
        spec.straggler_slowdown = num;
      } else if (key == "node_loss") {
        if (!rate_ok()) {
          return Status::InvalidArgument("fault spec '" + text +
                                         "': node_loss must be in [0,1]");
        }
        spec.node_loss_rate = num;
      } else if (key == "nodes") {
        if (num < 1.0 || num != static_cast<double>(static_cast<int>(num))) {
          return Status::InvalidArgument(
              "fault spec '" + text + "': nodes must be a positive integer");
        }
        spec.num_nodes = static_cast<int>(num);
      } else {
        return Status::InvalidArgument("fault spec '" + text +
                                       "': unknown key '" + key + "'");
      }
    }
  }
  *plan = FaultPlan(seed, spec);
  return Status::OK();
}

std::string FaultPlan::Summary() const {
  if (disabled_) return "disabled";
  if (!active()) return "inert";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "seed %llu: map_fail=%g reduce_fail=%g straggle=%g x%g "
                "node_loss=%g over %d nodes",
                static_cast<unsigned long long>(seed_),
                spec_.map_failure_rate, spec_.reduce_failure_rate,
                spec_.straggler_rate, spec_.straggler_slowdown,
                spec_.node_loss_rate, spec_.num_nodes);
  return buf;
}

FaultDecision FaultPlan::Decide(const std::string& job, TaskPhase phase,
                                int64_t task, int attempt) const {
  FaultDecision d;
  if (!active()) return d;
  const uint64_t p = static_cast<uint64_t>(phase);
  const uint64_t t = static_cast<uint64_t>(task);
  const uint64_t a = static_cast<uint64_t>(attempt);

  const double fail_rate = phase == TaskPhase::kMap
                               ? spec_.map_failure_rate
                               : spec_.reduce_failure_rate;
  if (fail_rate > 0.0 &&
      U01(DecisionHash(seed_, kStreamFail, job, p, t, a)) < fail_rate) {
    d.fail_stop = true;
  }
  if (spec_.node_loss_rate > 0.0 &&
      NodeLost(job, Placement(job, phase, task, attempt))) {
    d.node_lost = true;
  }
  if (spec_.straggler_rate > 0.0 &&
      U01(DecisionHash(seed_, kStreamStraggle, job, p, t, a)) <
          spec_.straggler_rate) {
    d.slowdown = spec_.straggler_slowdown;
  }
  if (d.failed()) {
    // The attempt died somewhere in (0, 100%] of its runtime; the scheduler
    // charges this fraction of the (slowed) task time as slot occupancy.
    d.failure_fraction =
        0.25 + 0.75 * U01(DecisionHash(seed_, kStreamFraction, job, p, t, a));
  }
  return d;
}

int FaultPlan::Placement(const std::string& job, TaskPhase phase,
                         int64_t task, int attempt) const {
  const uint64_t h = DecisionHash(seed_, kStreamPlacement, job,
                                  static_cast<uint64_t>(phase),
                                  static_cast<uint64_t>(task),
                                  static_cast<uint64_t>(attempt));
  return static_cast<int>(h % static_cast<uint64_t>(spec_.num_nodes));
}

bool FaultPlan::NodeLost(const std::string& job, int node) const {
  if (!active() || spec_.node_loss_rate <= 0.0) return false;
  const uint64_t h = DecisionHash(seed_, kStreamNodeLoss, job, 0,
                                  static_cast<uint64_t>(node), 0);
  return U01(h) < spec_.node_loss_rate;
}

Status FaultPlanFromEnv(FaultPlan* plan) {
  const char* env = std::getenv("DWM_FAULTS");
  if (env == nullptr || env[0] == '\0') {
    *plan = FaultPlan();
    return Status::OK();
  }
  return FaultPlan::Parse(env, plan);
}

const FaultPlan& EffectiveFaultPlan(const FaultPlan& config_plan) {
  static const FaultPlan kInert;
  if (config_plan.disabled()) return kInert;
  if (config_plan.active()) return config_plan;
  // Process-wide DWM_FAULTS fallback, parsed once (static init is
  // thread-safe, so the warning prints at most once). A malformed value is
  // treated as unset: fault injection must never be the thing that crashes
  // the run.
  static const FaultPlan env_plan = [] {
    FaultPlan plan;
    const Status st = FaultPlanFromEnv(&plan);
    if (!st.ok()) {
      const char* env = std::getenv("DWM_FAULTS");
      log::Warn("env_parse_error")
          .Str("knob", "DWM_FAULTS")
          .Str("value", env == nullptr ? "" : env)
          .Str("want", "a fault plan spec")
          .Str("error", st.ToString())
          .Str("action", "fault injection stays off");
      return FaultPlan();
    }
    return plan;
  }();
  return env_plan;
}

void PublishFaultTallies(const JobStats& stats,
                         metrics::Registry* registry) {
  const metrics::Labels labels = {{"job", stats.name}};
  registry
      ->GetCounter("dwm_faults_task_attempts_total",
                   "Task attempts launched (map + reduce) under an active "
                   "fault plan",
                   labels)
      ->Increment(stats.task_attempts);
  registry
      ->GetCounter("dwm_faults_failed_attempts_total",
                   "Attempts that fail-stopped or were killed", labels)
      ->Increment(stats.failed_attempts);
  registry
      ->GetCounter("dwm_faults_node_loss_kills_total",
                   "Failed attempts caused by simulated node loss", labels)
      ->Increment(stats.node_loss_kills);
  registry
      ->GetCounter("dwm_faults_straggler_attempts_total",
                   "Attempts that ran slowed by the straggler injector",
                   labels)
      ->Increment(stats.straggler_attempts);
  registry
      ->GetCounter("dwm_faults_speculative_backups_total",
                   "Backup copies the attempt-aware scheduler launched",
                   labels)
      ->Increment(stats.speculative_backups);
}

}  // namespace dwm::mr
