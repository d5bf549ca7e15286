// Shared types and helpers for the distributed algorithms.
#ifndef DWMAXERR_DIST_DIST_COMMON_H_
#define DWMAXERR_DIST_DIST_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/status.h"
#include "mr/cluster.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace dwm {

// Outcome of a distributed synopsis construction: the synopsis plus the
// simulated-cluster execution report. When `status` is non-OK (a job
// exhausted its task retries under fault injection, or the cluster config
// was invalid), the synopsis is unusable and `report` covers only the jobs
// that ran before the failure — the message names the job that died.
struct DistSynopsisResult {
  Synopsis synopsis;
  mr::SimReport report;
  Status status;
};

// Publishes the synopsis-quality gauges every distributed driver exports on
// a successful run, labeled {algo=<name>}: coefficients retained,
// reconstruction error achieved in the algorithm's own metric (max-abs, or
// max-rel for the relative-error variants), the requested error bound when
// the algorithm takes one (error_bound >= 0), and a per-algo run counter.
// All values are pure functions of the inputs, so they land in the
// registry's stable (deterministic-JSON) export. dwm_lint's
// dist-quality-metrics rule pins that every driver in src/dist calls this.
inline void PublishSynopsisQuality(const std::string& algo,
                                   const Synopsis& synopsis,
                                   double achieved_error,
                                   double error_bound = -1.0) {
  metrics::Registry& registry = metrics::Default();
  const metrics::Labels labels = {{"algo", algo}};
  registry
      .GetGauge("dwm_synopsis_retained_coefficients",
                "Coefficients retained by the last run", labels)
      ->Set(static_cast<double>(synopsis.size()));
  registry
      .GetGauge("dwm_synopsis_achieved_error",
                "Reconstruction error of the last run, in the algorithm's "
                "own metric",
                labels)
      ->Set(achieved_error);
  if (error_bound >= 0.0) {
    registry
        .GetGauge("dwm_synopsis_error_bound",
                  "Requested error bound (eps) of the last run", labels)
        ->Set(error_bound);
  }
  registry
      .GetCounter("dwm_dist_runs_total",
                  "Completed distributed synopsis constructions", labels)
      ->Increment();
}

// The fewest values DIndirectHaar takes (dist/tree_partition.h has the
// other drivers').
inline constexpr int64_t kDIndirectHaarMinValues = 8;

namespace dist_internal {

// Pass-through reduce closures for jobs whose driver folds the job output;
// they ignore the job's Ctx. RunJob concatenates reducer outputs in reducer
// order with keys ascending within a reducer, so a fold over the output
// replays the reduce-call order. ForwardPairs forwards every (key, value)
// pair; ForwardSingle first checks that the key carries exactly one value.
template <typename Ctx, typename K, typename V>
void ForwardPairs(const Ctx&, const K& key, std::vector<V>& values,
                  std::vector<std::pair<K, V>>* out) {
  for (V& value : values) out->emplace_back(key, std::move(value));
}

template <typename Ctx, typename K, typename V>
void ForwardSingle(const Ctx&, const K& key, std::vector<V>& values,
                   std::vector<std::pair<K, V>>* out) {
  DWM_CHECK_EQ(values.size(), 1u);
  out->emplace_back(key, std::move(values[0]));
}

}  // namespace dist_internal
}  // namespace dwm

#endif  // DWMAXERR_DIST_DIST_COMMON_H_
