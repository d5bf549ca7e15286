// Shared types and helpers for the distributed algorithms.
#ifndef DWMAXERR_DIST_DIST_COMMON_H_
#define DWMAXERR_DIST_DIST_COMMON_H_

#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

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

namespace dist_internal {

// Keeps the `budget` coefficients with the largest significance
// (|c|/sqrt(2^level)); ties prefer the smaller index, matching
// ConventionalFromCoeffs so distributed and centralized synopses are
// bit-identical when the coefficient values are.
class TopBySignificance {
 public:
  explicit TopBySignificance(int64_t budget) : budget_(budget) {}

  void Offer(int64_t index, double value) {
    if (budget_ <= 0 || value == 0.0) return;
    const double sig = Significance(index, value);
    if (static_cast<int64_t>(heap_.size()) == budget_) {
      const Entry& worst = heap_.top();
      if (!Better(sig, index, worst)) return;
      heap_.pop();
    }
    heap_.push({sig, index, value});
  }

  std::vector<Coefficient> Take() {
    std::vector<Coefficient> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back({heap_.top().index, heap_.top().value});
      heap_.pop();
    }
    return out;
  }

 private:
  struct Entry {
    double significance;
    int64_t index;
    double value;
    // Min-heap on (significance asc, index desc): top() is the entry to
    // evict first.
    bool operator<(const Entry& other) const {
      if (significance != other.significance) {
        return significance > other.significance;
      }
      return index < other.index;
    }
  };
  static bool Better(double sig, int64_t index, const Entry& worst) {
    if (sig != worst.significance) return sig > worst.significance;
    return index < worst.index;
  }

  int64_t budget_;
  std::priority_queue<Entry> heap_;
};

}  // namespace dist_internal
}  // namespace dwm

#endif  // DWMAXERR_DIST_DIST_COMMON_H_
