// DMHaarSpace (Section 4): the MinHaarSpace DP as the layered policy of
// dist/partitioned_tree_dp.h. Each sub-tree consumes 2^h = `subtree_inputs`
// M-rows, so the up jobs ship O(N * eps / (delta * 2^h)) bytes (Eq. 6).
// The probe (up sweep and choice of c_0) already fixes the count and the
// error, so DIndirectHaar materializes only its search's winner.
#ifndef DWMAXERR_DIST_DMIN_HAAR_SPACE_H_
#define DWMAXERR_DIST_DMIN_HAAR_SPACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/min_haar_space.h"
#include "common/status.h"
#include "mr/cluster.h"

namespace dwm {

struct DmhsOptions {
  double error_bound = 0.0;
  double quantum = 1.0;
  // Rows consumed per worker sub-tree (2^h in the paper; a power of two).
  // Each bottom-layer worker therefore covers 2 * subtree_inputs leaves.
  int64_t subtree_inputs = 256;
};

struct DmhsResult {
  MhsResult result;
  mr::SimReport report;
  // Non-OK when a stage job died (see DistSynopsisResult::status); the
  // result is then infeasible and `report` covers the completed jobs.
  Status status;
};

// The driver state a probe hands to MaterializeDMinHaarSpace.
struct DmhsSweep;

// The bottom-up half of DMinHaarSpace: every up stage, then the driver's
// choice of c_0.
struct DmhsProbe {
  // feasible, count and max_abs_error are final; the synopsis stays empty
  // until MaterializeDMinHaarSpace.
  MhsResult result;
  mr::SimReport report;  // the up jobs and the choose_c0 driver span
  Status status;         // as DmhsResult::status
  // The probe's chain (the down stages continue its numbering and
  // checkpoint files) and records. It references the probe's `data`, which
  // must outlive it. Set only when the probe is ok and feasible.
  std::shared_ptr<DmhsSweep> sweep;
};

[[nodiscard]] DmhsProbe ProbeDMinHaarSpace(const std::vector<double>& data,
                                           const DmhsOptions& options,
                                           const mr::ClusterConfig& cluster);

// The top-down half: runs the down stages, one job per layer, in the
// probe's chain, and returns the synopsis with the probe's count and error.
// `report` covers the down jobs only. Call at most once per probe, and
// only on one that has a sweep.
[[nodiscard]] DmhsResult MaterializeDMinHaarSpace(const DmhsProbe& probe);

// ProbeDMinHaarSpace, then (when it yields a sweep)
// MaterializeDMinHaarSpace, with the two reports joined.
[[nodiscard]] DmhsResult DMinHaarSpace(const std::vector<double>& data,
                                       const DmhsOptions& options,
                                       const mr::ClusterConfig& cluster);

}  // namespace dwm

#endif  // DWMAXERR_DIST_DMIN_HAAR_SPACE_H_
